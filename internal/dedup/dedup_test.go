package dedup

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dataaudit/internal/dataset"
)

// dedupSchema is an 8-attribute relation with one functional dependency
// (region determines regcode) and an account column selective enough to
// anchor a blocking key.
func dedupSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNumeric("acct", 0, 1e6),
		dataset.NewNominal("region", "north", "south", "east", "west"),
		dataset.NewNominal("regcode", "N", "S", "E", "W"),
		dataset.NewNominal("status", "new", "open", "closed"),
		dataset.NewNumeric("amount", 0, 10000),
		dataset.NewDate("day", dataset.MustParseDate("2000-01-01"), dataset.MustParseDate("2003-12-31")),
		dataset.NewNominal("tier", "a", "b"),
		dataset.NewNumeric("visits", 0, 500),
	)
}

// dedupTable builds n clean rows; regcode mirrors region exactly.
func dedupTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(dedupSchema(t))
	rng := rand.New(rand.NewSource(seed))
	day0 := dataset.MustParseDate("2000-01-01")
	for i := 0; i < n; i++ {
		region := rng.Intn(4)
		row := []dataset.Value{
			dataset.Num(float64(i)*7 + 13), // unique per row
			dataset.Nom(region),
			dataset.Nom(region), // determined by region
			dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(rng.Intn(100000)) / 10),
			dataset.DateValue(day0.AddDate(0, 0, rng.Intn(1400))),
			dataset.Nom(rng.Intn(2)),
			dataset.Num(float64(rng.Intn(500))),
		}
		if rng.Intn(40) == 0 {
			row[4] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

func TestDetectExactDuplicates(t *testing.T) {
	tab := dedupTable(t, 800, 3)
	// Three copies of row 10 (one group of 4), one copy of row 20.
	tab.DuplicateRow(10)
	tab.DuplicateRow(10)
	tab.DuplicateRow(10)
	tab.DuplicateRow(20)

	res, err := Detect(tab, Options{Threshold: 1}) // exact pass only
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 804 {
		t.Fatalf("Rows = %d, want 804", res.Rows)
	}
	if res.ExactGroups != 2 || res.NearGroups != 0 {
		t.Fatalf("groups = %d exact / %d near, want 2/0", res.ExactGroups, res.NearGroups)
	}
	if res.DuplicateRows != 4 {
		t.Fatalf("DuplicateRows = %d, want 4", res.DuplicateRows)
	}
	byCanonical := map[int]Group{}
	for _, g := range res.Groups {
		byCanonical[g.Rows[0]] = g
	}
	g10, ok := byCanonical[10]
	if !ok || len(g10.Rows) != 4 || !g10.Exact || g10.MinSimilarity != 1 {
		t.Fatalf("group of row 10 wrong: %+v", g10)
	}
	if g20, ok := byCanonical[20]; !ok || len(g20.Rows) != 2 {
		t.Fatalf("group of row 20 wrong: %+v", g20)
	}
	// IDs must align with rows.
	for _, g := range res.Groups {
		for i, r := range g.Rows {
			if g.IDs[i] != tab.ID(r) {
				t.Fatalf("group ID mismatch at row %d", r)
			}
		}
	}
	if got := res.DuplicateRate(); got != 4.0/804 {
		t.Fatalf("DuplicateRate = %g, want %g", got, 4.0/804)
	}
}

func TestDetectNearDuplicates(t *testing.T) {
	tab := dedupTable(t, 1000, 5)
	// A near duplicate differing in one non-key nominal.
	r1 := tab.NumRows()
	tab.DuplicateRow(50)
	tab.Set(r1, 3, dataset.Nom((tab.Get(50, 3).NomIdx()+1)%3))
	// A near duplicate whose key attribute itself was perturbed — only
	// the leave-one-out blocking passes can land it next to its source.
	r2 := tab.NumRows()
	tab.DuplicateRow(60)
	tab.Set(r2, 0, dataset.Num(tab.Get(60, 0).Float()+1))

	res, err := Detect(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.KeyDiscovered || len(res.Key) == 0 {
		t.Fatalf("expected a discovered key, got %+v", res.Key)
	}
	found := map[int]bool{}
	for _, g := range res.Groups {
		if g.Exact {
			t.Fatalf("unexpected exact group %+v", g)
		}
		if g.MinSimilarity < 0.85 || g.MinSimilarity >= 1 {
			t.Fatalf("near group similarity %g outside [0.85, 1)", g.MinSimilarity)
		}
		found[g.Rows[0]] = true
	}
	if !found[50] || !found[60] {
		t.Fatalf("near duplicates not detected: groups %+v (key %v)", res.Groups, res.Key)
	}
	if res.NearGroups != len(res.Groups) || res.DuplicateRows < 2 {
		t.Fatalf("counts wrong: %+v", res)
	}
}

func TestDiscoverKeyExcludesDeterminedAttrs(t *testing.T) {
	tab := dedupTable(t, 1500, 7)
	d := NewDetector(tab.Schema())
	ck := dataset.NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, tab.NumRows())
	d.Observe(ck)

	key, err := d.DiscoverKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 3 {
		t.Fatalf("key = %v, want 3 attributes", key)
	}
	for _, c := range key {
		// region (1) and regcode (2) determine each other with
		// confidence 1.0, so neither may enter the key.
		if c == 1 || c == 2 {
			t.Fatalf("functionally determined attribute %d in key %v", c, key)
		}
	}
	// acct is unique per row — the most selective column must be in.
	if key[0] != 0 {
		t.Fatalf("acct (attr 0) missing from key %v", key)
	}
}

func TestDetectSourceMatchesDetect(t *testing.T) {
	tab := dedupTable(t, 600, 11)
	tab.DuplicateRow(5)
	tab.DuplicateRow(17)
	want, err := Detect(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DetectSource(dataset.NewTableSource(tab), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want.DetectTime, got.DetectTime = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("DetectSource result differs from Detect:\n got %+v\nwant %+v", got, want)
	}
}

func TestDetectBlockCap(t *testing.T) {
	// Every row identical on the key columns forces one giant block;
	// the cap must truncate it and say so.
	tab := dedupTable(t, 300, 13)
	for r := 0; r < tab.NumRows(); r++ {
		tab.Set(r, 0, dataset.Num(1))
	}
	res, err := Detect(tab, Options{Key: []int{0}, MaxBlock: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksCapped == 0 {
		t.Fatalf("expected capped blocks, got %+v", res)
	}
}

func TestDetectOptionErrors(t *testing.T) {
	tab := dedupTable(t, 50, 17)
	if _, err := Detect(tab, Options{Key: []int{99}}); err == nil {
		t.Fatal("out-of-range key attribute accepted")
	}
	d := NewDetector(tab.Schema())
	if _, err := d.DiscoverKey(); err == nil {
		t.Fatal("key discovery on an empty detector succeeded")
	}
	// Finalize on an empty detector is a clean zero result.
	res, err := d.Finalize(Options{Threshold: 1})
	if err != nil || res.Rows != 0 || len(res.Groups) != 0 {
		t.Fatalf("empty Finalize = %+v, %v", res, err)
	}
}

func TestSimilaritySemantics(t *testing.T) {
	tab := dedupTable(t, 2, 19)
	// Make row 1 a copy of row 0, then check component semantics.
	for c := 0; c < tab.NumCols(); c++ {
		tab.Set(1, c, tab.Get(0, c))
	}
	d := NewDetector(tab.Schema())
	ck := dataset.NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, 2)
	d.Observe(ck)
	if s := d.Similarity(0, 1); s != 1 {
		t.Fatalf("identical rows similarity = %g, want 1", s)
	}

	cases := []struct {
		name string
		set  func(*dataset.Table)
		want func(s float64) bool
	}{
		{"one flipped nominal of 8", func(tb *dataset.Table) {
			tb.Set(1, 3, dataset.Nom((tb.Get(0, 3).NomIdx()+1)%3))
		}, func(s float64) bool { return s == 7.0/8 }},
		{"null vs value disagrees", func(tb *dataset.Table) {
			tb.Set(1, 4, dataset.Null())
		}, func(s float64) bool { return s <= 7.0/8+1e-9 }},
		{"small numeric nudge stays close to 1", func(tb *dataset.Table) {
			tb.Set(1, 4, dataset.Num(tb.Get(0, 4).Float()+10))
		}, func(s float64) bool { return s > 0.99 && s < 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab2 := tab.Clone()
			tc.set(tab2)
			d2 := NewDetector(tab2.Schema())
			ck2 := dataset.NewColumnChunk(tab2.Schema())
			tab2.ChunkInto(ck2, 0, 2)
			d2.Observe(ck2)
			if s := d2.Similarity(0, 1); !tc.want(s) {
				t.Fatalf("similarity = %g fails predicate", s)
			}
		})
	}
}

func TestDetectTimeRecorded(t *testing.T) {
	tab := dedupTable(t, 100, 23)
	res, err := Detect(tab, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectTime < 0 || res.DetectTime > time.Minute {
		t.Fatalf("implausible DetectTime %v", res.DetectTime)
	}
}

// TestDetectChunkingInsensitive: the same rows through different chunk
// geometries produce the identical result.
func TestDetectChunkingInsensitive(t *testing.T) {
	tab := dedupTable(t, 700, 29)
	tab.DuplicateRow(3)
	want, err := Detect(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64} {
		d := NewDetector(tab.Schema())
		ck := dataset.NewColumnChunk(tab.Schema())
		for lo := 0; lo < tab.NumRows(); lo += chunk {
			hi := lo + chunk
			if hi > tab.NumRows() {
				hi = tab.NumRows()
			}
			tab.ChunkInto(ck, lo, hi)
			d.Observe(ck)
		}
		got, err := d.Finalize(Options{})
		if err != nil {
			t.Fatal(err)
		}
		want.DetectTime, got.DetectTime = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chunk=%d: result differs from 4096-chunk Detect", chunk)
		}
	}
}
