package audit

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dataaudit/internal/audittree"
	"dataaudit/internal/c45"
	"dataaudit/internal/dataset"
	"dataaudit/internal/knn"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/nbayes"
	"dataaudit/internal/ruleind"
	"dataaudit/internal/stats"
)

var everyInducer = []InducerKind{
	InducerC45Audit, InducerC45, InducerID3, InducerNaiveBayes, InducerKNN, InducerOneR, InducerPrism,
}

// nullyEngineTable is engineTable with about one cell in twelve null, so
// the induced models hold missing-value branches and null buckets.
func nullyEngineTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := engineTable(t, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for r := 0; r < n; r++ {
		for c := 0; c < tab.NumCols(); c++ {
			if rng.Intn(12) == 0 {
				tab.Set(r, c, dataset.Null())
			}
		}
	}
	return tab
}

// decodedCopy returns a copy of m that shares no memory with it.
func decodedCopy(t testing.TB, m *Model) *Model {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestDecodeRejectsTreeOverUnknownAttribute: a c45 model whose tree
// splits on attribute 999 used to decode, and its first CheckRow panicked
// with an index out of range. Decode now refuses it, naming the attribute
// and the node.
func TestDecodeRejectsTreeOverUnknownAttribute(t *testing.T) {
	m, err := Induce(engineTable(t, 1200, 5), Options{MinConfidence: 0.8, Inducer: InducerC45})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, am := range m.Attrs {
		if tree := am.Classifier.(*c45.Tree); tree.Root.Attr >= 0 {
			tree.Root.Attr = 999
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no tree with a split to corrupt")
	}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Unmarshal(b)
	if err == nil || !strings.Contains(err.Error(), "attribute 999") || !strings.Contains(err.Error(), "node root") {
		t.Fatalf("Unmarshal of a tree over attribute 999: %v, want an error naming the attribute and the node", err)
	}
}

// TestDecodeRejectsMalformedModels: each structural fault a model file can
// carry, one family at a time, fails Decode with an error that says what
// is wrong.
func TestDecodeRejectsMalformedModels(t *testing.T) {
	tab := nullyEngineTable(t, 1200, 7)
	models := map[InducerKind]*Model{}
	fresh := func(kind InducerKind) *Model {
		if models[kind] == nil {
			m, err := Induce(tab, Options{MinConfidence: 0.8, Inducer: kind, Filter: audittree.FilterReachableOnly})
			if err != nil {
				t.Fatal(err)
			}
			models[kind] = m
		}
		return decodedCopy(t, models[kind])
	}
	cases := []struct {
		name, kind, want string
		corrupt          func(m *Model)
	}{
		{"tree child count", string(InducerC45), "children", func(m *Model) {
			for _, am := range m.Attrs {
				if n := am.Classifier.(*c45.Tree).Root; !n.IsLeaf() {
					n.Children = n.Children[:len(n.Children)-1]
					return
				}
			}
			t.Fatal("no split")
		}},
		{"tree split on the class", string(InducerID3), "is the class", func(m *Model) {
			for _, am := range m.Attrs {
				if n := am.Classifier.(*c45.Tree).Root; !n.IsLeaf() {
					n.Attr = am.Class
					return
				}
			}
			t.Fatal("no split")
		}},
		{"tree distribution length", string(InducerC45), "distribution over", func(m *Model) {
			tree := m.Attrs[0].Classifier.(*c45.Tree)
			tree.Root.Dist.Counts = append(tree.Root.Dist.Counts, 0)
		}},
		{"rule value outside the domain", string(InducerC45Audit), "does not fit", func(m *Model) {
			for _, am := range m.Attrs {
				rs := am.Classifier.(*audittree.RuleSet)
				for i := range rs.Rules {
					for j, c := range rs.Rules[i].Conds {
						if !c.IsNumeric {
							rs.Rules[i].Conds[j].Val = 7
							return
						}
					}
				}
			}
			t.Fatal("no nominal test")
		}},
		{"hint over an unknown attribute", string(InducerC45Audit), "hint node root", func(m *Model) {
			m.Attrs[0].Classifier.(*audittree.RuleSet).Hint.Attr = 999
		}},
		{"nbayes table shape", string(InducerNaiveBayes), "wrong shape", func(m *Model) {
			nm := &m.Attrs[0].Classifier.(*nbayes.Model).Nominals[0]
			nm.Cond[0] = nm.Cond[0][:1]
		}},
		{"knn neighbourhood size", string(InducerKNN), "neighbourhood size 0", func(m *Model) {
			m.Attrs[0].Classifier.(*knn.Model).K = 0
		}},
		{"knn row width", string(InducerKNN), "cells, want 4", func(m *Model) {
			km := m.Attrs[0].Classifier.(*knn.Model)
			km.Rows[3] = km.Rows[3][:2]
		}},
		{"knn classes not parallel", string(InducerKNN), "rows but", func(m *Model) {
			km := m.Attrs[0].Classifier.(*knn.Model)
			km.Weight = km.Weight[1:]
		}},
		{"1r attribute position", string(InducerOneR), "attribute position", func(m *Model) {
			m.Attrs[0].Classifier.(*ruleind.OneRModel).AttrPos = 9
		}},
		{"prism bucket", string(InducerPrism), "outside the view", func(m *Model) {
			for _, am := range m.Attrs {
				pm := am.Classifier.(*ruleind.PrismModel)
				for i := range pm.Rules {
					if len(pm.Rules[i].Conds) > 0 {
						pm.Rules[i].Conds[0].Bucket = 99
						return
					}
				}
			}
			t.Fatal("no PRISM condition")
		}},
		{"nil schema", string(InducerOneR), "no schema", func(m *Model) { m.Schema = nil }},
		{"class modelled twice", string(InducerC45), "modelled twice", func(m *Model) { m.Attrs[1].Class = m.Attrs[0].Class }},
		{"class outside the schema", string(InducerC45), "outside the schema", func(m *Model) { m.Attrs[1].Class = 4 }},
		{"base attribute names", string(InducerC45), "unknown attribute", func(m *Model) {
			m.Opts.BaseAttrs = map[string][]string{"BRV": {"NOPE"}}
		}},
		{"class bins", string(InducerC45), "class bins", func(m *Model) {
			m.Attrs[0].Disc = &stats.Discretizer{Cuts: []float64{1}, Reps: []float64{0, 2}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fresh(InducerKind(tc.kind))
			tc.corrupt(m)
			b, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Unmarshal(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Unmarshal: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeAcceptsInducedModels: every model Induce and ReinduceAttrs
// build, in either re-induction mode, passes Decode's structural check.
func TestDecodeAcceptsInducedModels(t *testing.T) {
	prev, cur := nullyEngineTable(t, 900, 11), nullyEngineTable(t, 700, 12)
	for _, kind := range everyInducer {
		m, err := Induce(prev, Options{MinConfidence: 0.8, Inducer: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		decodedCopy(t, m)
		for _, mode := range []ReinduceMode{ReinduceIncremental, ReinduceFull} {
			next, err := m.ReinduceAttrs(cur, modelledAttrs(m), ReinduceOptions{Mode: mode})
			if err != nil {
				t.Fatalf("%s %s: %v", kind, mode, err)
			}
			decodedCopy(t, next)
		}
	}
}

// fuzzTable draws n rows of the schema: each cell null one time in five,
// else a domain value of a nominal attribute or a number within a
// number-like attribute's range.
func fuzzTable(s *dataset.Schema, n int) *dataset.Table {
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(1))
	row := make([]dataset.Value, s.Len())
	for range n {
		for c, a := range s.Attrs() {
			u := rng.Float64()
			switch {
			case rng.Intn(5) == 0 || a.Type == dataset.NominalType && a.NumValues() == 0:
				row[c] = dataset.Null()
			case a.Type == dataset.NominalType:
				row[c] = dataset.Nom(rng.Intn(a.NumValues()))
			case a.Max >= a.Min && !math.IsInf(a.Max-a.Min, 0):
				row[c] = dataset.Num(a.Min + u*(a.Max-a.Min))
			default:
				row[c] = dataset.Num(u)
			}
		}
		tab.AppendRow(row)
	}
	return tab
}

// FuzzDecodeModel: a model file either fails to decode, or the model it
// holds scores a 20-row table of its schema through CheckRow and
// CheckChunk, and re-induces every attribute incrementally onto it,
// without a panic. The seeds are one small model per inducer.
func FuzzDecodeModel(f *testing.F) {
	tab := nullyEngineTable(f, 60, 3)
	for _, kind := range everyInducer {
		m, err := Induce(tab, Options{MinConfidence: 0.8, Inducer: kind, Filter: audittree.FilterReachableOnly})
		if err != nil {
			f.Fatal(err)
		}
		b, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		tab := fuzzTable(m.Schema, 20)
		for r := range tab.NumRows() {
			m.CheckRow(tab.Row(r))
		}
		ck := dataset.NewColumnChunk(m.Schema)
		tab.ChunkInto(ck, 0, tab.NumRows())
		m.CheckChunk(ck, 0, NewChunkScratch(m))
		m.ReinduceAttrs(tab, modelledAttrs(m), ReinduceOptions{})
	})
}

// TestTrainingViewAllocation: the training view of a nominal class reads
// the call's code vector of the column, so building it allocates nothing
// sized by the table; a binned class allocates its one int32 class
// vector. (An instance set with row and weight lists cost about 24 bytes
// per row per attribute.)
func TestTrainingViewAllocation(t *testing.T) {
	const rows = 20000
	tab := engineTable(t, rows, 9)
	m, err := Induce(engineTable(t, 600, 9), Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	ranks := mlcore.NewRankCache(tab)
	perRow := func(am *AttrModel) float64 {
		if am.Disc == nil {
			ranks.Codes(am.Class) // the call builds each code vector once
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			trainingView(tab, am, ranks)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / rows
	}
	for _, am := range m.Attrs {
		name := tab.Schema().Attr(am.Class).Name
		got := perRow(am)
		if am.Disc == nil {
			if got > 0.1 {
				t.Errorf("%s: a nominal class's view allocates %.2f B/row, want none sized by the table", name, got)
			}
			if ins := trainingView(tab, am, ranks); &ins.Class[0] != &ranks.Codes(am.Class)[0] {
				t.Errorf("%s: the view does not read the call's code vector", name)
			}
		} else if got < 4 || got > 4.5 {
			t.Errorf("%s: a binned class's view allocates %.2f B/row, want one int32 vector", name, got)
		}
	}
}

// TestTrainersLeaveCodeVectorsIntact: a nominal class's class vector is
// the call's code vector of its column, which the trees of the call read
// as a base column too, so no trainer may write to it. After Induce and
// ReinduceAttrs with every inducer and with the §5.4 ablation trainers
// (E8), every nominal column's code vector equals a fresh encoding.
func TestTrainersLeaveCodeVectorsIntact(t *testing.T) {
	prev, cur := nullyEngineTable(t, 800, 21), nullyEngineTable(t, 600, 22)
	minInst := stats.MinInstForConfidence(0.8, 0.95)
	var configs []Options
	for _, kind := range everyInducer {
		configs = append(configs, Options{MinConfidence: 0.8, Inducer: kind})
	}
	for _, tr := range []mlcore.Trainer{
		&c45.Trainer{Opts: c45.Options{UseGainRatio: true, Prune: true}},
		&c45.Trainer{Opts: c45.Options{UseGainRatio: true, Prune: true, MinInst: float64(minInst)}},
		&c45.Trainer{Opts: c45.Options{UseGainRatio: true, ExpErrConfPrune: true, MinErrConf: 0.8}},
	} {
		configs = append(configs, Options{MinConfidence: 0.8, Trainer: tr})
	}
	intact := func(t *testing.T, tab *dataset.Table, ranks *mlcore.RankCache) {
		t.Helper()
		want := mlcore.NewRankCache(tab)
		for c, a := range tab.Schema().Attrs() {
			if a.Type != dataset.NominalType {
				continue
			}
			got, fresh := ranks.Codes(c), want.Codes(c)
			for r := range fresh {
				if got[r] != fresh[r] {
					t.Fatalf("column %s row %d: code %d, a fresh encoding gives %d", a.Name, r, got[r], fresh[r])
				}
			}
		}
	}
	for _, opts := range configs {
		name := string(opts.Inducer)
		if opts.Trainer != nil {
			name = "custom"
		}
		t.Run(name, func(t *testing.T) {
			ranks := mlcore.NewRankCache(prev)
			m, err := induce(prev, opts, ranks)
			if err != nil {
				t.Fatal(err)
			}
			intact(t, prev, ranks)
			for _, mode := range []ReinduceMode{ReinduceIncremental, ReinduceFull} {
				ranks := mlcore.NewRankCache(cur)
				if _, err := m.reinduceAttrs(cur, modelledAttrs(m), ReinduceOptions{Mode: mode}, ranks); err != nil {
					t.Fatal(err)
				}
				intact(t, cur, ranks)
			}
		})
	}
}
