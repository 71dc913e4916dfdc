package audit

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

func dimsTestTable(t *testing.T) *dataset.Table {
	t.Helper()
	s, err := dataset.NewSchema(
		dataset.NewNominal("grade", "a", "b", "c", "d"),
		dataset.NewNumeric("score", 0, 1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable(s)
	for i := 0; i < 300; i++ {
		row := []dataset.Value{dataset.Nom(i % 3), dataset.Num(float64(i % 50))}
		if i%10 == 0 {
			row[0] = dataset.Null()
		}
		if i%4 == 0 {
			row[1] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

func TestTableDims(t *testing.T) {
	tab := dimsTestTable(t)
	dims := TableDims(tab)
	if len(dims) != 2 {
		t.Fatalf("got %d dims, want 2", len(dims))
	}

	grade := &dims[0]
	if grade.Rows != 300 || grade.Nulls != 30 {
		t.Errorf("grade: rows=%d nulls=%d, want 300/30", grade.Rows, grade.Nulls)
	}
	if got := grade.NullRate(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("grade NullRate = %g, want 0.1", got)
	}
	// Domain value "d" never occurs, so 3 of 4 indices are occupied.
	if got := grade.Distinct(); got != 3 {
		t.Errorf("grade Distinct = %d, want 3", got)
	}

	score := &dims[1]
	if score.Rows != 300 || score.Nulls != 75 {
		t.Errorf("score: rows=%d nulls=%d, want 300/75", score.Rows, score.Nulls)
	}
	if got := score.Distinct(); got != 50 {
		t.Errorf("score Distinct = %d, want exact 50 (below sketch capacity)", got)
	}
	wantU := 50.0 / 225.0
	if got := score.Uniqueness(); math.Abs(got-wantU) > 1e-12 {
		t.Errorf("score Uniqueness = %g, want %g", got, wantU)
	}
}

func TestDimsEmptyAndClamp(t *testing.T) {
	var d AttrDim
	if d.NullRate() != 0 || d.Uniqueness() != 0 || d.Distinct() != 0 {
		t.Errorf("zero AttrDim should report zero rates, got %g/%g/%d",
			d.NullRate(), d.Uniqueness(), d.Distinct())
	}
}

// TestDimsPartitionInsensitive merges per-partition trackers in a
// scrambled order and expects the whole-table dims exactly — the property
// the parallel and sharded paths rely on for gob byte-identity.
func TestDimsPartitionInsensitive(t *testing.T) {
	tab := dimsTestTable(t)
	whole := TableDims(tab)

	bounds := []int{0, 17, 18, 100, 231, 300}
	var parts [][]AttrDim
	for i := 1; i < len(bounds); i++ {
		tr := NewDimTracker(tab.Schema())
		ck := dataset.NewColumnChunk(tab.Schema())
		tab.ChunkInto(ck, bounds[i-1], bounds[i])
		tr.ObserveChunk(ck)
		parts = append(parts, tr.Dims())
	}
	merged := CloneDims(parts[2])
	for _, i := range []int{4, 0, 3, 1} {
		MergeDims(merged, parts[i])
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatalf("merged partition dims differ from whole-table dims:\n got %+v\nwant %+v", merged, whole)
	}
}

// TestStreamDimsMatchBatch holds the streaming engine's dims to the batch
// path's on the same rows.
func TestStreamDimsMatchBatch(t *testing.T) {
	m, dirty := streamQUIS(t)
	want := m.AuditTable(dirty)
	for _, chunk := range []int{1, 64, 4096} {
		sr, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{ChunkSize: chunk, Workers: 3})
		if err != nil {
			t.Fatalf("AuditStream(chunk=%d): %v", chunk, err)
		}
		if !reflect.DeepEqual(want.Dims, sr.Dims) {
			t.Fatalf("chunk=%d: stream dims differ from batch dims", chunk)
		}
	}
}

// TestTallyNullsMatchStream: the batch condenser's per-attribute null
// counts (pulled from Result.Dims) must equal the streaming tallies'.
func TestTallyNullsMatchStream(t *testing.T) {
	m, dirty := streamQUIS(t)
	res := m.AuditTable(dirty)
	_, batchTallies := m.TallyResult(res)
	sr, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batchTallies) != len(sr.Attrs) {
		t.Fatalf("tally widths differ: %d vs %d", len(batchTallies), len(sr.Attrs))
	}
	for i := range batchTallies {
		if batchTallies[i].Nulls != sr.Attrs[i].Nulls {
			t.Errorf("attr %d: batch nulls %d != stream nulls %d",
				batchTallies[i].Attr, batchTallies[i].Nulls, sr.Attrs[i].Nulls)
		}
	}
}

// dimColumn describes a generated numeric column: cell i takes the value
// of j = i % period (j = i for period 0), plus i / shift for a positive
// shift, so new values keep arriving among the repeats. In value mode it is start +
// j*step as floats, negated for odd j when alternate is set; in hash mode
// it is the float whose hash is start + j*step (wrapping), so the test
// controls the order hashes reach the sketch in. Every nullEvery-th cell
// (from cell 0) is null.
type dimColumn struct {
	hashes, alternate bool
	start, step       uint64
	period, shift     int
	rows, nullEvery   int
}

func (dc dimColumn) table() *dataset.Table {
	s := dataset.MustSchema(dataset.NewNumeric("x", 0, 1))
	tab := dataset.NewTable(s)
	row := make([]dataset.Value, 1)
	for i := range dc.rows {
		j := i
		if dc.period > 0 {
			j = i % dc.period
		}
		if dc.shift > 0 {
			j += i / dc.shift
		}
		var v float64
		if dc.hashes {
			v = math.Float64frombits(unmix64(dc.start + uint64(j)*dc.step))
		} else {
			v = math.Float64frombits(dc.start) + float64(j)*math.Float64frombits(dc.step)
			if dc.alternate && j%2 == 1 {
				v = -v
			}
		}
		row[0] = dataset.Num(v)
		if dc.nullEvery > 0 && i%dc.nullEvery == 0 {
			row[0] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

// unmix64 inverts dataset.Mix64.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= inverse64(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inverse64(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x
}

// inverse64 is the multiplicative inverse of an odd c modulo 2^64.
func inverse64(c uint64) uint64 {
	inv := c // correct to 3 bits; each Newton step doubles that
	for range 5 {
		inv *= 2 - c*inv
	}
	return inv
}

// plainDims folds the table's single numeric column the reference way:
// one KMV.Add per non-null, non-NaN cell.
func plainDims(tab *dataset.Table) []AttrDim {
	d := AttrDim{Rows: int64(tab.NumRows()), Sketch: stats.NewKMV(stats.DefaultKMVSize)}
	for _, v := range tab.Column(0) {
		switch {
		case v.IsNull():
			d.Nulls++
		case v.Float() == v.Float():
			d.Sketch.Add(dataset.HashFloat(v.Float()))
		}
	}
	return []AttrDim{d}
}

// trackedDims folds the table through two DimTrackers and merges them:
// chunk k holds cuts[k % len(cuts)]+1 rows (the whole table for no cuts)
// and goes to the tracker named by bit k%16 of split. It also reports
// whether either tracker built a sketch index.
func trackedDims(tab *dataset.Table, cuts []byte, split uint16) (dims []AttrDim, indexed bool) {
	trs := [2]*DimTracker{NewDimTracker(tab.Schema()), NewDimTracker(tab.Schema())}
	ck := dataset.NewColumnChunk(tab.Schema())
	n := tab.NumRows()
	for k, lo := 0, 0; lo < n; k++ {
		hi := n
		if len(cuts) > 0 {
			hi = min(n, lo+int(cuts[k%len(cuts)])+1)
		}
		tab.ChunkInto(ck, lo, hi)
		trs[split>>(k%16)&1].ObserveChunk(ck)
		lo = hi
	}
	indexed = trs[0].idx[0].slots != nil || trs[1].idx[0].slots != nil
	dims = trs[0].Dims()
	MergeDims(dims, trs[1].Dims())
	return dims, indexed
}

func gobDims(t *testing.T, dims []AttrDim) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dims); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkDimTracker holds the trackers' merged dims to the plain fold,
// gob byte for byte, and returns whether a sketch index was built.
func checkDimTracker(t *testing.T, dc dimColumn, cuts []byte, split uint16) bool {
	t.Helper()
	tab := dc.table()
	got, indexed := trackedDims(tab, cuts, split)
	if want := plainDims(tab); !bytes.Equal(gobDims(t, got), gobDims(t, want)) {
		t.Fatalf("%+v cuts %v split %#x: tracker dims differ from the plain fold:\n got %+v\nwant %+v", dc, cuts, split, got[0], want[0])
	}
	return indexed
}

var (
	day0, oneDay = math.Float64bits(9131), math.Float64bits(1)
	dimCases     = []struct {
		name    string
		col     dimColumn
		cuts    []byte
		split   uint16
		indexed bool // the case must build a sketch index
	}{
		// ±0 hash to 0, the index's empty slot.
		{"zeros", dimColumn{alternate: true, period: 2, rows: 6000}, []byte{255, 3}, 0x00f0, true},
		// Every cell enters the sketch and evicts its maximum.
		{"descending-hashes", dimColumn{hashes: true, start: math.MaxUint64, step: math.MaxUint64 - 1<<44 + 1, rows: 6000}, []byte{200, 7}, 0x5555, false},
		{"ascending-hashes", dimColumn{hashes: true, start: 1, step: 1 << 44, rows: 6000}, []byte{127}, 0x3333, false},
		// The shape of the QUIS production dates: a saturated sketch over
		// 3 000 repeated whole days.
		{"repeated-days", dimColumn{start: day0, step: oneDay, period: 3000, rows: 30000}, []byte{255, 255, 255, 0}, 0x0f0f, true},
		{"repeated-days-one-lane", dimColumn{start: day0, step: oneDay, period: 3000, rows: 30000}, []byte{255, 255, 255, 255}, 0, true},
		// New days keep entering once the index is built; day 0 (hash 0)
		// first arrives near row 9 600.
		{"sliding-days", dimColumn{start: math.Float64bits(-6000), step: oneDay, period: 3000, shift: 4, rows: 30000}, []byte{255, 255, 255, 255}, 0, true},
		// Few values, below saturation: the index takes every repeat.
		{"few-values", dimColumn{start: day0, step: oneDay, period: 40, nullEvery: 7, rows: 9000}, []byte{255, 255, 255}, 0xff00, true},
		{"all-nan", dimColumn{start: math.Float64bits(math.NaN()), rows: 5000}, []byte{99}, 0x1234, false},
		{"all-null", dimColumn{start: day0, step: oneDay, nullEvery: 1, rows: 5000}, []byte{99}, 0x4321, false},
		{"one-row-chunks", dimColumn{start: day0, step: oneDay, period: 5, rows: 3000}, []byte{0}, 0xabcd, false},
	}
)

// TestDimTrackerMatchesPlainFold holds DimTracker, whose sketch index
// skips KMV.Add for hashes it has seen, to a fold that adds every cell.
func TestDimTrackerMatchesPlainFold(t *testing.T) {
	for _, h := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		if got := dataset.Mix64(unmix64(h)); got != h {
			t.Fatalf("Mix64(unmix64(%#x)) = %#x", h, got)
		}
	}
	for _, c := range dimCases {
		t.Run(c.name, func(t *testing.T) {
			if indexed := checkDimTracker(t, c.col, c.cuts, c.split); c.indexed && !indexed {
				t.Fatal("no sketch index was built: the case does not exercise it")
			}
		})
	}
}

// FuzzDimTracker: arbitrary columns, chunk boundaries and splits over two
// trackers fold to the plain fold's dims.
func FuzzDimTracker(f *testing.F) {
	for _, c := range dimCases {
		dc := c.col
		f.Add(dc.hashes, dc.alternate, dc.start, dc.step, uint16(dc.period), uint16(dc.shift), uint16(dc.rows), uint8(dc.nullEvery), c.cuts, c.split)
	}
	f.Fuzz(func(t *testing.T, hashes, alternate bool, start, step uint64, period, shift, rows uint16, nullEvery uint8, cuts []byte, split uint16) {
		dc := dimColumn{hashes, alternate, start, step, int(period), int(shift), int(rows), int(nullEvery)}
		checkDimTracker(t, dc, cuts, split)
	})
}

// TestDimTrackerShortAuditAllocs: over a 2 000-row table a DimTracker
// allocates nothing beyond NewDimTracker and the growth of its sketch,
// however often the values repeat: a sketch index is only built for a
// long audit.
func TestDimTrackerShortAuditAllocs(t *testing.T) {
	allocs := func(rows int) (tracked, plain float64) {
		tab := dimColumn{start: day0, step: oneDay, period: 10, rows: rows}.table()
		var cks []*dataset.ColumnChunk
		for lo := 0; lo < rows; lo += batchChunkRows {
			ck := dataset.NewColumnChunk(tab.Schema())
			tab.ChunkInto(ck, lo, min(lo+batchChunkRows, rows))
			cks = append(cks, ck)
		}
		tracked = testing.AllocsPerRun(10, func() {
			tr := NewDimTracker(tab.Schema())
			for _, ck := range cks {
				tr.ObserveChunk(ck)
			}
		})
		plain = testing.AllocsPerRun(10, func() {
			sk := NewDimTracker(tab.Schema()).dims[0].Sketch
			for _, v := range tab.Column(0) {
				sk.Add(dataset.HashFloat(v.Float()))
			}
		})
		return tracked, plain
	}
	if tracked, plain := allocs(2000); tracked != plain {
		t.Fatalf("a 2 000-row fold allocates %v times, NewDimTracker and KMV.Add alone %v", tracked, plain)
	}
	// The same column, long enough to build the index, does allocate it.
	if tracked, plain := allocs(20000); tracked != plain+1 {
		t.Fatalf("a 20 000-row fold allocates %v times, want %v and the index", tracked, plain)
	}
}
