package audit

import (
	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

// Quality dimensions beyond deviation detection: per-attribute
// completeness (null rate) and uniqueness (distinct-value ratio), in the
// sense of the measurement-tool surveys' core dimension catalogue. They
// are folded into every audit Result so the monitor can watch them drift
// and the serving layer can expose them without a second table scan.
//
// The accumulators are built exclusively from set-union and sum
// operations (null counts, domain-occupancy bitmaps, bottom-k hash
// sketches), so any partition of the rows — sequential chunks, the
// parallel pool's spans, shard workers in other processes — folds to a
// byte-identical []AttrDim. The differential tests gob-compare whole
// Results across those paths and rely on this.

// AttrDim carries the observed quality dimensions of one schema column.
type AttrDim struct {
	// Attr is the schema column index.
	Attr int
	// Rows counts observed rows, Nulls the null cells among them.
	Nulls int64
	Rows  int64
	// NomSeen marks the occupied domain indices of a nominal column
	// (nil for number-like columns).
	NomSeen []bool
	// Sketch estimates the distinct count of a numeric or date column
	// (nil for nominal columns). NaN payloads are not folded in.
	Sketch *stats.KMV
}

// NullRate is the fraction of null cells (completeness' complement).
func (d *AttrDim) NullRate() float64 {
	if d.Rows == 0 {
		return 0
	}
	return float64(d.Nulls) / float64(d.Rows)
}

// Distinct is the (estimated) number of distinct non-null values.
func (d *AttrDim) Distinct() int64 {
	if d.NomSeen != nil {
		var n int64
		for _, seen := range d.NomSeen {
			if seen {
				n++
			}
		}
		return n
	}
	if d.Sketch == nil {
		return 0
	}
	return d.Sketch.Distinct()
}

// Uniqueness is distinct non-null values per non-null cell in [0, 1]:
// 1 for a key-like column, near 0 for a heavily repeated one.
func (d *AttrDim) Uniqueness() float64 {
	nonNull := d.Rows - d.Nulls
	if nonNull <= 0 {
		return 0
	}
	u := float64(d.Distinct()) / float64(nonNull)
	if u > 1 {
		u = 1
	}
	return u
}

// clone deep-copies the dimension.
func (d *AttrDim) clone() AttrDim {
	cp := AttrDim{Attr: d.Attr, Nulls: d.Nulls, Rows: d.Rows}
	if d.NomSeen != nil {
		cp.NomSeen = append(make([]bool, 0, len(d.NomSeen)), d.NomSeen...)
	}
	cp.Sketch = d.Sketch.Clone()
	return cp
}

// merge folds o into d. All operations commute, so merge order never
// changes the outcome.
func (d *AttrDim) merge(o *AttrDim) {
	d.Nulls += o.Nulls
	d.Rows += o.Rows
	for i, seen := range o.NomSeen {
		if seen {
			d.NomSeen[i] = true
		}
	}
	if d.Sketch != nil && o.Sketch != nil {
		d.Sketch.Merge(o.Sketch)
	}
}

// CloneDims deep-copies a dimension slice (nil in, nil out).
func CloneDims(dims []AttrDim) []AttrDim {
	if dims == nil {
		return nil
	}
	out := make([]AttrDim, len(dims))
	for i := range dims {
		out[i] = dims[i].clone()
	}
	return out
}

// MergeDims folds src into dst in place. The slices must describe the
// same schema (same length, same per-attribute shapes).
func MergeDims(dst, src []AttrDim) {
	for i := range src {
		dst[i].merge(&src[i])
	}
}

// DimTracker accumulates AttrDims over a stream of column chunks. One
// tracker per goroutine; merge the trackers afterwards.
type DimTracker struct {
	dims []AttrDim
	idx  []sketchIndex // per column; numeric columns only
}

// NewDimTracker returns a tracker with empty accumulators shaped by the
// schema: domain-occupancy slices for nominal attributes, distinct
// sketches for number-like ones.
func NewDimTracker(s *dataset.Schema) *DimTracker {
	t := &DimTracker{dims: make([]AttrDim, s.Len()), idx: make([]sketchIndex, s.Len())}
	for c := 0; c < s.Len(); c++ {
		a := s.Attr(c)
		d := &t.dims[c]
		d.Attr = c
		if a.IsNumberLike() {
			d.Sketch = stats.NewKMV(stats.DefaultKMVSize)
		} else {
			d.NomSeen = make([]bool, len(a.Domain))
		}
	}
	return t
}

// ObserveChunk folds one chunk into the tracker. A nominal cell costs a
// store. A numeric cell costs a hash and a compare when it cannot enter
// its column's saturated sketch, and otherwise a sketch Add: a binary
// search, plus a sorted insert when the hash is new. A column whose
// sketch keeps answering "already present" (a saturated sketch over
// repeated values) gets a sketchIndex, which answers a repeat with one
// probe instead. The tracker allocates nothing past NewDimTracker until
// a column builds its index, so it rides the chunked scoring loops
// without disturbing their zero-allocation steady state.
func (t *DimTracker) ObserveChunk(ck *dataset.ColumnChunk) {
	n := ck.Rows()
	if n == 0 {
		return
	}
	for c := range t.dims {
		d := &t.dims[c]
		col := ck.Col(c)
		d.Rows += int64(n)
		d.Nulls += col.NullCount(n)
		if d.NomSeen != nil {
			seen := d.NomSeen
			for _, v := range col.Nom[:n] {
				if v >= 0 {
					seen[v] = true
				}
			}
			continue
		}
		t.idx[c].fold(d.Sketch, col.Num[:n])
	}
}

const (
	// indexAfterHits is how many "already present" answers a column's
	// sketch gives before the column builds its index: more than a
	// 2 000-row audit can produce, so short audits never build one.
	indexAfterHits = 2048
	// indexSlots sizes an index at twice the sketch (16 KB), and
	// indexMaxLoad is where it is rebuilt from the sketch alone.
	indexSlots   = 2 * stats.DefaultKMVSize
	indexMaxLoad = indexSlots * 3 / 4
)

// sketchIndex is an exact open-addressed set of hashes a column's KMV
// sketch has held. A hit skips KMV.Add: re-adding a hash that was ever
// folded is a no-op, since it is either still a member or above a maximum
// that only falls. So the set may keep hashes the sketch has evicted
// since; when it fills up it is rebuilt from the sketch's members. A slot
// of 0 is empty: only ±0 hash to 0, and they always take the Add path.
type sketchIndex struct {
	hits  int      // "already present" answers before slots is built
	slots []uint64 // nil until built; probed linearly from the hash's low bits
	used  int
}

// fold adds the hash of every non-NaN value (in-band nulls are NaN) to
// the column's sketch.
func (x *sketchIndex) fold(sk *stats.KMV, vals []float64) {
	for _, v := range vals {
		if v != v {
			continue
		}
		h := dataset.HashFloat(v)
		n := len(sk.Hashes)
		if n == sk.K && h >= sk.Hashes[n-1] {
			continue // cannot enter the bottom-k
		}
		if x.slots != nil {
			if !x.has(h) {
				sk.Add(h)
				x.put(h, sk)
			}
			continue
		}
		var last uint64
		if n > 0 {
			last = sk.Hashes[n-1]
		}
		sk.Add(h)
		// A new hash grows the sketch or evicts its maximum.
		if n > 0 && len(sk.Hashes) == n && sk.Hashes[n-1] == last {
			if x.hits++; x.hits == indexAfterHits {
				x.slots = make([]uint64, indexSlots)
				x.rebuild(sk)
			}
		}
	}
}

func (x *sketchIndex) has(h uint64) bool {
	if h == 0 {
		return false
	}
	for i := h; ; i++ {
		switch x.slots[i%indexSlots] {
		case h:
			return true
		case 0:
			return false
		}
	}
}

// put adds h, which the index does not hold, and rebuilds the index once
// it is too full to probe fast.
func (x *sketchIndex) put(h uint64, sk *stats.KMV) {
	if h == 0 {
		return
	}
	i := h
	for x.slots[i%indexSlots] != 0 {
		i++
	}
	x.slots[i%indexSlots] = h
	if x.used++; x.used > indexMaxLoad {
		x.rebuild(sk)
	}
}

// rebuild empties the index and fills it with the sketch's members.
func (x *sketchIndex) rebuild(sk *stats.KMV) {
	clear(x.slots)
	x.used = 0
	for _, h := range sk.Hashes {
		x.put(h, sk) // at most DefaultKMVSize members: never recurses
	}
}

// Dims returns the accumulated dimensions. The caller owns the slice; the
// tracker must not be reused afterwards.
func (t *DimTracker) Dims() []AttrDim { return t.dims }

// TableDims computes the quality dimensions of a whole table through the
// same chunked accumulator the scoring paths use, so the results compare
// byte-identically.
func TableDims(tab *dataset.Table) []AttrDim {
	tr := NewDimTracker(tab.Schema())
	ck := dataset.NewColumnChunk(tab.Schema())
	n := tab.NumRows()
	for lo := 0; lo < n; lo += batchChunkRows {
		hi := min(lo+batchChunkRows, n)
		tab.ChunkInto(ck, lo, hi)
		tr.ObserveChunk(ck)
	}
	return tr.Dims()
}
