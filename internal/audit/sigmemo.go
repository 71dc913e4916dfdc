package audit

import (
	"math/bits"
	"sort"

	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

// Row-signature memoization. On low-cardinality relations — the common
// case for the quality-auditing workloads the paper targets — most rows
// are exact repeats of an earlier row once numeric values are reduced to
// the comparisons the model actually performs. A rule-set model's entire
// output for a row (every finding, its confidences, the best pick) is a
// pure function of:
//
//   - each nominal attribute's domain index (tries compare indices, and
//     the observed class is the index itself), and
//   - each numeric attribute's *rank* within the finite set of constants
//     it is ever compared against: the thresholds of every trie node
//     testing it plus its own discretizer cuts (which determine the
//     observed class bin). Two values with the same rank are
//     indistinguishable to every kernel.
//
// The encoding is fixed per model, so it is part of the model's scoring
// plan (chunk.go). sigMemo packs those codes into one mixed-radix uint64
// per row and caches the complete per-row finding set per distinct
// signature, so a repeated row costs one encode + one table probe instead
// of a full descent through every attribute model. Rows with a signature
// never seen before are scored by the regular kernels (restricted to just
// those rows) and their result is inserted, so output is byte-identical
// to the unmemoized path regardless of hit pattern — the differential
// suite exercises exactly that.
//
// The memo is only sound when every attribute model is a rule set:
// families that consume raw numeric values (naive Bayes densities, kNN
// distances) are not rank-invariant, and the model's scoring plan leaves
// the memo disabled for them — the code picks the path from the
// classifier types. It earns its place: forced off, table_batch measured
// audit_p50_ms 32.2 → 35.4 and rows_per_s −6 %, and the memo won 4 of 5
// pairs there and on csv_stream.

// memoMaxEntries bounds the cache (and its finding arena) on
// high-cardinality data; once full, unseen signatures simply keep taking
// the kernel path, every row of them.
const memoMaxEntries = 1 << 16

// memoEntry is one cached per-row outcome: a segment of the memo's
// finding arena. A pending entry, one the current chunk added, has no
// segment yet: its off names the chunk row that scores it.
type memoEntry struct {
	off, n int32
}

// sigMemo is the per-scratch signature cache: the mutable tables over a
// model's signature encoding, which lives in the model's scorePlan. Not
// safe for concurrent use — like the rest of ChunkScratch it is
// per-worker state. Under a plan whose memo is off it answers nothing:
// lookup returns every row as a miss.
type sigMemo struct {
	plan *scorePlan // the plan the tables belong to

	keys    []uint64    // open-addressed signature table
	vals    []int32     // entry index per slot, -1 = empty
	shift   uint        // fibonacci-hash shift for the current table size
	entries []memoEntry // entries[done:] are pending
	done    int
	arena   []Finding

	sig  []uint64 // per-chunk row signatures
	bad  []bool   // per-chunk: row had an out-of-domain code, never memoize
	hit  []int32  // per-chunk: entry answering the row, -1 = kernel row
	miss []int32  // per-chunk: rows that need the kernel path
}

// buildSignature derives the signature encoding from the model, enabling
// the memo only when every attribute model is a rule set (so the rank
// grids provably cover every comparison) and the combined code space fits
// a uint64 signature.
func (p *scorePlan) buildSignature(m *Model) {
	width := m.Schema.Len()
	thresholds := make([][]float64, width)
	// m.Attrs is position-indexed (a model may audit fewer attributes than
	// the schema holds); key the per-column discretizers by Class.
	discByClass := make([]*stats.Discretizer, width)
	for _, am := range m.Attrs {
		discByClass[am.Class] = am.Disc
		rs, isRS := am.Classifier.(*audittree.RuleSet)
		if !isRS {
			return
		}
		rs.NumericSplits(func(attr int, thresh float64) {
			thresholds[attr] = append(thresholds[attr], thresh)
		})
	}
	radix := make([]uint64, width)
	isNom := make([]bool, width)
	ranks := make([]rankIndex, width)
	product := uint64(1)
	for c := 0; c < width; c++ {
		if m.Schema.Attr(c).Type == dataset.NominalType {
			isNom[c] = true
			// Codes 0 (null) .. domain (last index).
			radix[c] = uint64(len(m.Schema.Attr(c).Domain)) + 1
		} else {
			grid := thresholds[c]
			if disc := discByClass[c]; disc != nil {
				grid = append(grid, disc.Cuts...)
			}
			sort.Float64s(grid)
			grid = dedupFloats(grid)
			ranks[c] = newRankIndex(grid)
			// Codes 0..len(grid) (ranks), len+1 (NaN), len+2 (null).
			radix[c] = uint64(len(grid)) + 3
		}
		if radix[c] == 0 || product > (1<<62)/radix[c] {
			return // signature would overflow; leave the memo disabled
		}
		product *= radix[c]
	}
	p.memo, p.radix, p.isNom, p.ranks = true, radix, isNom, ranks
}

// rankBuckets is the uniform-bucket count of a rankIndex. 256 int32
// starts per numeric attribute stay L1-resident.
const rankBuckets = 256

// rankIndex computes rank(v) = |{g in grid : g < v}| — the number the
// signature encodes for a numeric value. A uniform bucket grid over
// [grid[0], grid[len-1]] narrows the candidate range to (usually) zero or
// one comparison per lookup; the mapping from value to bucket is monotone,
// so scanning from start[b] to start[b+1] is exact, not approximate.
type rankIndex struct {
	grid  []float64
	lo    float64
	scale float64 // 0 disables the buckets (tiny or degenerate grid)
	start []int32 // rankBuckets+1 first-grid-index-per-bucket offsets
}

func newRankIndex(grid []float64) rankIndex {
	ri := rankIndex{grid: grid}
	if len(grid) < 2 || grid[len(grid)-1] <= grid[0] {
		return ri
	}
	ri.lo = grid[0]
	ri.scale = float64(rankBuckets-1) / (grid[len(grid)-1] - grid[0])
	ri.start = make([]int32, rankBuckets+1)
	i := 0
	for b := 0; b <= rankBuckets; b++ {
		for i < len(grid) && ri.bucket(grid[i]) < b {
			i++
		}
		ri.start[b] = int32(i)
	}
	return ri
}

// bucket maps a non-NaN value to its bucket, clamping before the
// float-to-int conversion (out-of-range conversions are undefined).
func (ri *rankIndex) bucket(v float64) int {
	t := (v - ri.lo) * ri.scale
	if t <= 0 {
		return 0
	}
	if t >= rankBuckets-1 {
		return rankBuckets - 1
	}
	return int(t)
}

// rank returns |{g in grid : g < v}| for a non-NaN v.
func (ri *rankIndex) rank(v float64) int {
	if ri.scale == 0 {
		r := 0
		for r < len(ri.grid) && ri.grid[r] < v {
			r++
		}
		return r
	}
	b := ri.bucket(v)
	i := int(ri.start[b])
	end := int(ri.start[b+1])
	for i < end && ri.grid[i] < v {
		i++
	}
	return i
}

// dedupFloats removes adjacent duplicates from a sorted slice in place.
func dedupFloats(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// encode fills the per-row signatures for the chunk, columnar per
// attribute. A row whose nominal code falls outside the attribute's
// domain (possible only for chunks built outside the validated decode
// path) is flagged bad: it still scores through the kernels but is never
// looked up or inserted, so a malformed code can't alias another row's
// cached outcome.
func (mm *sigMemo) encode(ck *dataset.ColumnChunk, p *scorePlan) {
	n := ck.Rows()
	if cap(mm.sig) < n {
		mm.sig = make([]uint64, n)
		mm.bad = make([]bool, n)
	}
	sig := mm.sig[:n]
	bad := mm.bad[:n]
	for r := range sig {
		sig[r] = 0
		bad[r] = false
	}
	for c, rad := range p.radix {
		col := ck.Col(c)
		if p.isNom[c] {
			noms := col.Nom
			for r := 0; r < n; r++ {
				// Nulls are stored as -1, so +1 maps the column onto
				// 0..domain without a bitmap load.
				code := uint64(noms[r] + 1)
				if code >= rad {
					bad[r] = true
					code = 0
				}
				sig[r] = sig[r]*rad + code
			}
		} else {
			ri := &p.ranks[c]
			nan := uint64(len(ri.grid)) + 1
			null := nan + 1
			nums := col.Num
			grid, start, lo, scale := ri.grid, ri.start, ri.lo, ri.scale
			for r := 0; r < n; r++ {
				var code uint64
				if col.Null(r) {
					code = null
				} else if v := nums[r]; v != v {
					// A genuine NaN value: distinct from null (the
					// observed-class bin differs) and from any rank (it
					// fails both sides of every threshold).
					code = nan
				} else if scale != 0 {
					// rankIndex.rank, inlined for the hot loop.
					t := (v - lo) * scale
					b := 0
					if t >= rankBuckets-1 {
						b = rankBuckets - 1
					} else if t > 0 {
						b = int(t)
					}
					i := int(start[b])
					end := int(start[b+1])
					for i < end && grid[i] < v {
						i++
					}
					code = uint64(i)
				} else {
					code = uint64(ri.rank(v))
				}
				sig[r] = sig[r]*rad + code
			}
		}
	}
}

// lookup returns the chunk rows that need the kernel path, recording per
// row the entry that answers it (hit), -1 for none. A signature new to the
// memo goes in as a pending entry naming its first row, which the kernels
// score; later rows of the chunk with that signature hit the pending
// entry and copy that row's freshly scored segment, and commit hands the
// entry its findings once the reports are assembled. Bad rows are always
// returned and never entered — their signatures are unreliable. A
// disabled memo returns every row, with none hit.
func (mm *sigMemo) lookup(ck *dataset.ColumnChunk, p *scorePlan) []int32 {
	n := ck.Rows()
	if cap(mm.hit) < n {
		mm.hit = make([]int32, n)
		mm.miss = make([]int32, 0, n)
	}
	mm.hit = mm.hit[:n]
	mm.miss = mm.miss[:0]
	// The tables start afresh for another model's plan, and when pending
	// entries are left: the last chunk panicked before commit.
	if mm.plan != p || mm.done != len(mm.entries) {
		mm.plan, mm.done = p, 0
		mm.keys, mm.vals = nil, nil
		mm.entries, mm.arena = mm.entries[:0], mm.arena[:0]
		if p.memo {
			mm.grow(1 << 10)
		}
	}
	if p.memo {
		mm.encode(ck, p)
	}
	for r := 0; r < n; r++ {
		mm.hit[r] = -1
		if p.memo && !mm.bad[r] {
			i := mm.slot(mm.sig[r])
			if e := mm.vals[i]; e >= 0 {
				mm.hit[r] = e
				continue
			}
			if len(mm.entries) < memoMaxEntries {
				mm.keys[i], mm.vals[i] = mm.sig[r], int32(len(mm.entries))
				mm.entries = append(mm.entries, memoEntry{off: int32(r)})
				if len(mm.entries)*4 > len(mm.keys)*3 {
					mm.grow(len(mm.keys) * 2)
				}
			}
		}
		mm.miss = append(mm.miss, int32(r))
	}
	return mm.miss
}

// outcome returns entry e's findings: its arena segment or, while it is
// pending, the segment of the chunk row that scored it.
func (mm *sigMemo) outcome(e int32, reps []RecordReport) []Finding {
	en := mm.entries[e]
	if int(e) >= mm.done {
		return reps[en.off].Findings
	}
	return mm.arena[en.off : en.off+en.n]
}

// commit gives the chunk's pending entries the findings their rows were
// assembled with, so identical rows later in the table (or stream) hit.
func (mm *sigMemo) commit(reps []RecordReport) {
	for e := mm.done; e < len(mm.entries); e++ {
		f := reps[mm.entries[e].off].Findings
		mm.entries[e] = memoEntry{off: int32(len(mm.arena)), n: int32(len(f))}
		mm.arena = append(mm.arena, f...)
	}
	mm.done = len(mm.entries)
}

// slot returns the table slot holding sig, or the empty slot it goes in.
func (mm *sigMemo) slot(sig uint64) uint64 {
	mask := uint64(len(mm.keys) - 1)
	i := (sig * 0x9E3779B97F4A7C15) >> mm.shift
	for mm.vals[i] >= 0 && mm.keys[i] != sig {
		i = (i + 1) & mask
	}
	return i
}

// grow rehashes the table into a larger power-of-two size.
func (mm *sigMemo) grow(size int) {
	oldKeys, oldVals := mm.keys, mm.vals
	mm.keys = make([]uint64, size)
	mm.vals = make([]int32, size)
	for i := range mm.vals {
		mm.vals[i] = -1
	}
	mm.shift = 64 - uint(bits.Len64(uint64(size-1)))
	mask := uint64(size - 1)
	for i, v := range oldVals {
		if v < 0 {
			continue
		}
		k := oldKeys[i]
		j := (k * 0x9E3779B97F4A7C15) >> mm.shift
		for mm.vals[j] >= 0 {
			j = (j + 1) & mask
		}
		mm.keys[j], mm.vals[j] = k, v
	}
}
