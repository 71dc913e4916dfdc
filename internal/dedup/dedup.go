// Package dedup implements exact and near-duplicate record detection —
// the uniqueness dimension's record-level detector, complementing the
// deviation detection of internal/audit with the duplicate pollution the
// ground-truth log has always recorded but nothing audited against.
//
// Exact duplicates are found by full-row hashing with cell-by-cell
// verification (a hash collision can never produce a false group). Near
// duplicates use blocking on a candidate key: rows are partitioned by the
// hash of their key attributes and only rows sharing a block are compared
// pairwise, with a leave-one-out pass per key attribute so a copy whose
// key was itself perturbed still lands in a common block. The candidate
// key is either supplied or discovered from the data with the Apriori
// machinery of internal/assoc (see discover.go).
//
// The detector consumes typed ColumnChunks, so it rides the same columnar
// ingestion path as the scoring core: any RowSource — CSV, JSONL, a
// table — feeds it without a row-form detour.
package dedup

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dataaudit/internal/dataset"
)

// Options configure detection.
type Options struct {
	// Key lists the blocking-key attributes for near-duplicate
	// detection. Nil discovers a key from the data (DiscoverKey).
	Key []int
	// Threshold is the minimal mean per-attribute similarity for two
	// blocked rows to count as near duplicates (default 0.85). With an
	// 8-attribute schema a single flipped nominal still scores 0.875,
	// so the default catches one-attribute perturbations. Set to 1 to
	// disable the near pass (exact detection only).
	Threshold float64
	// MaxBlock caps the rows of one block that enter the pairwise
	// comparison (default 512); Result.BlocksCapped counts the blocks
	// the cap truncated, so oversized blocks never fail silently.
	MaxBlock int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 0.85
	}
	if o.MaxBlock <= 0 {
		o.MaxBlock = 512
	}
	return o
}

// Group is one set of mutually duplicate records. The first member (the
// lowest row) is the canonical record; the rest are its duplicates.
type Group struct {
	// Rows are the member row positions in detection order, ascending;
	// IDs the corresponding record IDs.
	Rows []int
	IDs  []int64
	// Exact reports whether every member is cell-for-cell identical to
	// the canonical record.
	Exact bool
	// MinSimilarity is the smallest member-to-canonical similarity
	// (1 for exact groups).
	MinSimilarity float64
}

// Result is a full duplicate scan.
type Result struct {
	// Rows is the number of records scanned.
	Rows int
	// Key is the blocking key used for the near pass; KeyDiscovered
	// whether it came from DiscoverKey rather than Options.Key.
	Key           []int
	KeyDiscovered bool
	// Groups holds every duplicate group, ordered by canonical row.
	Groups []Group
	// ExactGroups / NearGroups split the group count; DuplicateRows
	// counts the non-canonical members across all groups.
	ExactGroups   int
	NearGroups    int
	DuplicateRows int
	// BlocksCapped counts blocks truncated to MaxBlock during the near
	// pass — when positive, coverage of the affected blocks is partial.
	BlocksCapped int
	// DetectTime is the wall time of Finalize.
	DetectTime time.Duration
}

// DuplicateRate is the fraction of scanned rows that are non-canonical
// group members.
func (r *Result) DuplicateRate() float64 {
	if r.Rows == 0 {
		return 0
	}
	return float64(r.DuplicateRows) / float64(r.Rows)
}

// Detector accumulates records from column chunks for a duplicate scan.
// Not safe for concurrent use.
type Detector struct {
	schema *dataset.Schema
	cols   []colData
	ids    []int64
	hashes []uint64 // full-row hashes, filled during Observe
	rows   int
}

// colData is one accumulated column in the chunk encoding: nominal
// domain indices with -1 at nulls, or float payloads with NaN at nulls.
type colData struct {
	nom     []int32
	num     []float64
	numLike bool
	span    float64 // Max-Min of a number-like attribute (0 if unbounded)
}

// NewDetector returns an empty detector over the schema.
func NewDetector(s *dataset.Schema) *Detector {
	d := &Detector{schema: s, cols: make([]colData, s.Len())}
	for c := range d.cols {
		a := s.Attr(c)
		if a.IsNumberLike() {
			d.cols[c].numLike = true
			if span := a.Max - a.Min; span > 0 {
				d.cols[c].span = span
			}
		}
	}
	return d
}

// Observe appends one chunk's rows to the detector.
func (d *Detector) Observe(ck *dataset.ColumnChunk) {
	n := ck.Rows()
	for c := range d.cols {
		col := ck.Col(c)
		if d.cols[c].numLike {
			d.cols[c].num = append(d.cols[c].num, col.Num[:n]...)
		} else {
			d.cols[c].nom = append(d.cols[c].nom, col.Nom[:n]...)
		}
	}
	for r := 0; r < n; r++ {
		d.ids = append(d.ids, ck.ID(r))
		d.hashes = append(d.hashes, dataset.HashChunkRow(ck, r, nil))
	}
	d.rows += n
}

// cellEqual reports exact cell equality (nulls equal nulls only).
func (d *Detector) cellEqual(c, a, b int) bool {
	col := &d.cols[c]
	if !col.numLike {
		return col.nom[a] == col.nom[b]
	}
	va, vb := col.num[a], col.num[b]
	return va == vb || (math.IsNaN(va) && math.IsNaN(vb))
}

// rowsEqual reports exact row equality.
func (d *Detector) rowsEqual(a, b int) bool {
	for c := range d.cols {
		if !d.cellEqual(c, a, b) {
			return false
		}
	}
	return true
}

// cellSimilarity scores one attribute pair in [0, 1]: nominal cells match
// or don't; number-like cells score by normalized distance over the
// attribute's declared range. Null-null pairs agree, null-value pairs
// don't.
func (d *Detector) cellSimilarity(c, a, b int) float64 {
	col := &d.cols[c]
	if !col.numLike {
		na, nb := col.nom[a], col.nom[b]
		if na == nb {
			return 1
		}
		return 0
	}
	va, vb := col.num[a], col.num[b]
	an, bn := math.IsNaN(va), math.IsNaN(vb)
	switch {
	case an && bn:
		return 1
	case an || bn:
		return 0
	case va == vb:
		return 1
	case col.span > 0:
		s := 1 - math.Abs(va-vb)/col.span
		if s < 0 {
			return 0
		}
		return s
	default:
		return 0
	}
}

// Similarity is the mean per-attribute similarity of two accumulated
// rows.
func (d *Detector) Similarity(a, b int) float64 {
	total := 0.0
	for c := range d.cols {
		total += d.cellSimilarity(c, a, b)
	}
	return total / float64(len(d.cols))
}

// hashKey hashes the key attributes of row r (detector-local hashing; no
// cross-representation contract needed here).
func (d *Detector) hashKey(r int, key []int, skip int) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, c := range key {
		if c == skip {
			continue
		}
		col := &d.cols[c]
		var cell uint64
		if col.numLike {
			cell = dataset.HashFloat(col.num[r])
		} else {
			cell = dataset.Mix64(uint64(col.nom[r]+1) + 0x9e37)
		}
		h = dataset.Mix64(h ^ dataset.Mix64(cell^dataset.Mix64(uint64(c)+1)))
	}
	return h
}

// Finalize runs the scan over the accumulated rows. The detector can be
// finalized repeatedly (e.g. with different options); it is left intact.
func (d *Detector) Finalize(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	res := &Result{Rows: d.rows}

	uf := newUnionFind(d.rows)

	// Exact pass: group by full-row hash in row order, verify cell by
	// cell before uniting, so collisions cannot fabricate duplicates.
	byHash := make(map[uint64][]int32, d.rows)
	for r := 0; r < d.rows; r++ {
		h := d.hashes[r]
		matched := false
		for _, rep := range byHash[h] {
			if d.rowsEqual(int(rep), r) {
				uf.union(int(rep), r)
				matched = true
				break
			}
		}
		if !matched {
			byHash[h] = append(byHash[h], int32(r))
		}
	}

	// Near pass: leave-one-out blocking over the key. Pass i blocks on
	// the key minus attribute i, so a copy differing from its source in
	// any single key attribute still shares a block with it in at least
	// one pass. A single-attribute key gets one pass over itself.
	if opts.Threshold < 1 && d.rows > 1 {
		key := opts.Key
		if key == nil {
			var err error
			key, err = d.DiscoverKey()
			if err != nil {
				return nil, err
			}
			res.KeyDiscovered = true
		}
		for _, c := range key {
			if c < 0 || c >= len(d.cols) {
				return nil, fmt.Errorf("dedup: key attribute %d outside the %d-attribute schema", c, len(d.cols))
			}
		}
		res.Key = key

		passes := key
		if len(key) < 2 {
			passes = []int{-1} // skip nothing: block on the whole key
		}
		for _, skip := range passes {
			blocks := make(map[uint64][]int32)
			for r := 0; r < d.rows; r++ {
				h := d.hashKey(r, key, skip)
				blocks[h] = append(blocks[h], int32(r))
			}
			for _, members := range blocks {
				if len(members) > opts.MaxBlock {
					res.BlocksCapped++
					members = members[:opts.MaxBlock]
				}
				for i := 0; i < len(members); i++ {
					for j := i + 1; j < len(members); j++ {
						a, b := int(members[i]), int(members[j])
						if uf.find(a) == uf.find(b) {
							continue
						}
						if d.Similarity(a, b) >= opts.Threshold {
							uf.union(a, b)
						}
					}
				}
			}
		}
	} else if opts.Key != nil {
		res.Key = opts.Key
	}

	// Assemble groups: members keyed by their root (the lowest row of
	// the set, by the union rule), canonical member first.
	members := make(map[int][]int)
	for r := 0; r < d.rows; r++ {
		members[uf.find(r)] = append(members[uf.find(r)], r)
	}
	roots := make([]int, 0, len(members))
	for root, rows := range members {
		if len(rows) > 1 {
			roots = append(roots, root)
		}
	}
	sort.Ints(roots)
	for _, root := range roots {
		rows := members[root]
		sort.Ints(rows)
		g := Group{Rows: rows, IDs: make([]int64, len(rows)), Exact: true, MinSimilarity: 1}
		for i, r := range rows {
			g.IDs[i] = d.ids[r]
			if i == 0 {
				continue
			}
			if !d.rowsEqual(rows[0], r) {
				g.Exact = false
			}
			if s := d.Similarity(rows[0], r); s < g.MinSimilarity {
				g.MinSimilarity = s
			}
		}
		if g.Exact {
			res.ExactGroups++
		} else {
			res.NearGroups++
		}
		res.DuplicateRows += len(rows) - 1
		res.Groups = append(res.Groups, g)
	}
	res.DetectTime = time.Since(start)
	return res, nil
}

// Detect scans a table: chunked accumulation, then Finalize.
func Detect(tab *dataset.Table, opts Options) (*Result, error) {
	return DetectSource(dataset.NewTableSource(tab), opts)
}

// DetectSource scans any row source chunk by chunk.
func DetectSource(src dataset.RowSource, opts Options) (*Result, error) {
	d := NewDetector(src.Schema())
	ck := dataset.NewColumnChunk(src.Schema())
	for {
		ck.Reset()
		n, err := src.NextChunk(ck, 4096)
		if n > 0 {
			d.Observe(ck)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
	}
	return d.Finalize(opts)
}

// unionFind is a disjoint-set forest whose union rule keeps the lowest
// member as the root, making group assembly deterministic.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for int(uf.parent[x]) != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = int(uf.parent[x])
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
}
