package audittree

import (
	"dataaudit/internal/dataset"
)

// The columnar matcher. MatchRows descends the compiled trie once per
// *block* of chunk rows instead of once per row: at every split the row set is
// partitioned over typed column vectors (a two-way scatter for numeric
// thresholds, a counting scatter for nominal splits), so the per-row cost
// is one comparison per trie level with no Value unboxing and no per-row
// call dispatch. Rows reaching the same leaf come back as one MatchGroup,
// which lets the scorer compute the leaf's finding once and reuse it for
// every row in the group.

// MatchGroup is one leaf's worth of matched rows: the rule index and the
// chunk-row indices that reached it. Rows is backed by the MatchScratch
// and valid until the next MatchRows call on the same scratch.
type MatchGroup struct {
	Rule int
	Rows []int32
}

// MatchScratch holds the per-depth partition buffers MatchRows reuses
// across calls. The zero value is ready to use; after a warm-up call the
// matcher allocates nothing.
type MatchScratch struct {
	levels [][]int32 // one row-index slab per trie depth
	counts [][]int32 // per-depth counting-scatter histogram
	groups []MatchGroup
	out    []int32 // group-row arena; slab segments are copied here at
	// the leaves because a sibling subtree reuses (and overwrites) the
	// same-depth slab after the group was recorded
}

// level returns the depth-d slab with capacity for n rows.
func (s *MatchScratch) level(d, n int) []int32 {
	for len(s.levels) <= d {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[d]) < n {
		s.levels[d] = make([]int32, n)
	}
	return s.levels[d][:n]
}

// zeroCounts returns the depth-d histogram of length n, zeroed.
func (s *MatchScratch) zeroCounts(d, n int) []int32 {
	for len(s.counts) <= d {
		s.counts = append(s.counts, nil)
	}
	if cap(s.counts[d]) < n {
		s.counts[d] = make([]int32, n)
	}
	c := s.counts[d][:n]
	for i := range c {
		c[i] = 0
	}
	return c
}

// MatchRows matches the listed chunk rows against the compiled trie and
// returns one group per matched leaf (row order within a group is
// unspecified; a row appears in at most one group). Rows matching no rule
// appear in no group — exactly the rows for which the row path would
// predict an empty distribution. The groups (and their Rows) are backed by
// the scratch and valid until the next MatchRows call on it. The rows
// slice is read but never written or retained.
func (rs *RuleSet) MatchRows(ck *dataset.ColumnChunk, rows []int32, s *MatchScratch) []MatchGroup {
	s.groups = s.groups[:0]
	if len(rows) == 0 {
		return s.groups
	}
	// Every row lands in at most one group, so len(rows) capacity removes
	// all arena growth from the walk.
	if cap(s.out) < len(rows) {
		s.out = make([]int32, 0, len(rows))
	} else {
		s.out = s.out[:0]
	}
	matchBlock(rs.root(), ck, rows, 0, s)
	return s.groups
}

// NumericSplits calls visit for every numeric threshold comparison the
// compiled matcher can perform, with the attribute it tests — the
// exhaustive set a caller needs to build a value grid that is
// decision-equivalent to the raw column.
func (rs *RuleSet) NumericSplits(visit func(attr int, thresh float64)) {
	var walk func(t *trieNode)
	walk = func(t *trieNode) {
		if t == nil || t.rule >= 0 {
			return
		}
		if t.isNumeric {
			visit(t.attr, t.thresh)
			walk(t.le)
			walk(t.gt)
			return
		}
		for _, c := range t.nom {
			walk(c)
		}
	}
	walk(rs.root())
}

// smallGroupRows is the row count under which the partitioned descent
// switches to a per-row scalar walk: with only a handful of rows left,
// the per-node scatter setup (histogram zeroing, prefix sums, two passes)
// costs more than just walking each row down the remaining levels.
const smallGroupRows = 64

// matchBlock partitions rows over node's split and recurses. The depth-d
// slab holds the partition of the rows slice (which lives in the parent's
// slab, or the caller's for the root); a subtree only ever writes slabs deeper than its parent's, so
// the sibling's still-unread segment and every emitted group stay intact.
func matchBlock(t *trieNode, ck *dataset.ColumnChunk, rows []int32, depth int, s *MatchScratch) {
	if t.rule >= 0 {
		start := len(s.out)
		s.out = append(s.out, rows...)
		s.groups = append(s.groups, MatchGroup{Rule: t.rule, Rows: s.out[start:]})
		return
	}
	if len(rows) <= smallGroupRows {
		matchRowsScalar(t, ck, rows, s)
		return
	}
	col := ck.Col(t.attr)

	if t.isNumeric {
		// Two-way scatter: le rows grow from the front of the slab, gt
		// rows from the back. The chunk stores NaN at numeric nulls, and
		// NaN fails both threshold comparisons — so nulls, like genuine
		// NaN values, drop out without a null-bitmap load, mirroring
		// trieNode.match.
		nums := col.Num
		buf := s.level(depth, len(rows))
		li, gi := 0, len(rows)
		for _, r := range rows {
			f := nums[r]
			if f <= t.thresh {
				buf[li] = r
				li++
			} else if f > t.thresh {
				gi--
				buf[gi] = r
			}
		}
		if t.le != nil && li > 0 {
			matchBlock(t.le, ck, buf[:li], depth+1, s)
		}
		if t.gt != nil && gi < len(rows) {
			matchBlock(t.gt, ck, buf[gi:], depth+1, s)
		}
		return
	}

	// Nominal split: counting scatter into one contiguous segment per
	// tested domain value. The chunk stores -1 at nominal nulls, so the
	// unsigned bounds test drops nulls and out-of-range values alike
	// without a bitmap load. Values whose segment belongs to a nil child
	// are scattered too but never recursed into.
	nvals := len(t.nom)
	if nvals == 0 {
		return // dead branch: matches nothing
	}
	noms := col.Nom
	cnt := s.zeroCounts(depth, nvals)
	for _, r := range rows {
		if v := noms[r]; uint32(v) < uint32(nvals) {
			cnt[v]++
		}
	}
	buf := s.level(depth, len(rows))
	off := int32(0)
	for v := range cnt {
		c := cnt[v]
		cnt[v] = off // becomes the segment's write cursor
		off += c
	}
	for _, r := range rows {
		if v := noms[r]; uint32(v) < uint32(nvals) {
			buf[cnt[v]] = r
			cnt[v]++
		}
	}
	start := int32(0)
	for v := 0; v < nvals; v++ {
		end := cnt[v] // cursor has advanced to the segment end
		if end > start && t.nom[v] != nil {
			matchBlock(t.nom[v], ck, buf[start:end], depth+1, s)
		}
		start = end
	}
}

// matchRowsScalar finishes the descent row-at-a-time over the columns —
// the same tests as the partitioned path, minus the per-node setup.
// Matched rows become single-row groups (the scorer's finding cache
// makes group size irrelevant to the per-leaf amortization).
func matchRowsScalar(t *trieNode, ck *dataset.ColumnChunk, rows []int32, s *MatchScratch) {
	for _, r := range rows {
		n := t
		for n != nil && n.rule < 0 {
			col := ck.Col(n.attr)
			if n.isNumeric {
				f := col.Num[r]
				if f <= n.thresh {
					n = n.le
				} else if f > n.thresh {
					n = n.gt
				} else {
					n = nil // NaN (or the NaN null encoding) fails both
				}
			} else {
				if v := col.Nom[r]; uint32(v) < uint32(len(n.nom)) {
					n = n.nom[v]
				} else {
					n = nil
				}
			}
		}
		if n != nil {
			start := len(s.out)
			s.out = append(s.out, r)
			s.groups = append(s.groups, MatchGroup{Rule: n.rule, Rows: s.out[start:]})
		}
	}
}
