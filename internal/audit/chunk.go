package audit

import (
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// The columnar scoring core. CheckRowScratch dispatches per row: every
// record re-enters every classifier, re-copies its leaf distribution,
// re-scans it for the argmax and re-derives the Wilson bounds — even
// though all rows reaching the same rule share all of that. CheckChunk
// flips the loop: each attribute scores a whole ColumnChunk in one pass
// (batched trie descent for rule sets, a per-row PredictInto loop for
// every other family), and per-(rule, observed-class) findings are
// memoized, so the expensive confidence math runs once per distinct
// deviation instead of once per row. The produced reports are
// byte-identical to the row path's — the differential suite in
// columnar_diff_test.go holds both paths to that.

// batchChunkRows is the largest block the table feed hands CheckChunk.
const batchChunkRows = 4096

// chunkHit is one deviation found by an attribute kernel: the chunk row
// it belongs to plus the finished finding.
type chunkHit struct {
	row int32
	f   Finding
}

// ruleCache memoizes findings per (rule, observed class) for one
// attribute's RuleSet. Valid because a rule-set prediction is fully
// determined by the matched rule: every row pair (rule, obs) yields the
// same finding (or none).
type ruleCache struct {
	rs     *audittree.RuleSet // cache identity: rebuilt when the model changes
	stride int                // K+1 slots per rule (observed class -1..K-1)
	state  []uint8            // 0 unknown, 1 no finding, 2 finding cached
	find   []Finding
}

// reset re-keys the cache to a rule set, clearing all entries.
func (c *ruleCache) reset(rs *audittree.RuleSet, k int) {
	c.rs, c.stride = rs, k+1
	n := len(rs.Rules) * c.stride
	if cap(c.state) < n {
		c.state = make([]uint8, n)
		c.find = make([]Finding, n)
	} else {
		c.state = c.state[:n]
		c.find = c.find[:n]
		for i := range c.state {
			c.state[i] = 0
		}
	}
}

// fill computes and caches the slot's finding (or that there is none).
func (c *ruleCache) fill(am *AttrModel, rule, obs, slot int, confLevel float64) uint8 {
	st := uint8(1)
	if f, ok := am.deviation(&c.rs.Rules[rule].Dist, obs, confLevel); ok {
		c.find[slot] = f
		st = 2
	}
	c.state[slot] = st
	return st
}

// ChunkScratch is the per-worker reusable state of the columnar scoring
// path: partition slabs for the batched trie descent, the finding caches,
// the per-row kernel's row and prediction buffers, and the
// hit/finding/report arenas.
// Like ScoreScratch, all buffers grow to the model's high-water mark once
// and are reused, so steady-state chunk scoring performs zero heap
// allocations. A ChunkScratch must not be shared between goroutines.
type ChunkScratch struct {
	match  audittree.MatchScratch
	caches []ruleCache // one per model attribute (only rule sets use theirs)

	obs  []int32             // observed class per row (discretized attrs)
	row  []dataset.Value     // gather buffer (per-row kernel)
	dist mlcore.Distribution // prediction buffer (per-row kernel)

	hits     []chunkHit // attr-major deviation arena
	rowStart []int32    // per-row segment start in the findings arena
	cursor   []int32    // per-row write cursor (ends at the segment end)
	bestSlot []int32    // per-row arena index of the best finding (-1)
	findings []Finding  // row-major findings arena the reports slice into
	reports  []RecordReport

	memo sigMemo // row-signature outcome cache (see sigmemo.go)
}

// NewChunkScratch returns an empty scratch; buffers grow on first use.
func NewChunkScratch(m *Model) *ChunkScratch {
	return &ChunkScratch{caches: make([]ruleCache, len(m.Attrs))}
}

// growInt32 returns buf resized to n, reallocating only past the
// high-water mark.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// observed returns the observed class index per chunk row for the
// attribute (-1 at nulls) — ClassIndex, columnarized. Nominal class
// columns are returned without copying (the chunk already stores -1 at
// nulls); discretized ones are binned into the scratch's obs buffer.
// When rows is non-nil only those positions are filled (the rest of the
// buffer is stale garbage the caller must not read).
func (s *ChunkScratch) observed(am *AttrModel, ck *dataset.ColumnChunk, rows []int32) []int32 {
	col := ck.Col(am.Class)
	if am.Disc == nil {
		return col.Nom
	}
	n := ck.Rows()
	s.obs = growInt32(s.obs, n)
	// Manually inlined sort.SearchFloat64s (Bin's implementation): the
	// closure-free search saves a call per row, and the `cuts[mid] >= v`
	// comparison keeps NaN handling identical.
	cuts := am.Disc.Cuts
	bin := func(r int) {
		if col.Null(r) {
			s.obs[r] = -1
			return
		}
		v := col.Num[r]
		lo, hi := 0, len(cuts)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cuts[mid] >= v {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		s.obs[r] = int32(lo)
	}
	if rows != nil {
		for _, r := range rows {
			bin(int(r))
		}
	} else {
		for r := 0; r < n; r++ {
			bin(r)
		}
	}
	return s.obs
}

// ruleKernel scores one rule-set attribute via the batched trie descent,
// appending a hit per deviating row. rows == nil scores the whole chunk;
// otherwise only the listed rows (the signature-memo miss set).
func (s *ChunkScratch) ruleKernel(m *Model, ai int, am *AttrModel, rs *audittree.RuleSet, ck *dataset.ColumnChunk, rows []int32) {
	var groups []audittree.MatchGroup
	if rows != nil {
		groups = rs.MatchRows(ck, rows, &s.match)
	} else {
		groups = rs.MatchBlock(ck, &s.match)
	}
	cache := &s.caches[ai]
	if cache.rs != rs || cache.stride != am.K+1 {
		cache.reset(rs, am.K)
	}
	obs := s.observed(am, ck, rows)
	for _, g := range groups {
		base := g.Rule * cache.stride
		for _, r := range g.Rows {
			slot := base + int(obs[r]) + 1
			st := cache.state[slot]
			if st == 0 {
				st = cache.fill(am, g.Rule, int(obs[r]), slot, m.Opts.ConfLevel)
			}
			if st == 2 {
				s.hits = append(s.hits, chunkHit{row: r, f: cache.find[slot]})
			}
		}
	}
}

// rowKernel scores one attribute of every family but rule sets (naive
// Bayes, kNN, 1R, PRISM, plain C4.5 trees): gather each row out of the
// chunk and run the row path's prediction and the deviation test.
func (s *ChunkScratch) rowKernel(m *Model, am *AttrModel, ck *dataset.ColumnChunk) {
	n := ck.Rows()
	width := ck.Schema().Len()
	if cap(s.row) < width {
		s.row = make([]dataset.Value, width)
	}
	row := s.row[:width]
	for r := 0; r < n; r++ {
		ck.RowInto(r, row)
		am.Classifier.PredictInto(row, &s.dist)
		if f, ok := am.deviation(&s.dist, am.ClassIndex(row[am.Class]), m.Opts.ConfLevel); ok {
			s.hits = append(s.hits, chunkHit{row: int32(r), f: f})
		}
	}
}

// detachReports copies scratch-backed chunk reports into dst (same
// length) as self-contained values. It is Detach amortized over the
// chunk: all findings land in one shared arena (one allocation per chunk
// instead of one per deviating row), with each report's slice
// cap-clamped to its own segment and Best re-pointed into it. The
// resulting reports are value-identical to per-report Detach output.
func detachReports(reps []RecordReport, dst []RecordReport) {
	total := 0
	for i := range reps {
		total += len(reps[i].Findings)
	}
	var arena []Finding
	if total > 0 {
		arena = make([]Finding, 0, total)
	}
	for i := range reps {
		rep := reps[i]
		if n := len(rep.Findings); n > 0 {
			start := len(arena)
			arena = append(arena, rep.Findings...)
			rep.Findings = arena[start : start+n : start+n]
			rep.RepointBest()
		}
		dst[i] = rep
	}
}

// CheckChunk runs deviation detection for every row of the chunk,
// attribute-major: each modelled attribute scores the whole block with
// its kernel (the trie for rule sets, the per-row loop otherwise), then
// the per-attribute hits are scattered into per-row reports. firstRow is
// the table/stream row index of chunk row 0 (reports carry absolute row
// numbers, like the row path's callers set).
//
// The returned reports — including their Findings slices and Best
// pointers — are backed by the scratch and valid only until the next
// CheckChunk call on it; callers that retain a report must Detach it.
// Every report is value-identical to what CheckRowScratch produces for
// the same row.
func (m *Model) CheckChunk(ck *dataset.ColumnChunk, firstRow int64, s *ChunkScratch) []RecordReport {
	n := ck.Rows()
	if len(s.caches) < len(m.Attrs) {
		s.caches = make([]ruleCache, len(m.Attrs))
	}
	s.hits = s.hits[:0]

	// Signature memoization: when the model qualifies, look every row up
	// by its encoded signature and run the kernels only for rows whose
	// signature has not been scored before (nil kernelRows = all rows,
	// the memo-disabled path).
	memo := &s.memo
	if !memo.built || memo.model != m {
		memo.build(m)
	}
	var kernelRows []int32
	useMemo := memo.ok
	if useMemo {
		memo.encode(ck)
		kernelRows = memo.probe(n)
	}

	// Attribute-major scoring. Kernels append hits per attribute, so for
	// any row the arena holds its findings in model-attribute order —
	// the order CheckRowScratch emits them in. (Under the memo, build
	// guaranteed every attribute is a rule set, so only ruleKernel runs
	// and the row subset is always honored.)
	if !useMemo || len(kernelRows) > 0 {
		for ai, am := range m.Attrs {
			switch clf := am.Classifier.(type) {
			case *audittree.RuleSet:
				s.ruleKernel(m, ai, am, clf, ck, kernelRows)
			default:
				s.rowKernel(m, am, ck)
			}
		}
	}

	// Counting scatter: per-row finding counts → contiguous per-row
	// segments in one findings arena, preserving the attr-major order
	// within each row's segment. Memo-hit rows take their count from the
	// cached entry; kernel-scored rows from their hits.
	s.rowStart = growInt32(s.rowStart, n)
	s.cursor = growInt32(s.cursor, n)
	s.bestSlot = growInt32(s.bestSlot, n)
	if useMemo {
		for r := 0; r < n; r++ {
			if e := memo.hit[r]; e >= 0 {
				s.cursor[r] = memo.entries[e].n
			} else {
				s.cursor[r] = 0
			}
			s.bestSlot[r] = -1
		}
	} else {
		for r := 0; r < n; r++ {
			s.cursor[r] = 0
			s.bestSlot[r] = -1
		}
	}
	for i := range s.hits {
		s.cursor[s.hits[i].row]++
	}
	if useMemo {
		// A row aliased to an earlier in-chunk miss has the same outcome,
		// so the same count. The representative always precedes it and is
		// never itself aliased, so its count is final here.
		for r := 0; r < n; r++ {
			if p := memo.rep[r]; p >= 0 {
				s.cursor[r] = s.cursor[p]
			}
		}
	}
	off := int32(0)
	for r := 0; r < n; r++ {
		c := s.cursor[r]
		s.rowStart[r] = off
		s.cursor[r] = off
		off += c
	}
	total := int(off)
	if cap(s.findings) < total {
		s.findings = make([]Finding, total)
	}
	findings := s.findings[:total]

	if cap(s.reports) < n {
		s.reports = make([]RecordReport, n)
	}
	reps := s.reports[:n]
	for r := 0; r < n; r++ {
		reps[r] = RecordReport{Row: int(firstRow) + r, ID: ck.ID(r)}
	}

	// Copy cached outcomes for memo-hit rows.
	if useMemo {
		for r := 0; r < n; r++ {
			ei := memo.hit[r]
			if ei < 0 {
				continue
			}
			e := &memo.entries[ei]
			if e.n == 0 {
				continue
			}
			start := s.rowStart[r]
			copy(findings[start:start+e.n], memo.arena[e.off:e.off+e.n])
			s.cursor[r] = start + e.n
			s.bestSlot[r] = start + e.best
			reps[r].ErrorConf = findings[start+e.best].ErrorConf
		}
	}

	for i := range s.hits {
		h := &s.hits[i]
		slot := s.cursor[h.row]
		s.cursor[h.row] = slot + 1
		findings[slot] = h.f
		rep := &reps[h.row]
		// Same first-strict-max best selection as the row path; hits for
		// one row arrive in model-attribute order.
		if h.f.ErrorConf > rep.ErrorConf {
			rep.ErrorConf = h.f.ErrorConf
			s.bestSlot[h.row] = slot
		}
	}

	// Alias-copy pass: duplicate-signature rows take their representative's
	// freshly scored segment (the scatter above has completed it).
	if useMemo {
		for r := 0; r < n; r++ {
			p := memo.rep[r]
			if p < 0 {
				continue
			}
			start, pstart, pend := s.rowStart[r], s.rowStart[int(p)], s.cursor[int(p)]
			if cnt := pend - pstart; cnt > 0 {
				copy(findings[start:start+cnt], findings[pstart:pend])
				s.cursor[r] = start + cnt
				s.bestSlot[r] = start + (s.bestSlot[int(p)] - pstart)
				reps[r].ErrorConf = reps[p].ErrorConf
			}
		}
	}

	for r := 0; r < n; r++ {
		rep := &reps[r]
		start, end := s.rowStart[r], s.cursor[r]
		if end > start {
			rep.Findings = findings[start:end:end]
			rep.Best = &rep.Findings[s.bestSlot[r]-start]
		}
		rep.Suspicious = rep.ErrorConf >= m.Opts.MinConfidence
	}

	// Insert the freshly scored rows' outcomes so identical rows later in
	// the table (or stream) take the hit path.
	if useMemo {
		for _, r := range kernelRows {
			if memo.bad[r] || memo.find(memo.sig[r]) >= 0 {
				continue // unmemoizable (probe deduped the rest)
			}
			bestRel := int32(-1)
			if s.bestSlot[r] >= 0 {
				bestRel = s.bestSlot[r] - s.rowStart[r]
			}
			memo.remember(memo.sig[r], findings[s.rowStart[r]:s.cursor[r]], bestRel)
		}
	}
	return reps
}
