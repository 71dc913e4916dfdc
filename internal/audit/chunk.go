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
// takes one path through a ColumnChunk: the signature memo answers the
// rows it has seen (sigmemo.go), each attribute then scores the rest in
// one pass (batched trie descent for rule sets, reading each matched
// rule's finding from the model's scoring plan, and a per-row PredictInto
// loop for every other family), and one assembly pass in row order builds
// the reports. They are byte-identical to the row path's — the
// differential suite in columnar_diff_test.go holds both paths to that.

// batchChunkRows is the largest block the table feed hands CheckChunk.
const batchChunkRows = 4096

// scorePlan is what scoring derives from a model once and never changes,
// so no scratch re-derives it per call: the signature memo's encoding
// (sigmemo.go) and, since under Definition 7 a rule set's finding depends
// only on the matched rule and the observed class, each such finding.
type scorePlan struct {
	// findings[ai], for a rule-set attribute, holds rule r's finding for
	// observed class obs (-1 null) at r*(K+1)+obs+1; a zero ErrorConf
	// means none. Nil for every other family.
	findings [][]Finding

	// The signature encoding. memo is false when the memo answers nothing
	// (a family that is not a rule set, or a signature wider than 64
	// bits); the other three are then nil.
	memo  bool
	radix []uint64    // per attribute: size of its code domain
	isNom []bool      // per attribute: nominal (domain-index) encoding
	ranks []rankIndex // per numeric attribute: its rank index
}

// plan returns the model's scoring plan, building it on first use. A
// build that panics stores nothing, so no caller sees half a plan.
func (m *Model) plan() *scorePlan {
	if p := m.scoring.Load(); p != nil {
		return p
	}
	m.scoringMu.Lock()
	defer m.scoringMu.Unlock()
	if p := m.scoring.Load(); p != nil {
		return p
	}
	p := &scorePlan{findings: make([][]Finding, len(m.Attrs))}
	for ai, am := range m.Attrs {
		rs, ok := am.Classifier.(*audittree.RuleSet)
		if !ok {
			continue
		}
		stride := am.K + 1
		p.findings[ai] = make([]Finding, len(rs.Rules)*stride)
		for r := range rs.Rules {
			for obs := -1; obs < am.K; obs++ {
				if f, ok := am.deviation(&rs.Rules[r].Dist, obs, m.Opts.ConfLevel); ok {
					p.findings[ai][r*stride+obs+1] = f
				}
			}
		}
	}
	p.buildSignature(m)
	m.scoring.Store(p)
	return p
}

// ChunkScratch is the per-worker reusable state of the columnar scoring
// path: partition slabs for the batched trie descent, the per-row
// kernel's row and prediction buffers, the hit/finding/report arenas and
// the signature memo's tables. Like ScoreScratch, all buffers grow to the
// model's high-water mark once and are reused, so steady-state chunk
// scoring performs zero heap allocations. A ChunkScratch must not be
// shared between goroutines.
type ChunkScratch struct {
	match audittree.MatchScratch

	obs  []int32             // observed class per row (discretized attrs)
	row  []dataset.Value     // gather buffer (per-row kernel)
	dist mlcore.Distribution // prediction buffer (per-row kernel)

	hits     []Finding // the kernels' findings, in the order they found them
	hitAt    []int32   // per (kernel row, model attribute): index into hits, -1 none
	findings []Finding // row-major findings arena the reports slice into
	reports  []RecordReport

	memo sigMemo // row-signature outcome cache (see sigmemo.go)
}

// NewChunkScratch returns an empty scratch for scoring m; buffers grow
// on first use. The scratch holds nothing of m itself, so it may go on to
// score another model.
func NewChunkScratch(m *Model) *ChunkScratch { return &ChunkScratch{} }

// growInt32 returns buf resized to n, reallocating only past the
// high-water mark.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// addHit records f as model attribute ai's finding for chunk row r.
func (s *ChunkScratch) addHit(m *Model, r int32, ai int, f Finding) {
	s.hitAt[int(r)*len(m.Attrs)+ai] = int32(len(s.hits))
	s.hits = append(s.hits, f)
}

// observed returns the observed class index per chunk row for the
// attribute (-1 at nulls) — ClassIndex, columnarized. Nominal class
// columns are returned without copying (the chunk already stores -1 at
// nulls); discretized ones are binned into the scratch's obs buffer at
// the listed rows only (the rest of the buffer is stale garbage the
// caller must not read).
func (s *ChunkScratch) observed(am *AttrModel, ck *dataset.ColumnChunk, rows []int32) []int32 {
	col := ck.Col(am.Class)
	if am.Disc == nil {
		return col.Nom
	}
	s.obs = growInt32(s.obs, ck.Rows())
	// Manually inlined sort.SearchFloat64s (Bin's implementation): the
	// closure-free search saves a call per row, and the `cuts[mid] >= v`
	// comparison keeps NaN handling identical.
	cuts := am.Disc.Cuts
	for _, r := range rows {
		if col.Null(int(r)) {
			s.obs[r] = -1
			continue
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
	return s.obs
}

// ruleKernel scores the listed rows for one rule-set attribute via the
// batched trie descent, reading each row's finding from the plan's table
// for the attribute and recording a hit per deviating row.
func (s *ChunkScratch) ruleKernel(m *Model, ai int, am *AttrModel, rs *audittree.RuleSet, table []Finding, ck *dataset.ColumnChunk, rows []int32) {
	stride := am.K + 1
	obs := s.observed(am, ck, rows)
	for _, g := range rs.MatchRows(ck, rows, &s.match) {
		base := g.Rule * stride
		for _, r := range g.Rows {
			if f := &table[base+int(obs[r])+1]; f.ErrorConf > 0 {
				s.addHit(m, r, ai, *f)
			}
		}
	}
}

// rowKernel scores the listed rows for one attribute of every family but
// rule sets (naive Bayes, kNN, 1R, PRISM, plain C4.5 trees): gather each
// row out of the chunk and run the row path's prediction and the
// deviation test.
func (s *ChunkScratch) rowKernel(m *Model, ai int, am *AttrModel, ck *dataset.ColumnChunk, rows []int32) {
	width := ck.Schema().Len()
	if cap(s.row) < width {
		s.row = make([]dataset.Value, width)
	}
	row := s.row[:width]
	for _, r := range rows {
		ck.RowInto(int(r), row)
		am.Classifier.PredictInto(row, &s.dist)
		if f, ok := am.deviation(&s.dist, am.ClassIndex(row[am.Class]), m.Opts.ConfLevel); ok {
			s.addHit(m, r, ai, f)
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

// CheckChunk runs deviation detection for every row of the chunk. The
// signature memo answers the rows whose outcome it holds; each modelled
// attribute scores the others with its kernel (the trie for rule sets,
// the per-row loop otherwise); one pass in row order then assembles the
// reports. firstRow is the table/stream row index of chunk row 0 (reports
// carry absolute row numbers, like the row path's callers set).
//
// The returned reports — including their Findings slices and Best
// pointers — are backed by the scratch and valid only until the next
// CheckChunk call on it; callers that retain a report must Detach it.
// Every report is value-identical to what CheckRowScratch produces for
// the same row.
func (m *Model) CheckChunk(ck *dataset.ColumnChunk, firstRow int64, s *ChunkScratch) []RecordReport {
	n, na := ck.Rows(), len(m.Attrs)
	p := m.plan()
	memo := &s.memo
	kernelRows := memo.lookup(ck, p)

	// Attribute-major scoring of the rows the memo did not answer.
	s.hits = s.hits[:0]
	s.hitAt = growInt32(s.hitAt, n*na)
	for _, r := range kernelRows {
		at := s.hitAt[int(r)*na : int(r)*na+na]
		for i := range at {
			at[i] = -1
		}
	}
	for ai, am := range m.Attrs {
		if rs, ok := am.Classifier.(*audittree.RuleSet); ok {
			s.ruleKernel(m, ai, am, rs, p.findings[ai], ck, kernelRows)
		} else {
			s.rowKernel(m, ai, am, ck, kernelRows)
		}
	}

	// One pass in row order. A row's findings are its memo entry's (for
	// an entry still pending, those of the earlier row of this chunk that
	// scores it, already assembled), or its kernel hits in model-attribute
	// order — the order CheckRowScratch emits them in — and Best is the
	// first strict maximum over them, the row path's pick.
	if cap(s.reports) < n {
		s.reports = make([]RecordReport, n)
	}
	reps := s.reports[:n]
	// When an append outgrows the arena, earlier reports keep their
	// segments in the old array, which nothing writes to again.
	findings := s.findings[:0]
	for r := range reps {
		start := len(findings)
		if e := memo.hit[r]; e >= 0 {
			findings = append(findings, memo.outcome(e, reps)...)
		} else {
			for _, h := range s.hitAt[r*na : r*na+na] {
				if h >= 0 {
					findings = append(findings, s.hits[h])
				}
			}
		}
		rep := &reps[r]
		*rep = RecordReport{Row: int(firstRow) + r, ID: ck.ID(r)}
		if end := len(findings); end > start {
			rep.Findings = findings[start:end:end]
			for i := range rep.Findings {
				if f := &rep.Findings[i]; f.ErrorConf > rep.ErrorConf {
					rep.ErrorConf, rep.Best = f.ErrorConf, f
				}
			}
		}
		rep.Suspicious = rep.ErrorConf >= m.Opts.MinConfidence
	}
	s.findings = findings
	memo.commit(reps)
	return reps
}
