package audit

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dataaudit/internal/dataset"
)

// Streaming deviation detection. AuditTable and AuditTableParallel hold
// the whole relation (and one RecordReport per row) in memory, so audit
// memory grows linearly with input size. AuditStream instead feeds the
// scoring pipeline (pipeline.go) bounded chunks pulled from a
// dataset.RowSource and keeps of each only running counts, per-attribute
// deviation tallies and the top-K suspicious records. Peak memory is
// O(ChunkSize × Workers + TopK), independent of the number of rows — the
// §2.2 "check online" path at warehouse scale.

// ErrRowLimit is the sentinel wrapped by RowLimitError when a stream
// exceeds StreamOptions.MaxRows. Test with errors.Is.
var ErrRowLimit = errors.New("audit: row limit exceeded")

// RowLimitError reports a stream that was cut off at MaxRows; it wraps
// ErrRowLimit.
type RowLimitError struct {
	// Limit is the configured StreamOptions.MaxRows.
	Limit int64
}

func (e *RowLimitError) Error() string {
	return fmt.Sprintf("audit: stream exceeds the %d-row limit", e.Limit)
}

// Unwrap makes errors.Is(err, ErrRowLimit) true.
func (e *RowLimitError) Unwrap() error { return ErrRowLimit }

// StreamOptions configure AuditStream.
type StreamOptions struct {
	// ChunkSize is the number of rows per scoring unit (default 1024).
	// Smaller chunks bound memory tighter; larger chunks amortize fan-out
	// overhead.
	ChunkSize int
	// Workers is the scoring pool size (default runtime.NumCPU, the same
	// meaning as AuditTableParallel's workers argument).
	Workers int
	// TopK caps the suspicious records retained in StreamResult.Top
	// (default 100). TopK < 0 retains every suspicious record — then
	// memory is bounded by the number of suspicious rows, not by K.
	TopK int
	// MaxRows, when positive, aborts the stream with a RowLimitError once
	// more than MaxRows rows arrive — the serving layer's batch limit.
	MaxRows int64
	// OnSuspicious, when non-nil, is called for every suspicious record in
	// row order, as soon as the record's chunk is scored — the hook the
	// NDJSON streaming endpoint emits findings through while the upload is
	// still being read. Returning an error aborts the stream with that
	// error. The report (and its findings) must not be retained.
	OnSuspicious func(rep *RecordReport) error
	// OnChunkFolded, when non-nil, is called once a scored unit's
	// suspicious records have all gone through OnSuspicious, and only for
	// a unit that had at least one — the point where the streaming
	// endpoint flushes the report lines it has written. Returning an error
	// aborts the stream with that error.
	OnChunkFolded func() error
	// OnRow, when non-nil, is called for every row pulled from the
	// source, one call at a time and in source order — the hook the
	// monitoring layer samples rows through (e.g. into a re-induction
	// reservoir). It runs in the pipeline's in-order fold, not on the
	// goroutine that called AuditStream: a unit's rows are offered after
	// the unit is scored and before its suspicious records reach
	// OnSuspicious. The row buffer is recycled between calls and must be
	// copied if retained.
	OnRow func(row []dataset.Value, id int64)
}

// withDefaults fills unset fields.
func (o StreamOptions) withDefaults() StreamOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1024
	}
	if o.TopK == 0 {
		o.TopK = 100
	}
	return o
}

// AttrTally accumulates the deviations one audited attribute produced over
// a stream — the per-attribute view a batch Result offers by scanning all
// reports, maintained incrementally here.
type AttrTally struct {
	// Attr is the audited schema column (resolve its name with
	// Schema.Attr(Attr)). The tally slice itself is ordered like
	// Model.Attrs — only modelled attributes are tallied.
	Attr int
	// Deviations counts findings with positive error confidence.
	Deviations int64
	// Suspicious counts findings at or above the minimum confidence.
	Suspicious int64
	// MaxErrorConf is the largest error confidence seen.
	MaxErrorConf float64
	// SumErrorConf accumulates error confidences (mean = Sum/Deviations).
	SumErrorConf float64
	// Nulls counts the attribute's null cells among the audited rows —
	// the windowed completeness observation the monitor's drift
	// detectors consume.
	Nulls int64
}

// StreamResult is the incremental outcome of a streaming audit.
type StreamResult struct {
	// RowsChecked counts every row pulled from the source.
	RowsChecked int64
	// NumSuspicious counts the rows whose error confidence reached the
	// model's minimum confidence.
	NumSuspicious int64
	// Top holds the top-K suspicious records ranked by descending error
	// confidence (ties by ascending row) — the same ranking
	// (*Result).Suspicious produces, truncated to K.
	Top []RecordReport
	// TopTruncated reports whether suspicious records beyond TopK were
	// dropped from Top (their counts and tallies are still included).
	TopTruncated bool
	// Attrs are the per-attribute deviation tallies, one per modelled
	// attribute, aligned with Model.Attrs.
	Attrs []AttrTally
	// Dims holds the observed per-attribute quality dimensions
	// (completeness, uniqueness) of every scored row, one entry per
	// schema column — byte-identical to the batch paths' Result.Dims on
	// the same rows.
	Dims []AttrDim
	// CheckTime is the wall time of the whole stream, including source I/O.
	CheckTime time.Duration
}

// AuditStream checks every record pulled from src against the structure
// model with bounded memory. The suspicious set and its confidence
// ranking are identical to AuditTable's on the same rows (truncated to
// TopK); only the non-suspicious per-row reports are not materialized.
func (m *Model) AuditStream(src dataset.RowSource, opts StreamOptions) (*StreamResult, error) {
	opts = opts.withDefaults()
	if sw, width := src.Schema().Len(), m.Schema.Len(); sw != width {
		return nil, &dataset.RowWidthError{Got: sw, Want: width}
	}
	return m.auditStream(sourceFeed(src, opts), opts)
}

// streamPart is what a streaming audit keeps of one scored unit: the
// non-suspicious rows live and die inside the scoring scratch.
type streamPart struct {
	rows       int
	suspicious []RecordReport
	tallies    []AttrTally
}

// auditStream runs the scoring pipeline into a StreamResult.
func (m *Model) auditStream(f feed, opts StreamOptions) (*StreamResult, error) {
	start := time.Now()
	// slots maps a schema column to its tally index once, so the per-
	// finding lookup in the scoring hot loop is O(1).
	slots := make([]int, m.Schema.Len())
	res := &StreamResult{Attrs: make([]AttrTally, len(m.Attrs))}
	for i, am := range m.Attrs {
		slots[am.Class] = i
		res.Attrs[i].Attr = am.Class
	}
	var top topK

	// On the scoring goroutine: detach the suspicious minority of the
	// unit's reports and tally the rest where they lie.
	collect := func(_ int64, reps []RecordReport) streamPart {
		p := streamPart{rows: len(reps), tallies: make([]AttrTally, len(m.Attrs))}
		for i := range reps {
			rep := &reps[i]
			tallyReport(rep, slots, p.tallies, m.Opts.MinConfidence)
			if rep.Suspicious {
				p.suspicious = append(p.suspicious, rep.Detach())
			}
		}
		return p
	}
	// In unit order, so the counters, the top-K and the OnSuspicious
	// callback all observe rows in the deterministic table order
	// regardless of worker scheduling.
	fold := func(p streamPart) error {
		res.RowsChecked += int64(p.rows)
		res.NumSuspicious += int64(len(p.suspicious))
		for i := range p.tallies {
			res.Attrs[i].Add(&p.tallies[i])
		}
		for i := range p.suspicious {
			rep := &p.suspicious[i]
			if opts.OnSuspicious != nil {
				if err := opts.OnSuspicious(rep); err != nil {
					return err
				}
			}
			top.offer(rep, opts.TopK)
		}
		if opts.OnChunkFolded != nil && len(p.suspicious) > 0 {
			return opts.OnChunkFolded()
		}
		return nil
	}

	dims, err := run(m, f, collect, fold, opts.Workers)
	if err != nil {
		return nil, err
	}
	for i, am := range m.Attrs {
		res.Attrs[i].Nulls = dims[am.Class].Nulls
	}
	if res.Top = top.best(opts.TopK); res.Top == nil {
		res.Top = []RecordReport{}
	}
	res.TopTruncated = opts.TopK >= 0 && res.NumSuspicious > int64(len(res.Top))
	res.Dims = dims
	res.CheckTime = time.Since(start)
	return res, nil
}

// tallyReport folds one report's findings into the per-attribute tallies;
// slots maps schema columns to tally indices. This is the single
// definition of the tally semantics — the streaming audit (auditStream)
// and the batch condenser (TallyResult) both use it, so the two paths
// cannot drift apart.
func tallyReport(rep *RecordReport, slots []int, tallies []AttrTally, minConf float64) {
	for fi := range rep.Findings {
		f := &rep.Findings[fi]
		t := &tallies[slots[f.Attr]]
		t.Deviations++
		t.SumErrorConf += f.ErrorConf
		if f.ErrorConf > t.MaxErrorConf {
			t.MaxErrorConf = f.ErrorConf
		}
		if f.ErrorConf >= minConf {
			t.Suspicious++
		}
	}
}

// Add folds u's counts into t; Attr stays t's.
func (t *AttrTally) Add(u *AttrTally) {
	t.Deviations += u.Deviations
	t.Suspicious += u.Suspicious
	t.SumErrorConf += u.SumErrorConf
	t.Nulls += u.Nulls
	if u.MaxErrorConf > t.MaxErrorConf {
		t.MaxErrorConf = u.MaxErrorConf
	}
}

// TallyResult condenses a batch Result into the suspicious count and the
// per-attribute tallies a StreamResult carries natively (aligned with
// Model.Attrs), so batch and stream observations fold identically in
// downstream consumers like the quality monitor.
func (m *Model) TallyResult(res *Result) (suspicious int64, tallies []AttrTally) {
	slots := make([]int, m.Schema.Len())
	tallies = make([]AttrTally, len(m.Attrs))
	for i, am := range m.Attrs {
		slots[am.Class] = i
		tallies[i].Attr = am.Class
		if am.Class < len(res.Dims) {
			tallies[i].Nulls = res.Dims[am.Class].Nulls
		}
	}
	for ri := range res.Reports {
		rep := &res.Reports[ri]
		if rep.Suspicious {
			suspicious++
		}
		tallyReport(rep, slots, tallies, m.Opts.MinConfidence)
	}
	return suspicious, tallies
}

// topK retains the K best suspicious reports in the ranking of
// (*Result).Suspicious, truncated to K. Reports are offered in row order
// and pruning keeps the survivors in that order, so a report's index in
// reps ranks it among equal confidences exactly as its row would.
type topK struct {
	reps []RecordReport
	keys []rankKey // the rank keys of reps, kept across prunes
}

// offer takes ownership of the report (collect already detached it);
// k < 0 means no cap. Past 2k retained reports the weakest half is
// dropped, in place: a report outranked by k others can never rank
// within the best k again.
func (t *topK) offer(rep *RecordReport, k int) {
	if k == 0 {
		return
	}
	t.reps = append(t.reps, *rep)
	if k > 0 && len(t.reps) >= 2*k {
		t.prune(k)
	}
}

// rankKeys returns the retained reports' rank keys, sorted in place.
func (t *topK) rankKeys() []rankKey {
	t.keys = slices.Grow(t.keys[:0], len(t.reps))
	for i := range t.reps {
		t.keys = append(t.keys, newRankKey(t.reps[i].ErrorConf, i))
	}
	return sortRanks(t.keys, nil)
}

// prune keeps the k best retained reports, in the order they were
// offered.
func (t *topK) prune(k int) {
	last := t.rankKeys()[k-1]
	kept := 0
	for i := range t.reps {
		if compareRanks(newRankKey(t.reps[i].ErrorConf, i), last) <= 0 {
			t.reps[kept] = t.reps[i]
			kept++
		}
	}
	clear(t.reps[kept:]) // let go of the dropped reports' findings
	t.reps = t.reps[:kept]
}

// best returns a new slice of the first k retained reports in ranking
// order (all for k < 0; nil when there are none).
func (t *topK) best(k int) []RecordReport {
	keys := t.rankKeys()
	if k >= 0 && k < len(keys) {
		keys = keys[:k]
	}
	return gatherRanked(t.reps, keys)
}
