// Package audit implements the paper's data auditing tool (§5): the
// multiple classification / regression approach. For each attribute of the
// relation, a classifier is induced that describes the dependency of this
// class attribute on the remaining (base) attributes; records are checked
// by comparing observed with predicted values, the deviation strength is
// quantified by the error confidence (Definitions 7 and 8), and predicted
// values double as proposed corrections (§5.3).
//
// Structure induction and data checking run asynchronously (§2.2): a Model
// serializes with Save/Load so the expensive induction can happen offline
// while fresh loads are checked online.
package audit

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dataaudit/internal/audittree"
	"dataaudit/internal/c45"
	"dataaudit/internal/dataset"
	"dataaudit/internal/knn"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/nbayes"
	"dataaudit/internal/ruleind"
	"dataaudit/internal/stats"
)

// InducerKind names the structure-induction algorithm (Fig. 1, step 2:
// "data mining algorithm selection + adjustment").
type InducerKind string

const (
	// InducerC45Audit is the paper's adjusted C4.5 (§5.4) — the default.
	InducerC45Audit InducerKind = "c45-audit"
	// InducerC45 is plain C4.5 with pessimistic-error pruning.
	InducerC45 InducerKind = "c45"
	// InducerID3 is plain ID3 (information gain, no pruning).
	InducerID3 InducerKind = "id3"
	// InducerNaiveBayes is the naive Bayes baseline.
	InducerNaiveBayes InducerKind = "nbayes"
	// InducerKNN is the instance-based baseline.
	InducerKNN InducerKind = "knn"
	// InducerOneR is the 1R rule-inducer baseline.
	InducerOneR InducerKind = "1r"
	// InducerPrism is the PRISM rule-inducer baseline.
	InducerPrism InducerKind = "prism"
)

// Options configure structure induction and deviation detection. The JSON
// form is what the monitor persists for re-induction after a restart; a
// custom Trainer (a code hook) cannot be serialized, so a reloaded Options
// falls back to the named Inducer.
type Options struct {
	// MinConfidence is the minimal error confidence for a record to be
	// marked suspicious (the paper's evaluation fixes 0.8), in (0, 1].
	MinConfidence float64 `json:"minConfidence,omitempty"`
	// ConfLevel is the one-sided confidence level of all interval bounds
	// (default 0.95), in (0, 1).
	ConfLevel float64 `json:"confLevel,omitempty"`
	// Bins is the number of equal-frequency bins for numeric/date class
	// attributes (default 5), at least 0.
	Bins int `json:"bins,omitempty"`
	// Inducer selects the induction algorithm (default InducerC45Audit).
	Inducer InducerKind `json:"inducer,omitempty"`
	// KNNk parameterizes the kNN baseline (default 5), at least 0.
	KNNk int `json:"knnK,omitempty"`
	// BaseAttrs optionally restricts, per class attribute name, the base
	// attributes used for its classifier — the §5 domain-knowledge hook
	// ("If it is known that an attribute does not influence the value of a
	// class attribute, it can be removed from the set of base
	// attributes"). Attributes not listed use all other attributes.
	BaseAttrs map[string][]string `json:"baseAttrs,omitempty"`
	// SkipClasses lists attribute names that are not audited as class
	// attributes (e.g. unique keys, free text codes).
	SkipClasses []string `json:"skipClasses,omitempty"`
	// Filter is the rule-deletion mode for the adjusted-C4.5 inducer.
	Filter audittree.FilterMode `json:"filter,omitempty"`
	// Trainer, when non-nil, overrides Inducer with a custom induction
	// algorithm — the hook the §5.4 ablation experiments (E8) use to mix
	// and match individual adjustments. Induce and ReinduceAttrs call its
	// Train (and a classifier's Update with it) from several goroutines at
	// once, one class attribute each, so a Trainer must not mutate shared
	// state; one that holds only options, as the built-in ones do, is safe.
	Trainer mlcore.Trainer `json:"-"`
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.8
	}
	if o.ConfLevel == 0 {
		o.ConfLevel = 0.95
	}
	if o.Bins == 0 {
		o.Bins = 5
	}
	if o.Inducer == "" {
		o.Inducer = InducerC45Audit
	}
	if o.KNNk == 0 {
		o.KNNk = 5
	}
	return o
}

// validate rejects options outside their ranges, once the defaults are
// filled. A minimum confidence of zero or less would mark every row
// suspicious, some with no finding to show. NaN fails every comparison,
// so it is rejected too. A negative kNN k builds a model with no
// neighbours to score from.
func (o Options) validate() error {
	if !(o.MinConfidence > 0 && o.MinConfidence <= 1) {
		return fmt.Errorf("minimum confidence %v outside (0, 1]", o.MinConfidence)
	}
	if !(o.ConfLevel > 0 && o.ConfLevel < 1) {
		return fmt.Errorf("confidence level %v outside (0, 1)", o.ConfLevel)
	}
	if o.Bins < 0 {
		return fmt.Errorf("bin count %d is negative", o.Bins)
	}
	if o.KNNk < 0 {
		return fmt.Errorf("kNN k %d is negative", o.KNNk)
	}
	return nil
}

// AttrModel is the per-attribute dependency model: one classifier plus the
// discretizer that turns a numeric class attribute into bins and back.
type AttrModel struct {
	// Class is the audited column.
	Class int
	// Base are the classifier's input columns.
	Base []int
	// K is the number of class values (domain size or bin count).
	K int
	// Classifier is the induced dependency model.
	Classifier mlcore.Classifier
	// Disc discretizes numeric/date class attributes (nil for nominal).
	Disc *stats.Discretizer
	// Labels are human-readable class value names.
	Labels []string
}

// ClassIndex maps an observed value of the class attribute to its class
// index (-1 for null).
func (am *AttrModel) ClassIndex(v dataset.Value) int {
	if v.IsNull() {
		return -1
	}
	if am.Disc != nil {
		return am.Disc.Bin(v.Float())
	}
	return v.NomIdx()
}

// SuggestedValue converts a predicted class index back into a concrete
// attribute value (§5.3): the nominal domain value, or the bin's
// representative (median) for discretized attributes.
func (am *AttrModel) SuggestedValue(class int) dataset.Value {
	if am.Disc != nil {
		return dataset.Num(am.Disc.Rep(class))
	}
	return dataset.Nom(class)
}

// Model is the complete structure model of a relation: one AttrModel per
// audited attribute. "The rule sets generated by all classifiers in the
// multiple classification / regression approach build the structure model
// of the data." (§5.4)
type Model struct {
	Schema *dataset.Schema
	Attrs  []*AttrModel
	Opts   Options
	// TrainRows records the induction sample size (for reports).
	TrainRows int
	// InduceTime records how long structure induction took.
	InduceTime time.Duration

	// scoring is the model's scoring plan (chunk.go), built once on first
	// use under scoringMu. Both are unexported: gob skips them and a
	// decoded model builds its own. They also make go vet refuse a copy
	// of a Model, which would share a plan its edited Attrs no longer fit.
	scoring   atomic.Pointer[scorePlan]
	scoringMu sync.Mutex
}

// Induce builds the structure model for the table (§5: "For each attribute
// in the relation to be audited, a classifier is induced that describes the
// dependency of this class attribute from the other attributes").
func Induce(tab *dataset.Table, opts Options) (*Model, error) {
	return induce(tab, opts, mlcore.NewRankCache(tab))
}

// induce is Induce with the rank cache its trees share: each numeric
// column is ordered once for all of them.
func induce(tab *dataset.Table, opts Options, ranks *mlcore.RankCache) (*Model, error) {
	opts = opts.WithDefaults()
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	schema := tab.Schema()
	start := time.Now()
	m := &Model{Schema: schema, Opts: opts, TrainRows: tab.NumRows()}

	skip := make(map[string]bool, len(opts.SkipClasses))
	for _, name := range opts.SkipClasses {
		skip[name] = true
	}
	var classes []int
	for class := 0; class < schema.Len(); class++ {
		if !skip[schema.Attr(class).Name] {
			classes = append(classes, class)
		}
	}

	// The classifiers are independent of each other (§5), so they are
	// induced concurrently; slot i holds classes[i]'s result, and the model
	// is assembled in schema order afterwards.
	ams := make([]*AttrModel, len(classes))
	if i, err := forEachAttr(len(classes), func(i int, scratch *[]float64) (err error) {
		ams[i], err = induceAttr(tab, classes[i], opts, scratch, ranks)
		return err
	}); err != nil {
		return nil, fmt.Errorf("audit: attribute %s: %w", schema.Attr(classes[i]).Name, err)
	}
	for _, am := range ams {
		if am != nil {
			m.Attrs = append(m.Attrs, am)
		}
	}
	if len(m.Attrs) == 0 {
		return nil, fmt.Errorf("audit: no attribute could be modelled")
	}
	m.InduceTime = time.Since(start)
	return m, nil
}

// forEachAttr calls fn(i, scratch) for every i in [0, n) on
// min(GOMAXPROCS, n) goroutines and returns the lowest index whose call
// failed with that call's error, or (-1, nil). Workers claim indices in
// increasing order from a shared counter, run every index they claim, and
// each owns one scratch buffer. Once a call has failed no worker claims
// another index; every lower index was claimed before it and so runs, and
// the error returned is the one a sequential loop would have stopped at.
// A panic stops the claiming too, and is re-raised on the caller with its
// worker's stack once every worker has exited, as run does for scoring.
func forEachAttr(n int, fn func(i int, scratch *[]float64) error) (int, error) {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var crashes workerPanics
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer crashes.catch(func() { failed.Store(true) })
			var scratch []float64
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i, &scratch); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	crashes.rethrow()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// induceAttr builds the classifier for one class attribute; it returns
// (nil, nil) when the attribute carries no usable training signal (e.g. all
// null). scratch is a value buffer reused across the calls of one worker —
// the numeric-class path fills it afresh each time (NewEqualFrequency
// copies its input), so one allocation serves many attributes instead of
// one growing slice per attribute. ranks is the call's rank cache over tab.
func induceAttr(tab *dataset.Table, class int, opts Options, scratch *[]float64, ranks *mlcore.RankCache) (*AttrModel, error) {
	schema := tab.Schema()
	attr := schema.Attr(class)

	am := &AttrModel{Class: class, Base: baseAttrsFor(schema, class, opts)}
	if len(am.Base) == 0 {
		return nil, nil
	}

	if attr.Type == dataset.NominalType {
		am.K = attr.NumValues()
		am.Labels = attr.Domain
	} else {
		// §5: "To allow for the induction of decision trees for numerical
		// class attributes, these attributes are discretized into equal
		// frequency bins before the induction process."
		vals := (*scratch)[:0]
		for r := 0; r < tab.NumRows(); r++ {
			if v := tab.Get(r, class); !v.IsNull() {
				vals = append(vals, v.Float())
			}
		}
		*scratch = vals[:0]
		if len(vals) == 0 {
			return nil, nil
		}
		disc, err := stats.NewEqualFrequency(vals, opts.Bins)
		if err != nil {
			return nil, err
		}
		am.Disc = disc
		am.K = disc.NumBins()
		am.Labels = disc.Labels(func(f float64) string { return attr.Format(dataset.Num(f)) })
	}
	if am.K < 2 {
		return nil, nil // a single-valued class has no detectable deviations
	}

	ins := mlcore.NewInstances(tab, am.Base, am.K, func(r int) int {
		return am.ClassIndex(tab.Get(r, class))
	})
	ins.Ranks = ranks
	trainer, err := trainerFor(opts)
	if err != nil {
		return nil, err
	}
	clf, err := trainer.Train(ins)
	if err != nil {
		return nil, err
	}
	am.Classifier = clf
	return am, nil
}

// baseAttrsFor resolves the base attribute set for a class attribute.
func baseAttrsFor(schema *dataset.Schema, class int, opts Options) []int {
	if names, ok := opts.BaseAttrs[schema.Attr(class).Name]; ok {
		var base []int
		for _, n := range names {
			if i := schema.Index(n); i >= 0 && i != class {
				base = append(base, i)
			}
		}
		return base
	}
	base := make([]int, 0, schema.Len()-1)
	for i := 0; i < schema.Len(); i++ {
		if i != class {
			base = append(base, i)
		}
	}
	return base
}

// trainerFor instantiates the configured induction algorithm.
func trainerFor(opts Options) (mlcore.Trainer, error) {
	if opts.Trainer != nil {
		return opts.Trainer, nil
	}
	switch opts.Inducer {
	case InducerC45Audit:
		return &audittree.Trainer{Opts: audittree.Options{
			MinConfidence: opts.MinConfidence,
			ConfLevel:     opts.ConfLevel,
			Filter:        opts.Filter,
		}}, nil
	case InducerC45:
		return &c45.Trainer{Opts: c45.Options{UseGainRatio: true, Prune: true, ConfLevel: opts.ConfLevel}}, nil
	case InducerID3:
		return &c45.Trainer{Opts: c45.Options{UseGainRatio: false, ConfLevel: opts.ConfLevel}}, nil
	case InducerNaiveBayes:
		return &nbayes.Trainer{}, nil
	case InducerKNN:
		return &knn.Trainer{Opts: knn.Options{K: opts.KNNk}}, nil
	case InducerOneR:
		return &ruleind.OneRTrainer{}, nil
	case InducerPrism:
		return &ruleind.PrismTrainer{}, nil
	default:
		return nil, fmt.Errorf("audit: unknown inducer %q", opts.Inducer)
	}
}

// Finding is one attribute-level deviation (§5.2): observed vs. predicted
// class with the error confidence w.r.t. that classifier.
type Finding struct {
	// Attr is the audited column.
	Attr int
	// Observed is the observed class index (-1 when the value is null).
	Observed int
	// Predicted is the classifier's class ĉ.
	Predicted int
	// PHat and PObs are P(ĉ) and P(c).
	PHat, PObs float64
	// N is the supporting sample size of the prediction.
	N float64
	// ErrorConf is Definition 7.
	ErrorConf float64
	// Suggestion is the proposed correction (§5.3).
	Suggestion dataset.Value
}

// RecordReport aggregates the findings for one record; ErrorConf is the
// maximum over the classifiers (Definition 8).
type RecordReport struct {
	// Row is the row index in the checked table; ID its record ID.
	Row int
	ID  int64
	// ErrorConf is the overall error confidence (Definition 8).
	ErrorConf float64
	// Best is the finding the overall confidence stems from (nil when no
	// classifier produced a deviation).
	Best *Finding
	// Findings lists every per-classifier deviation with positive error
	// confidence, for interactive error correction (§5.3: "the predicted
	// distributions of all classifiers that indicate a data error can be
	// useful in finding the true reason for a possible error").
	Findings []Finding
	// Suspicious reports whether ErrorConf reached the minimum confidence.
	Suspicious bool
}

// RepointBest aims Best at the first finding carrying the report's
// overall error confidence — the entry CheckRow selects — inside the
// report's own Findings slice. Every path that copies or reallocates the
// findings (Detach, detachReports, Merge, internal/shard decoding a
// worker's result frame) must call this so Best never dangles into a
// foreign slice; a change to the tie-breaking rule therefore happens in
// exactly one place. The caller must own rep.Findings.
func (rep *RecordReport) RepointBest() {
	if rep.Best == nil {
		return
	}
	for i := range rep.Findings {
		if rep.Findings[i].ErrorConf == rep.ErrorConf {
			rep.Best = &rep.Findings[i]
			return
		}
	}
}

// CheckRow runs deviation detection for one record. It is the
// convenience form: each call allocates a fresh ScoreScratch and detaches
// the report. Batch callers should hold one ScoreScratch per goroutine
// and use CheckRowScratch instead — the two produce identical reports.
func (m *Model) CheckRow(row []dataset.Value) RecordReport {
	return m.CheckRowScratch(row, NewScoreScratch(m)).Detach()
}

// Result is a full table audit.
type Result struct {
	// Reports holds one report per row, aligned with the table.
	Reports []RecordReport
	// NumAttrs is the width of the schema the reports were produced
	// against; Merge uses it to reject results from incompatible relations
	// (0 on hand-built results means unknown, accepted by Merge).
	NumAttrs int
	// Dims holds the observed per-attribute quality dimensions
	// (completeness, uniqueness) of the audited rows, one entry per
	// schema column. Nil on hand-built results.
	Dims []AttrDim
	// CheckTime records the deviation-detection wall time.
	CheckTime time.Duration
}

// AuditTable checks every record of the table against the structure
// model on the caller's goroutine.
func (m *Model) AuditTable(tab *dataset.Table) *Result {
	return m.AuditTableParallel(tab, 1)
}

// AuditTableParallel checks every record of the table against the
// structure model using up to `workers` goroutines (<= 0 selects
// runtime.NumCPU()). An induced Model is immutable and every prediction
// a pure function of the row, so the reports are byte-identical to
// AuditTable's for every worker count; only CheckTime differs.
func (m *Model) AuditTableParallel(tab *dataset.Table, workers int) *Result {
	res, _ := m.auditResult(tableFeed(tab, workers), tab.NumRows(), workers) // a table feed cannot fail
	return res
}

// AuditChunks checks the rows of already-decoded column chunks — read
// returns them one at a time and io.EOF at the clean end; any other
// error aborts the audit and is returned as is — and numbers the reports
// in arrival order. It is the shard worker's entry into the pipeline.
func (m *Model) AuditChunks(read func() (*dataset.ColumnChunk, error)) (*Result, error) {
	return m.auditResult(chunkFeed(m.Schema, read), -1, 1)
}

// auditResult runs the scoring pipeline into a Result. rows is the number
// of rows the feed will deliver, or negative when only the feed knows.
func (m *Model) auditResult(f feed, rows, workers int) (*Result, error) {
	start := time.Now()
	res := &Result{NumAttrs: m.Schema.Len()}
	if rows >= 0 {
		res.Reports = make([]RecordReport, rows)
	}
	// With Reports sized up front, each unit's reports are detached where
	// they belong by the goroutine that scored them; otherwise into parts
	// the fold lines up, joined once the row count is known.
	var parts [][]RecordReport
	collect := func(firstRow int64, reps []RecordReport) []RecordReport {
		var part []RecordReport
		if rows >= 0 {
			part = res.Reports[firstRow:][:len(reps)]
		} else {
			part = make([]RecordReport, len(reps))
		}
		detachReports(reps, part)
		return part
	}
	fold := func(part []RecordReport) error {
		if rows < 0 {
			parts = append(parts, part)
		}
		return nil
	}
	dims, err := run(m, f, collect, fold, workers)
	if err != nil {
		return nil, err
	}
	if rows < 0 {
		res.Reports = slices.Concat(parts...)
	}
	res.Dims = dims
	res.CheckTime = time.Since(start)
	return res, nil
}

// Suspicious returns the reports marked suspicious, "ranked according to
// their associated error confidence" (§6.2), in an order rankKey defines.
func (r *Result) Suspicious() []RecordReport {
	var keys []rankKey
	for i := range r.Reports {
		if rep := &r.Reports[i]; rep.Suspicious {
			keys = append(keys, newRankKey(rep.ErrorConf, i))
		}
	}
	return gatherRanked(r.Reports, sortRanks(keys, make([]rankKey, len(keys))))
}

// rankKey places one report in the ranking of §6.2: descending error
// confidence, ties by ascending position — the report's index in the
// slice being ranked, which is row order in Suspicious and offer order in
// the stream's top-K. conf maps the confidence to an unsigned integer
// that sorts ascending in cmp.Compare's descending order: ±0 tie and NaN
// ranks after every number.
type rankKey struct {
	conf uint64
	pos  int
}

func newRankKey(conf float64, pos int) rankKey {
	b := math.Float64bits(conf)
	switch {
	case conf != conf:
		b = 0
	case conf == 0:
		b = 1 << 63
	case b>>63 != 0:
		b = ^b
	default:
		b |= 1 << 63
	}
	return rankKey{^b, pos}
}

func compareRanks(a, b rankKey) int {
	if c := cmp.Compare(a.conf, b.conf); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// sortRanks sorts keys, which must be in ascending position order, into
// ranking order and returns the sorted slice. Given a scratch tmp of
// len(keys), a slice longer than 32 keys goes through an LSD radix sort
// over conf's bytes, skipping a byte every key shares; it is stable, so
// equal confidences keep ascending positions, and the result may be
// tmp. Otherwise keys are sorted in place.
func sortRanks(keys, tmp []rankKey) []rankKey {
	if len(keys) <= 32 || len(tmp) < len(keys) {
		slices.SortFunc(keys, compareRanks)
		return keys
	}
	var count [8][256]int
	for _, k := range keys {
		for d := range count {
			count[d][byte(k.conf>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		if c[byte(keys[0].conf>>(8*d))] == len(keys) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range keys {
			b := byte(k.conf >> (8 * d))
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// gatherRanked returns a new slice of the reports the keys name, in key
// order (nil for no keys).
func gatherRanked(reps []RecordReport, keys []rankKey) []RecordReport {
	if len(keys) == 0 {
		return nil
	}
	out := make([]RecordReport, len(keys))
	for i, k := range keys {
		out[i] = reps[k.pos]
	}
	return out
}

// NumSuspicious counts the suspicious records.
func (r *Result) NumSuspicious() int {
	n := 0
	for _, rep := range r.Reports {
		if rep.Suspicious {
			n++
		}
	}
	return n
}

// ApplyCorrections returns a copy of the table in which, for every
// suspicious record, the value of the best finding's attribute is replaced
// by the classifier's suggestion — §5.3: "we replace a suspicious value
// according to the prediction of the classifier with the highest error
// confidence".
func (m *Model) ApplyCorrections(tab *dataset.Table, res *Result) *dataset.Table {
	out := tab.Clone()
	for r, rep := range res.Reports {
		if !rep.Suspicious || rep.Best == nil {
			continue
		}
		out.Set(r, rep.Best.Attr, rep.Best.Suggestion)
	}
	return out
}

// DescribeFinding renders a finding like the paper's §6.2 examples.
func (m *Model) DescribeFinding(f *Finding) string {
	return string(m.AppendDescription(nil, f))
}

// AppendDescription appends DescribeFinding's text to dst, the form
// "BRV: observed 404, expected 501 (P=0.9900, n=120, error confidence
// 97.50%)": the probability with four decimals, the sample size with
// none and the error confidence as a percentage with two, each as
// strconv's 'f' format writes it (and so as fmt's %.Nf would).
func (m *Model) AppendDescription(dst []byte, f *Finding) []byte {
	am := m.attrModelFor(f.Attr)
	dst = append(dst, m.Schema.Attr(f.Attr).Name...)
	dst = append(dst, ": observed "...)
	if f.Observed >= 0 && am != nil {
		dst = append(dst, am.Labels[f.Observed]...)
	} else {
		dst = append(dst, '?')
	}
	dst = append(dst, ", expected "...)
	if am != nil {
		dst = append(dst, am.Labels[f.Predicted]...)
	}
	dst = append(dst, " (P="...)
	dst = appendFixed(dst, f.PHat, 4)
	dst = append(dst, ", n="...)
	dst = appendFixed(dst, f.N, 0)
	dst = append(dst, ", error confidence "...)
	dst = appendFixed(dst, f.ErrorConf*100, 2)
	return append(dst, "%)"...)
}

// appendFixed appends x with prec (at most 4) decimals, exactly as
// strconv.AppendFloat(dst, x, 'f', prec, 64) does. strconv takes its
// arbitrary-precision path for a fixed number of decimals; here, for a
// finite x in [2^-12, 2^53) by magnitude or zero, x·10^prec is rounded
// half to even in 128-bit integer arithmetic instead. Any other x goes
// to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	b := math.Float64bits(x)
	mant := b&(1<<52-1) | 1<<52
	shift := 1075 - int(b>>52&0x7ff) // x = ±mant / 2^shift
	var q uint64
	switch {
	case x == 0:
	case shift < 1 || shift > 64: // an integer from 2^52 on, tiny, subnormal, Inf or NaN
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	default:
		hi, lo := bits.Mul64(mant, pow10u64[prec])
		var rem, half uint64
		if shift == 64 {
			q, rem, half = hi, lo, 1<<63
		} else {
			if hi>>shift != 0 {
				return strconv.AppendFloat(dst, x, 'f', prec, 64)
			}
			q, rem, half = hi<<(64-shift)|lo>>shift, lo&(1<<shift-1), 1<<(shift-1)
		}
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if math.Signbit(x) {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/pow10u64[prec], 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := q % pow10u64[prec]
	for p := prec - 1; p >= 0; p-- {
		dst = append(dst, byte('0'+frac/pow10u64[p]%10))
	}
	return dst
}

var pow10u64 = [...]uint64{1, 10, 100, 1000, 10000}

func (m *Model) attrModelFor(attr int) *AttrModel {
	for _, am := range m.Attrs {
		if am.Class == attr {
			return am
		}
	}
	return nil
}
