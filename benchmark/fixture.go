package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

const (
	// trainSeed fixes everything induction reads: the training sample T,
	// with it the model M, and the drifted table P. Scoring speed follows
	// the induced trees' shape more than anything else (±5 % from one
	// training sample to the next, twice the machine's own noise) and the
	// cost of an induction follows its table's pollution (±15 %), so
	// induction inputs that changed with -seed would make runs with
	// different seeds incomparable. Everything the model is asked to audit
	// or serve, and the order it is asked in, still changes with -seed.
	trainSeed = 2003
	trainRows = 30000  // QUIS's floor, and the size every older benchmark trained on
	auditRows = 200000 // the paper's §6.2 sample
	halfRows  = 100000
)

// plan is the pollution applied to every fixture table.
func plan() pollute.Plan {
	return pollute.Plan{Cell: []pollute.Configured{
		{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
		{Prob: 0.01, P: &pollute.NullValuePolluter{}},
	}}
}

var induceOpts = audit.Options{MinConfidence: 0.8}

// fixture is what every workload starts from. It is a pure function of
// the seed S: T, M and P come from trainSeed; A from QUIS seed S+2, row
// order S+5 and pollution RNG S+3.
type fixture struct {
	seed  int64
	train *dataset.Table // T: the clean sample (trainSeed) polluted with rng trainSeed+1
	model *audit.Model   // M: Induce(T)
	full  *dataset.Table // A: 200 000 rows (seed S+2) polluted with rng S+3
	log   *pollute.Log   // A's pollution log
	half  *dataset.Table // A100: the first 100 000 rows of A, same record IDs
	drift *dataset.Table // P: the clean sample re-polluted with rng trainSeed+4

	induceMs float64 // wall time of Induce(T), a free sample of the induction layer
}

func buildFixture(seed int64) (*fixture, error) {
	fx := &fixture{seed: seed}
	sample, err := quis.Generate(quis.Params{NumRecords: trainRows, Seed: trainSeed})
	if err != nil {
		return nil, err
	}
	clean := sample.Data
	fx.train, _ = pollute.Run(clean, plan(), rand.New(rand.NewSource(trainSeed+1)))
	if err := canonicalize(fx.train); err != nil {
		return nil, err
	}
	start := time.Now()
	fx.model, err = audit.Induce(fx.train, induceOpts)
	if err != nil {
		return nil, fmt.Errorf("inducing M: %w", err)
	}
	fx.induceMs = ms(time.Since(start))

	big, err := quis.Generate(quis.Params{NumRecords: auditRows, Seed: seed + 2})
	if err != nil {
		return nil, err
	}
	// QUIS emits its records profile by profile. Shuffled, every prefix and
	// every slice of A has the mix of the whole, as a load file would:
	// A100 and the serving bodies then match the model's baseline.
	mixed := shuffled(big.Data, rand.New(rand.NewSource(seed+5)))
	fx.full, fx.log = pollute.Run(mixed, plan(), rand.New(rand.NewSource(seed+3)))
	if err := canonicalize(fx.full); err != nil {
		return nil, err
	}
	fx.half = prefix(fx.full, halfRows)
	fx.drift, _ = pollute.Run(clean, plan(), rand.New(rand.NewSource(trainSeed+4)))
	return fx, canonicalize(fx.drift)
}

// canonicalize replaces every number-like cell by what its text rendering
// parses back to, as if the table had been loaded from a file. QUIS draws
// production dates as fractional days and the text form keeps whole days,
// so without this a CSV or JSON body would carry other values than the
// in-memory table the oracle reads, and a record near a bin edge could be
// judged differently on the two paths.
func canonicalize(tab *dataset.Table) error {
	for c, a := range tab.Schema().Attrs() {
		if !a.IsNumberLike() {
			continue
		}
		col := tab.Column(c)
		for r, v := range col {
			parsed, err := a.Parse(a.Format(v))
			if err != nil {
				return err
			}
			col[r] = parsed
		}
	}
	return nil
}

// shuffled copies tab with its rows in a random order and fresh IDs.
func shuffled(tab *dataset.Table, rng *rand.Rand) *dataset.Table {
	out := dataset.NewTable(tab.Schema())
	buf := make([]dataset.Value, tab.NumCols())
	for _, r := range rng.Perm(tab.NumRows()) {
		out.AppendRow(tab.RowInto(r, buf))
	}
	return out
}

// prefix copies rows [0, n) of tab. Cell pollution neither deletes nor
// duplicates, so tab's record IDs are 0..rows-1 and the copy's fresh IDs
// equal them — the pollution log keeps joining.
func prefix(tab *dataset.Table, n int) *dataset.Table {
	return rowRange(tab, 0, n)
}

// rowRange copies rows [lo, hi) of tab into a table with fresh IDs.
func rowRange(tab *dataset.Table, lo, hi int) *dataset.Table {
	out := dataset.NewTable(tab.Schema())
	buf := make([]dataset.Value, tab.NumCols())
	for r := lo; r < hi; r++ {
		out.AppendRow(tab.RowInto(r, buf))
	}
	return out
}

func csvBytes(tab *dataset.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, tab); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verdict is what the oracle keeps of one suspicious record.
type verdict struct {
	id   int64
	attr int32 // the best finding's attribute, -1 when there is none
	conf float64
}

// oracle is the reference outcome of auditing one table: the model's
// row-at-a-time CheckRow path, which shares no driver, chunk or memo code
// with the surfaces the workloads measure.
type oracle struct {
	rows     int
	count    int
	inOrder  []verdict // suspicious records in row order
	ranked   []verdict // the same, by descending confidence (ties in row order)
	nsPerRow float64   // cost of the reference path itself
	// flags are the per-row verdicts evalx joins with the pollution log.
	flags *audit.Result
}

func buildOracle(m *audit.Model, tab *dataset.Table) *oracle {
	n := tab.NumRows()
	o := &oracle{rows: n, flags: &audit.Result{Reports: make([]audit.RecordReport, n), NumAttrs: tab.NumCols()}}
	row := make([]dataset.Value, tab.NumCols())
	scratch := audit.NewScoreScratch(m)
	start := time.Now()
	for r := 0; r < n; r++ {
		rep := m.CheckRowScratch(tab.RowInto(r, row), scratch)
		o.flags.Reports[r] = audit.RecordReport{Row: r, ID: tab.ID(r), ErrorConf: rep.ErrorConf, Suspicious: rep.Suspicious}
		if rep.Suspicious {
			o.inOrder = append(o.inOrder, verdictOf(tab.ID(r), rep))
		}
	}
	o.nsPerRow = float64(time.Since(start).Nanoseconds()) / float64(n)
	o.count = len(o.inOrder)
	o.ranked = append([]verdict(nil), o.inOrder...)
	sort.SliceStable(o.ranked, func(i, j int) bool { return o.ranked[i].conf > o.ranked[j].conf })
	return o
}

func verdictOf(id int64, rep *audit.RecordReport) verdict {
	v := verdict{id: id, attr: -1, conf: rep.ErrorConf}
	if rep.Best != nil {
		v.attr = int32(rep.Best.Attr)
	}
	return v
}

// digest folds (record id, best attribute, confidence bits) of a verdict
// list, in order, into an FNV-64a hash.
func digest(vs []verdict) uint64 {
	h := fnv.New64a()
	var b [20]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[0:], uint64(v.id))
		binary.LittleEndian.PutUint32(b[8:], uint32(v.attr))
		binary.LittleEndian.PutUint64(b[12:], math.Float64bits(v.conf))
		h.Write(b[:])
	}
	return h.Sum64()
}

// reportsVerdicts converts a report list in the order given.
func reportsVerdicts(reps []audit.RecordReport) []verdict {
	vs := make([]verdict, len(reps))
	for i := range reps {
		vs[i] = verdictOf(reps[i].ID, &reps[i])
	}
	return vs
}

// expect is the pair every operation is compared with; corrupting it is
// how the self-test shows that the comparison bites.
type expect struct {
	count  int
	digest uint64
}

func (o *oracle) rankedExpect() expect { return expect{o.count, digest(o.ranked)} }

// topExpect is the expectation for a top-K sink: the full count and the
// digest of the K best-ranked records.
func (o *oracle) topExpect(k int) expect {
	return expect{o.count, digest(o.ranked[:min(k, len(o.ranked))])}
}

func (o *oracle) inOrderExpect() expect { return expect{o.count, digest(o.inOrder)} }

// quality joins the oracle's verdicts with the pollution log (§4.3).
func (o *oracle) quality(tab *dataset.Table, log *pollute.Log) evalx.Confusion {
	return evalx.Evaluate(tab, log, o.flags)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
