package audit_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
	"dataaudit/internal/tdg"
)

// The parallel-induction determinism contract: Induce and ReinduceAttrs
// induce the class attributes on min(GOMAXPROCS, attrs) goroutines and
// place every result by attribute index, so a model serializes
// byte-for-byte the same however the attributes were scheduled. Each
// model is built at GOMAXPROCS 1 — one worker, the sequential order — and
// at GOMAXPROCS 4, which oversubscribes a small machine on purpose.
//
// The cost is bounded in two ways that leave the fan-out itself intact
// (every attribute is still a class attribute, induced concurrently): each
// class attribute's base set is the two attributes after it in schema
// order (the §5 BaseAttrs hook), and the two families whose cost is
// dominated by the sample size run on the fixtures' first 500 rows —
// PRISM, whose covering search takes seconds per attribute on the full
// tables, and kNN, whose model is its training sample and so dominates
// the gob encoding.

var allInducers = []audit.InducerKind{
	audit.InducerC45Audit, audit.InducerC45, audit.InducerID3, audit.InducerNaiveBayes,
	audit.InducerKNN, audit.InducerOneR, audit.InducerPrism,
}

// determinismFixture is a pair of training tables: prev induces the base
// model, cur is the drifted table it is re-induced on.
type determinismFixture struct {
	name      string
	prev, cur *dataset.Table
}

// quisFixture pollutes a 30 000-row QUIS sample twice.
func quisFixture(t *testing.T) determinismFixture {
	t.Helper()
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
	if err != nil {
		t.Fatal(err)
	}
	plan := pollute.Plan{Cell: []pollute.Configured{
		{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
		{Prob: 0.01, P: &pollute.NullValuePolluter{}},
	}}
	prev, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(42)))
	cur, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(43)))
	return determinismFixture{"quis", prev, cur}
}

// baseConfigFixture is evalx.BaseConfig(2003)'s dirty table — generated
// the way evalx.Run generates it, duplicates and deletions included — and
// a second pollution of the same clean table. Generating it takes seconds,
// so the tests that read it share one copy; none of them modifies it.
func baseConfigFixture(t *testing.T) determinismFixture {
	t.Helper()
	fx, err := sharedBaseConfigFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

var sharedBaseConfigFixture = sync.OnceValues(func() (determinismFixture, error) {
	cfg := evalx.BaseConfig(2003)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rules, err := tdg.GenerateRuleSet(cfg.Schema, cfg.RuleGen, rng)
	if err != nil {
		return determinismFixture{}, err
	}
	clean, err := tdg.Generate(cfg.Schema, rules, cfg.DataGen, rng)
	if err != nil {
		return determinismFixture{}, err
	}
	prev, _ := pollute.Run(clean, cfg.Plan, rng)
	cur, _ := pollute.Run(clean, cfg.Plan, rand.New(rand.NewSource(cfg.Seed+1)))
	return determinismFixture{"baseconfig", prev, cur}, nil
})

// nextTwoBaseAttrs gives each class attribute the two attributes after it
// (cyclically) as its base set.
func nextTwoBaseAttrs(s *dataset.Schema) map[string][]string {
	out := make(map[string][]string, s.Len())
	for c := 0; c < s.Len(); c++ {
		out[s.Attr(c).Name] = []string{s.Attr((c + 1) % s.Len()).Name, s.Attr((c + 2) % s.Len()).Name}
	}
	return out
}

func headRows(tab *dataset.Table, n int) *dataset.Table {
	out := dataset.NewTable(tab.Schema())
	for r := 0; r < n && r < tab.NumRows(); r++ {
		out.AppendRow(tab.Row(r))
	}
	return out
}

// gobWithoutTime serializes a model with its wall-time field zeroed and
// its BaseAttrs option dropped: gob writes a map in Go's randomized
// iteration order, and both builds are handed the same map anyway.
func gobWithoutTime(t *testing.T, m *audit.Model) []byte {
	t.Helper()
	cp := audit.Model{Schema: m.Schema, Attrs: m.Attrs, Opts: m.Opts, TrainRows: m.TrainRows, InduceTime: m.InduceTime}
	cp.InduceTime = 0
	cp.Opts.BaseAttrs = nil
	var buf bytes.Buffer
	if err := audit.Encode(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildAtProcs runs Induce on prev, then ReinduceAttrs on cur over every
// modelled attribute in full and in incremental mode, all at the given
// GOMAXPROCS, and returns the three model gobs.
func buildAtProcs(t *testing.T, prev, cur *dataset.Table, opts audit.Options, procs int) [3][]byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m, err := audit.Induce(prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	attrs := make([]int, len(m.Attrs))
	for i, am := range m.Attrs {
		attrs[i] = am.Class
	}
	full, err := m.ReinduceAttrs(cur, attrs, audit.ReinduceOptions{Mode: audit.ReinduceFull})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := m.ReinduceAttrs(cur, attrs, audit.ReinduceOptions{Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	return [3][]byte{gobWithoutTime(t, m), gobWithoutTime(t, full), gobWithoutTime(t, inc)}
}

func TestInduceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, fixture := range []func(*testing.T) determinismFixture{quisFixture, baseConfigFixture} {
		fx := fixture(t)
		for _, kind := range allInducers {
			t.Run(fx.name+"/"+string(kind), func(t *testing.T) {
				prev, cur := fx.prev, fx.cur
				if kind == audit.InducerPrism || kind == audit.InducerKNN {
					prev, cur = headRows(prev, 500), headRows(cur, 500)
				}
				opts := audit.Options{MinConfidence: 0.8, Inducer: kind, BaseAttrs: nextTwoBaseAttrs(prev.Schema())}
				seq := buildAtProcs(t, prev, cur, opts, 1)
				par := buildAtProcs(t, prev, cur, opts, 4)
				for i, op := range []string{"Induce", "ReinduceAttrs (full)", "ReinduceAttrs (incremental, Prev)"} {
					if !bytes.Equal(seq[i], par[i]) {
						t.Errorf("%s: model at GOMAXPROCS 4 differs from GOMAXPROCS 1 (%d vs %d gob bytes)", op, len(par[i]), len(seq[i]))
					}
				}
			})
		}
	}
}
