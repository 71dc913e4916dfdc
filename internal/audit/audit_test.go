package audit

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
)

// engineSchema mirrors the §6.2 QUIS flavor plus a numeric attribute.
func engineSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501", "600"),
		dataset.NewNominal("KBM", "01", "02"),
		dataset.NewNominal("GBM", "901", "911", "950"),
		dataset.NewNumeric("DISP", 1000, 4000),
	)
}

// engineTable: BRV determines GBM; DISP correlates with BRV
// (404 -> ~1500, 501 -> ~2500, 600 -> ~3500).
func engineTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(engineSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		brv := rng.Intn(3)
		disp := 1500 + float64(brv)*1000 + rng.NormFloat64()*80
		if disp < 1000 {
			disp = 1000
		}
		if disp > 4000 {
			disp = 4000
		}
		tab.AppendRow([]dataset.Value{
			dataset.Nom(brv), dataset.Nom(rng.Intn(2)), dataset.Nom(brv), dataset.Num(disp),
		})
	}
	return tab
}

func TestInduceBuildsModelPerAttribute(t *testing.T) {
	tab := engineTable(t, 3000, 71)
	m, err := Induce(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Attrs) != 4 {
		t.Fatalf("expected 4 attribute models, got %d", len(m.Attrs))
	}
	for _, am := range m.Attrs {
		if am.Classifier == nil || am.K < 2 {
			t.Fatalf("bad attribute model: %+v", am)
		}
		for _, b := range am.Base {
			if b == am.Class {
				t.Fatalf("class attribute leaked into its own base set")
			}
		}
	}
	if m.TrainRows != 3000 || m.InduceTime <= 0 {
		t.Fatalf("bookkeeping missing: rows=%d time=%v", m.TrainRows, m.InduceTime)
	}
}

func TestCheckRowFlagsSeededDeviation(t *testing.T) {
	tab := engineTable(t, 5000, 72)
	// Seed one deviation: record 0 gets GBM inconsistent with BRV.
	brv := tab.Get(0, 0).NomIdx()
	tab.Set(0, 2, dataset.Nom((brv+1)%3))
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.CheckRow(tab.Row(0))
	if !rep.Suspicious {
		t.Fatalf("seeded deviation not flagged (conf=%g)", rep.ErrorConf)
	}
	if rep.Best == nil || rep.Best.Attr != 2 {
		t.Fatalf("best finding should point at GBM, got %+v", rep.Best)
	}
	if rep.Best.Suggestion.IsNull() || rep.Best.Suggestion.NomIdx() != brv {
		t.Fatalf("suggestion should restore the consistent GBM value")
	}
	// A clean record must not be suspicious.
	clean := m.CheckRow(tab.Row(1))
	if clean.Suspicious {
		t.Fatalf("clean record flagged with conf %g (best: %+v)", clean.ErrorConf, clean.Best)
	}
}

func TestNumericClassAuditViaBins(t *testing.T) {
	tab := engineTable(t, 5000, 73)
	// Seed a numeric deviation: a 404 engine with displacement 3900.
	tab.Set(0, 0, dataset.Nom(0))
	tab.Set(0, 2, dataset.Nom(0))
	tab.Set(0, 3, dataset.Num(3900))
	// Bins=3 aligns the equal-frequency bins with the three displacement
	// clusters; FilterReachableOnly keeps the (otherwise pure) rules, as in
	// the offline-induction scenario of §2.2.
	m, err := Induce(tab, Options{MinConfidence: 0.8, Bins: 3, Filter: audittree.FilterReachableOnly})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.CheckRow(tab.Row(0))
	if !rep.Suspicious {
		t.Fatalf("numeric deviation not flagged (conf=%g)", rep.ErrorConf)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Attr == 3 {
			found = true
			if f.Suggestion.IsNull() || math.Abs(f.Suggestion.Float()-1500) > 400 {
				t.Fatalf("numeric suggestion should sit near the 404 cluster, got %v", f.Suggestion)
			}
		}
	}
	if !found {
		t.Fatalf("no finding on the numeric attribute; findings: %+v", rep.Findings)
	}
}

func TestNullObservedValueFlagged(t *testing.T) {
	tab := engineTable(t, 5000, 74)
	tab.Set(0, 2, dataset.Null())
	// Null training instances are dropped during induction, so the GBM
	// rules are pure; FilterPaper would delete them (they cannot flag any
	// *training* deviation). FilterReachableOnly is the mode for exactly
	// this completeness-oriented use.
	m, err := Induce(tab, Options{MinConfidence: 0.8, Filter: audittree.FilterReachableOnly})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.CheckRow(tab.Row(0))
	if !rep.Suspicious {
		t.Fatalf("missing GBM should be flagged (completeness dimension), conf=%g", rep.ErrorConf)
	}
	if rep.Best.Observed != -1 {
		t.Fatalf("observed must be -1 for null")
	}
	if rep.Best.Suggestion.IsNull() {
		t.Fatalf("a concrete substitution must be suggested")
	}
}

func TestAuditTableAndRanking(t *testing.T) {
	tab := engineTable(t, 4000, 75)
	// Seed deviations of different strengths.
	tab.Set(0, 2, dataset.Nom((tab.Get(0, 0).NomIdx()+1)%3))
	tab.Set(1, 2, dataset.Nom((tab.Get(1, 0).NomIdx()+1)%3))
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	res := m.AuditTable(tab)
	if len(res.Reports) != tab.NumRows() {
		t.Fatalf("reports not aligned with rows")
	}
	sus := res.Suspicious()
	if len(sus) < 2 {
		t.Fatalf("expected at least the 2 seeded deviations, got %d", len(sus))
	}
	for i := 1; i < len(sus); i++ {
		if sus[i].ErrorConf > sus[i-1].ErrorConf+1e-12 {
			t.Fatalf("suspicious records not ranked by confidence")
		}
	}
	if res.NumSuspicious() != len(sus) {
		t.Fatalf("NumSuspicious mismatch")
	}
	seeded := map[int64]bool{tab.ID(0): true, tab.ID(1): true}
	hits := 0
	for _, rep := range sus {
		if seeded[rep.ID] {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("seeded deviations missing from the suspicious list (%d/2)", hits)
	}
}

func TestApplyCorrections(t *testing.T) {
	tab := engineTable(t, 4000, 76)
	brv := tab.Get(0, 0).NomIdx()
	tab.Set(0, 2, dataset.Nom((brv+1)%3))
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	res := m.AuditTable(tab)
	corrected := m.ApplyCorrections(tab, res)
	if corrected.Get(0, 2).NomIdx() != brv {
		t.Fatalf("correction not applied: %v", corrected.Get(0, 2))
	}
	// Original table untouched.
	if tab.Get(0, 2).NomIdx() == brv {
		t.Fatalf("ApplyCorrections mutated its input")
	}
}

func TestBaseAttrRestriction(t *testing.T) {
	tab := engineTable(t, 2000, 77)
	m, err := Induce(tab, Options{
		BaseAttrs: map[string][]string{"GBM": {"BRV"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, am := range m.Attrs {
		if m.Schema.Attr(am.Class).Name == "GBM" {
			if len(am.Base) != 1 || m.Schema.Attr(am.Base[0]).Name != "BRV" {
				t.Fatalf("base restriction ignored: %v", am.Base)
			}
		}
	}
}

func TestSkipClasses(t *testing.T) {
	tab := engineTable(t, 2000, 78)
	m, err := Induce(tab, Options{SkipClasses: []string{"DISP", "KBM"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, am := range m.Attrs {
		name := m.Schema.Attr(am.Class).Name
		if name == "DISP" || name == "KBM" {
			t.Fatalf("skipped attribute %s was modelled", name)
		}
	}
	if len(m.Attrs) != 2 {
		t.Fatalf("expected 2 models, got %d", len(m.Attrs))
	}
}

// TestInduceRejectsConfidenceOutOfRange: a minimum confidence outside
// (0, 1] or a confidence level outside (0, 1), NaN included, fails
// Induce. Zero stands for the default and is accepted.
func TestInduceRejectsConfidenceOutOfRange(t *testing.T) {
	tab := engineTable(t, 500, 79)
	nan := math.NaN()
	for _, tc := range []struct {
		opts Options
		ok   bool
	}{
		{Options{}, true},
		{Options{MinConfidence: 1, ConfLevel: 0.5}, true},
		{Options{MinConfidence: -0.5}, false},
		{Options{MinConfidence: 1.5}, false},
		{Options{MinConfidence: nan}, false},
		{Options{ConfLevel: -0.1}, false},
		{Options{ConfLevel: 1}, false},
		{Options{ConfLevel: nan}, false},
		// A negative k used to build a kNN model whose scoring panicked.
		{Options{Inducer: InducerKNN, KNNk: -1}, false},
		{Options{Bins: -1}, false},
	} {
		_, err := Induce(tab, tc.opts)
		if (err == nil) != tc.ok {
			t.Errorf("%+v: got error %v, want ok=%v", tc.opts, err, tc.ok)
		}
	}
}

func TestAllInducersProduceWorkingModels(t *testing.T) {
	tab := engineTable(t, 800, 79)
	brv := tab.Get(0, 0).NomIdx()
	tab.Set(0, 2, dataset.Nom((brv+1)%3))
	for _, kind := range []InducerKind{
		InducerC45Audit, InducerC45, InducerID3, InducerNaiveBayes, InducerKNN, InducerOneR, InducerPrism,
	} {
		m, err := Induce(tab, Options{Inducer: kind, MinConfidence: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rep := m.CheckRow(tab.Row(0))
		if rep.ErrorConf < 0 || rep.ErrorConf > 1 {
			t.Fatalf("%s: error confidence out of range: %g", kind, rep.ErrorConf)
		}
	}
	if _, err := Induce(tab, Options{Inducer: "bogus"}); err == nil {
		t.Fatalf("unknown inducer must fail")
	}
}

func TestModelPersistenceRoundTrip(t *testing.T) {
	tab := engineTable(t, 3000, 80)
	tab.Set(0, 2, dataset.Nom((tab.Get(0, 0).NomIdx()+1)%3))
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// The restored model must produce identical reports.
	for r := 0; r < 50; r++ {
		a := m.CheckRow(tab.Row(r))
		bb := back.CheckRow(tab.Row(r))
		if math.Abs(a.ErrorConf-bb.ErrorConf) > 1e-12 || a.Suspicious != bb.Suspicious {
			t.Fatalf("row %d: reports differ after round-trip: %g vs %g", r, a.ErrorConf, bb.ErrorConf)
		}
	}
}

func TestModelPersistenceAllInducers(t *testing.T) {
	tab := engineTable(t, 400, 81)
	for _, kind := range []InducerKind{
		InducerC45Audit, InducerC45, InducerID3, InducerNaiveBayes, InducerKNN, InducerOneR, InducerPrism,
	} {
		m, err := Induce(tab, Options{Inducer: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s marshal: %v", kind, err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s unmarshal: %v", kind, err)
		}
		a := m.CheckRow(tab.Row(0))
		bb := back.CheckRow(tab.Row(0))
		if math.Abs(a.ErrorConf-bb.ErrorConf) > 1e-9 {
			t.Fatalf("%s: confidence changed after round-trip", kind)
		}
	}
}

// TestDecodeRejectsNonTreeRuleSet: a model file whose rule set has one
// antecedent as a prefix of another — a shape ExtractRules never yields
// and the matcher has no trie for — must fail to load, not reach scoring.
func TestDecodeRejectsNonTreeRuleSet(t *testing.T) {
	m, err := Induce(engineTable(t, 400, 84), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.Attrs[0].Classifier.(*audittree.RuleSet)
	m.Attrs[0].Classifier = &audittree.RuleSet{K: rs.K, Rules: []audittree.Rule{
		{Conds: []audittree.Cond{{Attr: 1, Val: 0}}},
		{Conds: []audittree.Cond{{Attr: 1, Val: 0}, {Attr: 3, IsNumeric: true, Thresh: 2000}}},
	}}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b); err == nil || !strings.Contains(err.Error(), "tree shape") {
		t.Fatalf("Unmarshal of a prefix-overlapping rule set: %v, want a tree-shape error", err)
	}
}

// TestDecodeRejectsOptionsOutOfRange: a model file whose stored options
// lie outside the ranges Induce enforces must fail to load, naming the
// option. A confidence level of 1 used to load and then panic in
// stats.NormalQuantile on the model's first finding.
func TestDecodeRejectsOptionsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		set  func(*Options)
		want string
	}{
		{func(o *Options) { o.ConfLevel = 1 }, "confidence level 1 outside"},
		{func(o *Options) { o.MinConfidence = 0 }, "minimum confidence 0 outside"},
	} {
		m, err := Induce(engineTable(t, 400, 84), Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc.set(&m.Opts)
		b, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Unmarshal: %v, want an error containing %q", err, tc.want)
		}
	}
}

func TestDescribeFinding(t *testing.T) {
	tab := engineTable(t, 3000, 82)
	tab.Set(0, 2, dataset.Nom((tab.Get(0, 0).NomIdx()+1)%3))
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.CheckRow(tab.Row(0))
	if rep.Best == nil {
		t.Fatalf("no finding")
	}
	desc := m.DescribeFinding(rep.Best)
	if !strings.Contains(desc, "GBM") || !strings.Contains(desc, "error confidence") {
		t.Fatalf("DescribeFinding = %q", desc)
	}
}

func TestCheckRowIgnoresBestWhenClean(t *testing.T) {
	tab := engineTable(t, 2000, 83)
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.CheckRow(tab.Row(5))
	if rep.ErrorConf == 0 && rep.Best != nil {
		t.Fatalf("clean record must have nil Best")
	}
	if rep.Suspicious {
		t.Fatalf("clean record flagged")
	}
}
