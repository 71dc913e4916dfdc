package audittree

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// engineSchema mimics the §6.2 QUIS flavor: BRV determines GBM with rare
// deviations.
func engineSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501", "600"),
		dataset.NewNominal("KBM", "01", "02"),
		dataset.NewNominal("GBM", "901", "911", "950"),
	)
}

// engineTable: BRV=404 -> GBM=901 (with `deviations` exceptions),
// BRV=501 -> GBM=911, BRV=600 -> GBM mixed.
func engineTable(t testing.TB, n, deviations int, seed int64) *dataset.Table {
	t.Helper()
	s := engineSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		brv := rng.Intn(3)
		gbm := brv % 3
		if brv == 0 && deviations > 0 {
			gbm = 1
			deviations--
		}
		if brv == 2 {
			gbm = rng.Intn(3)
		}
		tab.AppendRow([]dataset.Value{dataset.Nom(brv), dataset.Nom(rng.Intn(2)), dataset.Nom(gbm)})
	}
	return tab
}

func gbmInstances(t testing.TB, tab *dataset.Table) *mlcore.Instances {
	t.Helper()
	return mlcore.NewInstances(tab, []int{0, 1}, 3, func(r int) int {
		v := tab.Get(r, 2)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
}

func TestTrainRuleSetFindsDependency(t *testing.T) {
	tab := engineTable(t, 3000, 2, 21)
	ins := gbmInstances(t, tab)
	tr := &Trainer{Opts: Options{MinConfidence: 0.8}}
	rs, err := tr.TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) == 0 {
		t.Fatalf("no rules extracted")
	}
	// The strongest rule must be the BRV=404 -> GBM=901 dependency (with 2
	// deviations in training it has positive expected error confidence).
	found := false
	s := tab.Schema()
	for _, r := range rs.Rules {
		text := r.Render(s, func(c int) string { return s.Attr(2).Domain[c] })
		if strings.Contains(text, "BRV = 404") && strings.Contains(text, "→ 901") {
			found = true
			if r.ExpErrConf <= 0 {
				t.Fatalf("deviating rule must have positive expected error confidence")
			}
		}
	}
	if !found {
		for _, r := range rs.Rules {
			t.Logf("rule: %s", r.Render(s, func(c int) string { return s.Attr(2).Domain[c] }))
		}
		t.Fatalf("BRV=404 → GBM=901 not found")
	}
}

func TestRuleSetFlagsDeviation(t *testing.T) {
	tab := engineTable(t, 5000, 1, 22)
	ins := gbmInstances(t, tab)
	rs, err := (&Trainer{Opts: Options{MinConfidence: 0.8}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	// A record BRV=404, GBM=911 must receive a high error confidence.
	row := []dataset.Value{dataset.Nom(0), dataset.Nom(0), dataset.Nom(1)}
	var d mlcore.Distribution
	rs.PredictInto(row, &d)
	if d.N() == 0 {
		t.Fatalf("no rule matched the deviating record")
	}
	cHat, pHat := d.Best()
	if cHat != 0 {
		t.Fatalf("predicted GBM class = %d, want 0 (901)", cHat)
	}
	ec := stats.ErrorConfidence(pHat, d.P(1), d.N(), 0.95)
	if ec < 0.9 {
		t.Fatalf("error confidence for the deviation = %g, want > 0.9", ec)
	}
}

func TestFilterPaperDropsPureAndWeakRules(t *testing.T) {
	// Small data: leaves cannot reach the 0.8 confidence limit -> all rules
	// deleted (the Fig. 3 effect below ~minInst records).
	tab := engineTable(t, 12, 1, 23)
	ins := gbmInstances(t, tab)
	rs, err := (&Trainer{Opts: Options{MinConfidence: 0.8}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 0 {
		t.Fatalf("tiny training set must not retain any rule, got %d", len(rs.Rules))
	}
	// Unmatched records yield the empty distribution: no detection.
	var d mlcore.Distribution
	rs.PredictInto([]dataset.Value{dataset.Nom(0), dataset.Nom(0), dataset.Nom(1)}, &d)
	if d.N() != 0 {
		t.Fatalf("empty rule set must return empty distribution")
	}
}

// TestParseFilterMode: the canonical names, the empty default and the
// short "reachable" parse; anything else is an error naming the modes.
func TestParseFilterMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		want FilterMode
		ok   bool
	}{
		{"", FilterPaper, true},
		{"paper", FilterPaper, true},
		{"reachable-only", FilterReachableOnly, true},
		{"reachable", FilterReachableOnly, true},
		{"none", FilterNone, true},
		{"Paper", 0, false},
		{"bogus", 0, false},
	} {
		got, err := ParseFilterMode(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFilterMode(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "reachable-only") {
			t.Errorf("ParseFilterMode(%q) error %q does not name the modes", tc.name, err)
		}
	}
}

func TestFilterModes(t *testing.T) {
	// Perfectly clean dependency: leaves are pure, expErrorConf = 0.
	tab := engineTable(t, 4000, 0, 24)
	ins := gbmInstances(t, tab)

	paper, err := (&Trainer{Opts: Options{MinConfidence: 0.8, Filter: FilterPaper}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	reachable, err := (&Trainer{Opts: Options{MinConfidence: 0.8, Filter: FilterReachableOnly}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	all, err := (&Trainer{Opts: Options{MinConfidence: 0.8, Filter: FilterNone}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Paper mode deletes the pure rules; reachable mode keeps them (they
	// could flag unseen deviations); none keeps everything.
	pureKept := 0
	for _, r := range reachable.Rules {
		if r.ExpErrConf == 0 {
			pureKept++
		}
	}
	if pureKept == 0 {
		t.Fatalf("FilterReachableOnly should keep pure high-support rules")
	}
	for _, r := range paper.Rules {
		if r.ExpErrConf == 0 {
			t.Fatalf("FilterPaper kept a zero-expErrorConf rule")
		}
	}
	if len(all.Rules) < len(reachable.Rules) {
		t.Fatalf("FilterNone must keep at least as many rules")
	}
	if paper.Dropped == 0 {
		t.Fatalf("paper filter should report dropped rules")
	}
}

func TestCondMatching(t *testing.T) {
	nominal := Cond{Attr: 0, Val: 1}
	if !nominal.Matches([]dataset.Value{dataset.Nom(1)}) {
		t.Fatalf("nominal match failed")
	}
	if nominal.Matches([]dataset.Value{dataset.Nom(0)}) {
		t.Fatalf("nominal mismatch accepted")
	}
	if nominal.Matches([]dataset.Value{dataset.Null()}) {
		t.Fatalf("null must never match")
	}
	le := Cond{Attr: 0, IsNumeric: true, Thresh: 5}
	gt := Cond{Attr: 0, IsNumeric: true, Thresh: 5, Gt: true}
	if !le.Matches([]dataset.Value{dataset.Num(5)}) || le.Matches([]dataset.Value{dataset.Num(6)}) {
		t.Fatalf("<= condition broken")
	}
	if !gt.Matches([]dataset.Value{dataset.Num(6)}) || gt.Matches([]dataset.Value{dataset.Num(5)}) {
		t.Fatalf("> condition broken")
	}
}

func TestCondRender(t *testing.T) {
	s := dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501"),
		dataset.NewNumeric("KM", 0, 100),
	)
	if got := (Cond{Attr: 0, Val: 0}).Render(s); got != "BRV = 404" {
		t.Fatalf("Render = %q", got)
	}
	if got := (Cond{Attr: 1, IsNumeric: true, Thresh: 42.5, Gt: true}).Render(s); got != "KM > 42.5" {
		t.Fatalf("Render = %q", got)
	}
}

func TestRulesAreDisjointAndOrdered(t *testing.T) {
	tab := engineTable(t, 3000, 3, 25)
	ins := gbmInstances(t, tab)
	rs, err := (&Trainer{Opts: Options{MinConfidence: 0.8, Filter: FilterNone}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered by descending support.
	for i := 1; i < len(rs.Rules); i++ {
		if rs.Rules[i].Dist.N() > rs.Rules[i-1].Dist.N()+1e-9 {
			t.Fatalf("rules not ordered by support")
		}
	}
	// Tree paths are disjoint: every fully-specified row matches at most
	// one rule.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 500; trial++ {
		row := []dataset.Value{dataset.Nom(rng.Intn(3)), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3))}
		matches := 0
		for i := range rs.Rules {
			if rs.Rules[i].Matches(row) {
				matches++
			}
		}
		if matches > 1 {
			t.Fatalf("row matched %d rules; tree paths must be disjoint", matches)
		}
	}
}

func TestMaxErrConfCaching(t *testing.T) {
	d := mlcore.NewDistribution(2)
	d.Add(0, 999)
	d.Add(1, 1)
	r := Rule{Dist: d}
	_, pHat := d.Best()
	want := stats.ErrorConfidence(pHat, 0, d.N(), 0.95)
	// ExtractRules computes this; emulate and sanity-check monotonicity.
	if want < stats.ErrorConfidence(pHat, d.P(1), d.N(), 0.95) {
		t.Fatalf("max achievable confidence must dominate the observed one")
	}
	if math.IsNaN(want) || want <= 0 {
		t.Fatalf("unexpected max err conf: %g", want)
	}
	_ = r
}
