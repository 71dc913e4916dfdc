package tdg

import (
	"math"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

// Tests for the generator guards that calibrate the §6.1 operating regime
// (see the guard fields of RuleGenParams): premise coverage, value/attribute
// load caps, region concentration, and overlap consistency.

func TestOverlapConsistent(t *testing.T) {
	s := tdgSchema(t)
	// Disjoint premises: trivially consistent.
	a := Rule{
		Premise:    Atom{Kind: EqConst, A: 0, Val: v(0)},
		Conclusion: Atom{Kind: EqConst, A: 1, Val: v(0)},
	}
	b := Rule{
		Premise:    Atom{Kind: EqConst, A: 0, Val: v(1)},
		Conclusion: Atom{Kind: EqConst, A: 1, Val: v(1)},
	}
	ok, err := OverlapConsistent(s, a, b)
	if err != nil || !ok {
		t.Fatalf("disjoint premises must be consistent: %v", err)
	}
	// Overlapping incomparable premises with contradictory conclusions:
	// the case Definition 6 misses.
	c := Rule{
		Premise:    Atom{Kind: EqConst, A: 2, Val: v(0)}, // C = c1 overlaps A = a1
		Conclusion: Atom{Kind: EqConst, A: 1, Val: v(1)}, // contradicts a's conclusion
	}
	ok, err = OverlapConsistent(s, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("contradictory conclusions on overlapping premises must be inconsistent")
	}
	// Same overlap, compatible conclusions.
	d := Rule{
		Premise:    Atom{Kind: EqConst, A: 2, Val: v(0)},
		Conclusion: Atom{Kind: LtConst, A: 3, Val: n(50)},
	}
	ok, err = OverlapConsistent(s, a, d)
	if err != nil || !ok {
		t.Fatalf("compatible conclusions must be consistent: %v", err)
	}
}

func TestCoverageEstimationUniform(t *testing.T) {
	s := tdgSchema(t)
	g := &ruleGen{schema: s, p: RuleGenParams{}.WithDefaults(), rng: rand.New(rand.NewSource(1))}
	// A = a1 covers 1/3 of uniform rows.
	got := g.coverage(Atom{Kind: EqConst, A: 0, Val: v(0)})
	if math.Abs(got-1.0/3.0) > 0.1 {
		t.Fatalf("coverage(A=a1) = %g, want ~0.33", got)
	}
	// N < 50 covers ~half of [0,100].
	got = g.coverage(Atom{Kind: LtConst, A: 3, Val: n(50)})
	if math.Abs(got-0.5) > 0.12 {
		t.Fatalf("coverage(N<50) = %g, want ~0.5", got)
	}
}

func TestCoverageEstimationUsesStartDists(t *testing.T) {
	s := tdgSchema(t)
	// A heavily skewed start makes A = a1 nearly certain.
	start := StartDists{Cat: map[int]*stats.Categorical{0: stats.MustCategorical(98, 1, 1)}}
	p := RuleGenParams{Start: &start}.WithDefaults()
	g := &ruleGen{schema: s, p: p, rng: rand.New(rand.NewSource(2))}
	got := g.coverage(Atom{Kind: EqConst, A: 0, Val: v(0)})
	if got < 0.9 {
		t.Fatalf("start-aware coverage = %g, want ~0.98", got)
	}
}

func TestValueContribs(t *testing.T) {
	// Conjunction: full coverage lands on each pinned value.
	conj := And{Subs: []Formula{
		Atom{Kind: EqConst, A: 0, Val: v(1)},
		Atom{Kind: EqConst, A: 1, Val: v(2)},
	}}
	contribs, ok := valueContribs(conj, 0.2)
	if !ok || len(contribs) != 2 {
		t.Fatalf("contribs = %v", contribs)
	}
	if math.Abs(contribs[[2]int{0, 1}]-0.2) > 1e-12 || math.Abs(contribs[[2]int{1, 2}]-0.2) > 1e-12 {
		t.Fatalf("conjunction contribs wrong: %v", contribs)
	}
	// Disjunction: coverage splits across disjuncts.
	disj := Or{Subs: []Formula{
		Atom{Kind: EqConst, A: 0, Val: v(1)},
		Atom{Kind: EqConst, A: 0, Val: v(2)},
	}}
	contribs, ok = valueContribs(disj, 0.2)
	if !ok {
		t.Fatalf("disjunction contribs failed")
	}
	if math.Abs(contribs[[2]int{0, 1}]-0.1) > 1e-12 {
		t.Fatalf("disjunction split wrong: %v", contribs)
	}
	// Non-pinning conclusions contribute nothing.
	contribs, ok = valueContribs(Atom{Kind: NeqConst, A: 0, Val: v(0)}, 0.3)
	if !ok || len(contribs) != 0 {
		t.Fatalf("NeqConst should not pin values: %v", contribs)
	}
}

func TestGeneratedRuleSetRespectsGuards(t *testing.T) {
	s := tdgSchema(t)
	p := RuleGenParams{NumRules: 12}.WithDefaults()
	rng := rand.New(rand.NewSource(3))
	rules, err := GenerateRuleSet(s, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := &ruleGen{schema: s, p: p, rng: rand.New(rand.NewSource(4))}
	for _, r := range rules {
		cov := g.coverage(r.Premise)
		// Allow sampling slack over the 0.3 cap.
		if cov > p.MaxPremiseCoverage+0.12 {
			t.Fatalf("premise coverage %g exceeds the cap: %s", cov, r.Render(s))
		}
		// No isnull conclusions.
		for _, conj := range mustDNF(t, r.Conclusion) {
			if conjForcesNull(conj) {
				t.Fatalf("conclusion prescribes null: %s", r.Render(s))
			}
		}
	}
	// Pairwise overlap consistency (the strict default).
	for i := range rules {
		for j := i + 1; j < len(rules); j++ {
			ok, err := OverlapConsistent(s, rules[i], rules[j])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("generated rules %d and %d are overlap-inconsistent", i, j)
			}
		}
	}
}

func mustDNF(t *testing.T, f Formula) []Conj {
	t.Helper()
	ds, err := DNF(f)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGeneratedDataHasNoSpuriousNulls(t *testing.T) {
	// With the isnull-deferral in repair and no isnull conclusions, clean
	// generated data should be (almost) entirely non-null.
	s := tdgSchema(t)
	rng := rand.New(rand.NewSource(5))
	rules, err := GenerateRuleSet(s, RuleGenParams{NumRules: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Generate(s, rules, DataGenParams{NumRecords: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			if tab.Get(r, c).IsNull() {
				nulls++
			}
		}
	}
	if frac := float64(nulls) / float64(tab.NumRows()*tab.NumCols()); frac > 0.01 {
		t.Fatalf("clean data contains %.2f%% nulls; generator leaks them", frac*100)
	}
}

func TestEscalationFillsDenseRequests(t *testing.T) {
	// 150 rules on the 6-attribute test schema saturates the default soft
	// caps; escalation must still deliver (or come close) without error
	// for a moderately dense request.
	s := dataset.MustSchema(
		dataset.NewNominal("A", "a0", "a1", "a2", "a3", "a4", "a5"),
		dataset.NewNominal("B", "b0", "b1", "b2", "b3", "b4", "b5"),
		dataset.NewNominal("C", "c0", "c1", "c2", "c3", "c4", "c5"),
		dataset.NewNominal("D", "d0", "d1", "d2", "d3", "d4", "d5"),
		dataset.NewNumeric("X", 0, 100),
		dataset.NewNumeric("Y", 0, 100),
	)
	rng := rand.New(rand.NewSource(6))
	rules, err := GenerateRuleSet(s, RuleGenParams{NumRules: 60}, rng)
	if err != nil {
		t.Fatalf("dense request failed: %v (got %d rules)", err, len(rules))
	}
	if len(rules) != 60 {
		t.Fatalf("got %d of 60 rules", len(rules))
	}
}
