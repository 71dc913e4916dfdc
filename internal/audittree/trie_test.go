package audittree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// linearPredict is the pre-trie matching semantics: first rule whose
// antecedent holds, in rule-set order.
func linearPredict(rs *RuleSet, row []dataset.Value) mlcore.Distribution {
	for i := range rs.Rules {
		if rs.Rules[i].Matches(row) {
			return rs.Rules[i].Dist
		}
	}
	return mlcore.NewDistribution(rs.K)
}

// TestTrieMatchesLinearScan proves the compiled matcher is behaviourally
// identical to the linear first-match scan on a trained rule set,
// including null and out-of-domain values, and that PredictInto hands
// back a copy: overwriting its answer leaves the next answer unchanged.
func TestTrieMatchesLinearScan(t *testing.T) {
	tab := engineTable(t, 5000, 3, 31)
	ins := gbmInstances(t, tab)
	rs, err := (&Trainer{Opts: Options{MinConfidence: 0.8, Filter: FilterNone}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Compile(); err != nil {
		t.Fatalf("tree-extracted rule set must compile to a trie: %v", err)
	}

	rng := rand.New(rand.NewSource(99))
	val := func(k int) dataset.Value {
		switch rng.Intn(5) {
		case 0:
			return dataset.Null()
		default:
			return dataset.Nom(rng.Intn(k + 1)) // +1 exercises out-of-domain codes
		}
	}
	for i := 0; i < 5000; i++ {
		row := []dataset.Value{val(3), val(2), val(3)}
		want := linearPredict(rs, row).Clone()
		var into mlcore.Distribution
		rs.PredictInto(row, &into)
		if !reflect.DeepEqual(want.Counts, into.Counts) || want.Total != into.Total {
			t.Fatalf("row %v: PredictInto %+v, linear %+v", row, into, want)
		}
		for c := range into.Counts {
			into.Counts[c] = -1
		}
		var again mlcore.Distribution
		rs.PredictInto(row, &again)
		if !reflect.DeepEqual(want.Counts, again.Counts) || want.Total != again.Total {
			t.Fatalf("row %v: PredictInto aliases the rule set's distribution: %+v after overwrite, want %+v", row, again, want)
		}
	}
}

// TestTrieRejectsNonTreeShapes: rule sets whose match outcome could
// depend on rule order have no trie, and Compile says so.
func TestTrieRejectsNonTreeShapes(t *testing.T) {
	dist := func(w float64) mlcore.Distribution {
		d := mlcore.NewDistribution(2)
		d.Add(0, w)
		return d
	}
	cases := []struct {
		name  string
		rules []Rule
	}{
		{"prefix-of-another", []Rule{
			{Conds: []Cond{{Attr: 0, Val: 1}, {Attr: 1, Val: 0}}, Dist: dist(5)},
			{Conds: []Cond{{Attr: 0, Val: 1}}, Dist: dist(3)},
		}},
		{"duplicate-path", []Rule{
			{Conds: []Cond{{Attr: 0, Val: 1}}, Dist: dist(5)},
			{Conds: []Cond{{Attr: 0, Val: 1}}, Dist: dist(3)},
		}},
		{"mixed-attrs-at-depth", []Rule{
			{Conds: []Cond{{Attr: 0, Val: 1}}, Dist: dist(5)},
			{Conds: []Cond{{Attr: 1, Val: 0}}, Dist: dist(3)},
		}},
		{"mixed-thresholds", []Rule{
			{Conds: []Cond{{Attr: 0, IsNumeric: true, Thresh: 1}}, Dist: dist(5)},
			{Conds: []Cond{{Attr: 0, IsNumeric: true, Thresh: 2, Gt: true}}, Dist: dist(3)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if trie := compileRules(tc.rules); trie != nil {
				t.Fatal("non-tree rule set must not compile")
			}
			if err := (&RuleSet{Rules: tc.rules, K: 2}).Compile(); err == nil {
				t.Fatal("Compile accepted a non-tree rule set")
			}
		})
	}
}

// TestTrieNaNMatchesLinearScan: a NaN numeric value fails both sides of
// a threshold split in Cond.Matches, so the trie must answer exactly
// like the linear scan — no rule, empty distribution.
func TestTrieNaNMatchesLinearScan(t *testing.T) {
	dist := func(w float64) mlcore.Distribution {
		d := mlcore.NewDistribution(2)
		d.Add(0, w)
		return d
	}
	rules := []Rule{
		{Conds: []Cond{{Attr: 0, IsNumeric: true, Thresh: 10}}, Dist: dist(5)},
		{Conds: []Cond{{Attr: 0, IsNumeric: true, Thresh: 10, Gt: true}}, Dist: dist(3)},
	}
	trie := compileRules(rules)
	if trie == nil {
		t.Fatal("a binary threshold split must compile")
	}
	rs := &RuleSet{Rules: rules, K: 2}
	row := []dataset.Value{dataset.Num(math.NaN())}
	want := linearPredict(rs, row)
	if want.N() != 0 {
		t.Fatal("precondition: the linear scan must not match NaN")
	}
	var d mlcore.Distribution
	rs.PredictInto(row, &d)
	if d.N() != 0 || d.K() != 2 {
		t.Fatalf("PredictInto matched a NaN value: %+v", d)
	}
}

// TestTrieEmptyRuleSet: a fully filtered rule set answers every row with
// an empty distribution.
func TestTrieEmptyRuleSet(t *testing.T) {
	rs := &RuleSet{K: 3}
	row := []dataset.Value{dataset.Nom(0)}
	var d mlcore.Distribution
	rs.PredictInto(row, &d)
	if d.N() != 0 || d.K() != 3 {
		t.Fatalf("PredictInto on empty rule set: got %+v", d)
	}
}
