package audit

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

// The re-induction differential suite. A family without a warm start
// (naive Bayes, kNN) retrains over the frozen class bins, so where no
// state is frozen (nominal class attributes under naive Bayes) its
// successor must gob-serialize byte-for-byte like a from-scratch Induce
// on the new table. The warm-started families are covered by the
// quality-equivalence suite in reinduce_quality_test.go.

// reinduceFixture returns two pollutions of the same clean QUIS slice:
// the table the base model was induced on, and the "drifted" table a
// re-induction sees. They share most rows.
func reinduceFixture(t testing.TB, rows int) (prev, cur *dataset.Table) {
	t.Helper()
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clean := dataset.NewTable(sample.Data.Schema())
	for r := 0; r < rows; r++ {
		clean.AppendRow(sample.Data.Row(r))
	}
	plan := pollute.Plan{Cell: []pollute.Configured{
		{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
		{Prob: 0.01, P: &pollute.NullValuePolluter{}},
	}}
	prev, _ = pollute.Run(clean, plan, rand.New(rand.NewSource(42)))
	cur, _ = pollute.Run(clean, plan, rand.New(rand.NewSource(43)))
	return prev, cur
}

// modelledAttrs lists every class attribute the model covers.
func modelledAttrs(m *Model) []int {
	attrs := make([]int, len(m.Attrs))
	for i, am := range m.Attrs {
		attrs[i] = am.Class
	}
	return attrs
}

// modelBytes gob-serializes a model with the wall-time field zeroed.
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	cp := Model{Schema: m.Schema, Attrs: m.Attrs, Opts: m.Opts, TrainRows: m.TrainRows, InduceTime: m.InduceTime}
	cp.InduceTime = 0
	var buf bytes.Buffer
	if err := Encode(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func attrModelBytes(t *testing.T, am *AttrModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(am); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReinduceDeltaMatchesReplacementExactFamilies: ReinduceOptions.Prev
// is documented as having no effect, so re-inducing with the previous
// table and without it must produce byte-identical successors in every
// family.
func TestReinduceDeltaMatchesReplacementExactFamilies(t *testing.T) {
	prev, cur := reinduceFixture(t, 1200)
	for _, kind := range []InducerKind{InducerNaiveBayes, InducerKNN, InducerOneR,
		InducerPrism, InducerC45Audit, InducerC45, InducerID3} {
		t.Run(string(kind), func(t *testing.T) {
			m, err := Induce(prev, Options{MinConfidence: 0.8, Inducer: kind})
			if err != nil {
				t.Fatal(err)
			}
			attrs := modelledAttrs(m)
			withDelta, err := m.ReinduceAttrs(cur, attrs, ReinduceOptions{Prev: prev})
			if err != nil {
				t.Fatal(err)
			}
			replaced, err := m.ReinduceAttrs(cur, attrs, ReinduceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(modelBytes(t, withDelta), modelBytes(t, replaced)) {
				t.Fatal("re-induction with Prev is not byte-identical to the one without")
			}
		})
	}
}

// TestReinduceNaiveBayesMatchesFullRetrain: naive Bayes freezes nothing
// for nominal class attributes (no discretizer, smoothing fixed), so the
// incremental successor must be byte-identical to a from-scratch Induce
// on the new table — attribute by attribute.
func TestReinduceNaiveBayesMatchesFullRetrain(t *testing.T) {
	prev, cur := reinduceFixture(t, 1200)
	opts := Options{MinConfidence: 0.8, Inducer: InducerNaiveBayes}
	m, err := Induce(prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := m.ReinduceAttrs(cur, modelledAttrs(m), ReinduceOptions{Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Induce(cur, opts)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, am := range inc.Attrs {
		if am.Disc != nil {
			continue // numeric classes freeze the previous bins by design
		}
		want := fresh.attrModelFor(am.Class)
		if want == nil {
			t.Fatalf("attribute %d modelled incrementally but not by Induce", am.Class)
		}
		if !bytes.Equal(attrModelBytes(t, am), attrModelBytes(t, want)) {
			t.Errorf("attribute %s: incremental successor differs from full retrain", m.Schema.Attr(am.Class).Name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("fixture has no nominal class attributes to compare")
	}
}

// TestReinduceSharesUntouchedAttrModels: a partial re-induction must
// share every untouched AttrModel pointer-for-pointer, replace the
// requested ones, and leave the receiver byte-identical to before.
func TestReinduceSharesUntouchedAttrModels(t *testing.T) {
	prev, cur := reinduceFixture(t, 800)
	m, err := Induce(prev, Options{MinConfidence: 0.8, Inducer: InducerNaiveBayes})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Attrs) < 2 {
		t.Fatal("fixture modelled fewer than two attributes")
	}
	before := modelBytes(t, m)
	target := m.Attrs[0].Class

	succ, err := m.ReinduceAttrs(cur, []int{target}, ReinduceOptions{Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if succ.Attrs[0] == m.Attrs[0] {
		t.Error("re-induced attribute still shares the predecessor's AttrModel")
	}
	for i := 1; i < len(m.Attrs); i++ {
		if succ.Attrs[i] != m.Attrs[i] {
			t.Errorf("untouched attribute %d was not shared", m.Attrs[i].Class)
		}
	}
	if succ.TrainRows != cur.NumRows() {
		t.Errorf("successor TrainRows = %d, want %d", succ.TrainRows, cur.NumRows())
	}
	if !bytes.Equal(before, modelBytes(t, m)) {
		t.Error("ReinduceAttrs mutated the receiver")
	}
}

// TestReinduceAllHintsHoldBuildsNoRankTable: an Induce ranks the
// table's numeric columns once for all its trees; re-inducing every
// attribute incrementally onto the very table the model came from keeps
// every tree's hints, so no full split search runs and no column is
// ranked, while a drifted table's fallback searches rank through the
// call's cache.
func TestReinduceAllHintsHoldBuildsNoRankTable(t *testing.T) {
	prev, cur := reinduceFixture(t, 1200)
	fallbacks := 0
	for _, kind := range []InducerKind{InducerC45Audit, InducerC45, InducerID3} {
		cold := mlcore.NewRankCache(prev)
		m, err := induce(prev, Options{MinConfidence: 0.8, Inducer: kind}, cold)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Built() != 2 {
			t.Fatalf("%s: Induce ranked %d columns, want DISP and PROD", kind, cold.Built())
		}
		warm := mlcore.NewRankCache(prev)
		if _, err := m.reinduceAttrs(prev, modelledAttrs(m), ReinduceOptions{}, warm); err != nil {
			t.Fatal(err)
		}
		if n := warm.Built(); n != 0 {
			t.Fatalf("%s: re-induction with every hint holding ranked %d columns", kind, n)
		}
		// On the drifted table some hints fail, and the fallback searches
		// rank through the call's cache.
		drifted := mlcore.NewRankCache(cur)
		if _, err := m.reinduceAttrs(cur, modelledAttrs(m), ReinduceOptions{}, drifted); err != nil {
			t.Fatal(err)
		}
		fallbacks += drifted.Built()
	}
	if fallbacks == 0 {
		t.Fatal("no fallback search on the drifted table ranked a column through the call's cache")
	}
}

// TestReinduceFullModeRederivesBins: full mode must re-derive the
// discretizer from the new table instead of freezing the old bins, making
// it identical to what Induce would build for that attribute.
func TestReinduceFullModeRederivesBins(t *testing.T) {
	prev, cur := reinduceFixture(t, 800)
	opts := Options{MinConfidence: 0.8, Inducer: InducerNaiveBayes}
	m, err := Induce(prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Induce(cur, opts)
	if err != nil {
		t.Fatal(err)
	}
	succ, err := m.ReinduceAttrs(cur, modelledAttrs(m), ReinduceOptions{Mode: ReinduceFull})
	if err != nil {
		t.Fatal(err)
	}
	for _, am := range succ.Attrs {
		want := fresh.attrModelFor(am.Class)
		if want == nil || !bytes.Equal(attrModelBytes(t, am), attrModelBytes(t, want)) {
			t.Errorf("attribute %s: full-mode re-induction differs from Induce", m.Schema.Attr(am.Class).Name)
		}
	}
}

// TestReinduceErrors: unmodelled attributes, unknown modes and schema
// drift must all fail loudly instead of silently producing a model that
// scores garbage.
func TestReinduceErrors(t *testing.T) {
	prev, cur := reinduceFixture(t, 600)
	m, err := Induce(prev, Options{MinConfidence: 0.8, Inducer: InducerNaiveBayes,
		SkipClasses: []string{"BRV"}})
	if err != nil {
		t.Fatal(err)
	}
	skipped := prev.Schema().Index("BRV")
	if _, err := m.ReinduceAttrs(cur, []int{skipped}, ReinduceOptions{}); err == nil {
		t.Error("re-inducing an unmodelled attribute did not fail")
	}
	if _, err := m.ReinduceAttrs(cur, modelledAttrs(m), ReinduceOptions{Mode: "sideways"}); err == nil {
		t.Error("unknown mode did not fail")
	}
	other, err := dataset.NewSchema(dataset.NewNominal("X", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReinduceAttrs(dataset.NewTable(other), modelledAttrs(m), ReinduceOptions{}); err == nil {
		t.Error("schema drift did not fail")
	}
}
