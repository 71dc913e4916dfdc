package audit

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

func qualityFixture(t *testing.T, rows int) (*Model, *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501"),
		dataset.NewNominal("GBM", "901", "911"),
		dataset.NewNumeric("DISP", 1000, 4000),
	)
	tab := dataset.NewTable(schema)
	rng := rand.New(rand.NewSource(42))
	row := make([]dataset.Value, 3)
	for i := 0; i < rows; i++ {
		brv := rng.Intn(2)
		row[0], row[1] = dataset.Nom(brv), dataset.Nom(brv)
		if rng.Intn(20) == 0 {
			row[1] = dataset.Nom(1 - brv) // a few contradictions
		}
		row[2] = dataset.Num(1500 + float64(brv)*1000 + rng.NormFloat64()*50)
		if rng.Intn(25) == 0 {
			row[2] = dataset.Null() // and a few nulls
		}
		tab.AppendRow(row)
	}
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return m, tab
}

// TestQualityProfile pins the baseline computation: rates normalized by
// rows, null rates counted from the table, histograms consistent with the
// deviation counts, and the parallel path identical to the sequential.
func TestQualityProfile(t *testing.T) {
	m, tab := qualityFixture(t, 2000)
	p := m.QualityProfile(tab, 1)

	if p.Rows != int64(tab.NumRows()) {
		t.Fatalf("Rows = %d, want %d", p.Rows, tab.NumRows())
	}
	if p.SuspiciousRate < 0 || p.SuspiciousRate > 1 {
		t.Fatalf("SuspiciousRate out of range: %v", p.SuspiciousRate)
	}
	if len(p.Attrs) != len(m.Attrs) {
		t.Fatalf("%d attr baselines for %d attr models", len(p.Attrs), len(m.Attrs))
	}
	for _, aq := range p.Attrs {
		if aq.Name != m.Schema.Attr(aq.Attr).Name {
			t.Fatalf("attr %d misnamed %q", aq.Attr, aq.Name)
		}
		if aq.DeviationRate < aq.SuspiciousRate {
			t.Fatalf("%s: suspicious rate %v exceeds deviation rate %v", aq.Name, aq.SuspiciousRate, aq.DeviationRate)
		}
		var hist int64
		for _, c := range aq.ConfHist {
			hist += c
		}
		if want := int64(aq.DeviationRate * float64(p.Rows)); abs64(hist-want) > 1 {
			t.Fatalf("%s: histogram sums to %d, deviation count is %d", aq.Name, hist, want)
		}
	}
	// The DISP column was nulled ~1/25 of the time.
	var disp *AttrQuality
	for i := range p.Attrs {
		if p.Attrs[i].Name == "DISP" {
			disp = &p.Attrs[i]
		}
	}
	if disp == nil || disp.NullRate < 0.01 || disp.NullRate > 0.1 {
		t.Fatalf("DISP null rate implausible: %+v", disp)
	}

	// The profile must not depend on the scoring pool geometry.
	for _, workers := range []int{0, 4, 8} {
		if q := m.QualityProfile(tab, workers); !reflect.DeepEqual(p, q) {
			t.Fatalf("profile differs at %d workers", workers)
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestConfHistBucket pins the bucket edges.
func TestConfHistBucket(t *testing.T) {
	cases := []struct {
		conf float64
		want int
	}{
		{0.0001, 0}, {0.05, 0}, {0.1, 1}, {0.55, 5}, {0.9999, 9}, {1.0, 9},
	}
	for _, tc := range cases {
		if got := ConfHistBucket(tc.conf); got != tc.want {
			t.Fatalf("ConfHistBucket(%v) = %d, want %d", tc.conf, got, tc.want)
		}
	}
}

// TestQualityProfileDimensions pins the new quality dimensions: distinct
// counts and uniqueness come from the audit's Dims, duplicate rate from
// verified exact-copy counting.
func TestQualityProfileDimensions(t *testing.T) {
	m, tab := qualityFixture(t, 2000)
	// The random fixture already contains natural exact duplicates (three
	// narrow columns); appending 40 copies must raise the verified
	// duplicate count by exactly 40.
	before := int64(m.QualityProfile(tab, 1).DuplicateRate*float64(tab.NumRows()) + 0.5)
	for r := 0; r < 40; r++ {
		tab.DuplicateRow(r)
	}
	p := m.QualityProfile(tab, 1)
	after := int64(p.DuplicateRate*float64(tab.NumRows()) + 0.5)
	if after != before+40 {
		t.Fatalf("duplicate count went %d -> %d after appending 40 copies", before, after)
	}
	for _, aq := range p.Attrs {
		if aq.Distinct <= 0 {
			t.Errorf("%s: Distinct = %d, want > 0", aq.Name, aq.Distinct)
		}
		if aq.Uniqueness < 0 || aq.Uniqueness > 1 {
			t.Errorf("%s: Uniqueness out of range: %g", aq.Name, aq.Uniqueness)
		}
		switch aq.Name {
		case "BRV", "GBM":
			if aq.Distinct != 2 {
				t.Errorf("%s: Distinct = %d, want 2 (binary domain)", aq.Name, aq.Distinct)
			}
			if aq.Uniqueness > 0.01 {
				t.Errorf("%s: Uniqueness = %g, want near 0 for a binary column", aq.Name, aq.Uniqueness)
			}
		case "DISP":
			if aq.Uniqueness < 0.5 {
				t.Errorf("DISP: Uniqueness = %g, want high for a continuous column", aq.Uniqueness)
			}
		}
	}

	// A hand-built Result without Dims must yield the identical profile:
	// the condenser measures the table directly in that case.
	res := m.AuditTable(tab)
	res.Dims = nil
	q := m.QualityProfileFromResult(tab, res)
	p2 := m.QualityProfile(tab, 1)
	if !reflect.DeepEqual(p2, q) {
		t.Fatalf("profile from dims-less result differs from dims-backed profile")
	}
}

// TestQualityProfileDuplicateRatePinned pins DuplicateRate, to the bit, on
// a duplicator-polluted QUIS sample (938 appended copies, of which 576
// stay exact after fuzzing and null pollution) to the value the audit
// core's own hash-and-verify counter produced before the profile took it
// from dedup.Detect's exact pass.
func TestQualityProfileDuplicateRatePinned(t *testing.T) {
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
	if err != nil {
		t.Fatal(err)
	}
	plan := pollute.Plan{DuplicateProb: 0.03, DuplicateFuzz: 0.4, Cell: []pollute.Configured{
		{Prob: 0.01, P: &pollute.NullValuePolluter{}},
	}}
	dirty, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(42)))
	m := &Model{Schema: dirty.Schema(), Opts: Options{}.WithDefaults()}
	const want = 0x3f931090d6be268f // 576.0 / 30938
	if got := m.QualityProfile(dirty, 1).DuplicateRate; math.Float64bits(got) != want {
		t.Fatalf("DuplicateRate = %v (%#x), want %v (%#x)", got, math.Float64bits(got), math.Float64frombits(want), uint64(want))
	}
}
