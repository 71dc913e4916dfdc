package audit

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
)

// TestApplyCorrections seeds deviations into a consistent table and
// verifies §5.3: every suspicious record's best-finding attribute is
// replaced by the classifier's suggestion, everything else is untouched,
// and the input table is not mutated.
func TestApplyCorrectionsTableInvariants(t *testing.T) {
	tab := engineTable(t, 5000, 81)
	// Seed two deviations: GBM inconsistent with BRV on rows 0 and 7.
	for _, r := range []int{0, 7} {
		brv := tab.Get(r, 0).NomIdx()
		tab.Set(r, 2, dataset.Nom((brv+1)%3))
	}
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	res := m.AuditTable(tab)
	if res.NumSuspicious() == 0 {
		t.Fatal("fixture produced no suspicious records")
	}

	fixed := m.ApplyCorrections(tab, res)
	if fixed == tab {
		t.Fatal("ApplyCorrections must return a copy, not the input")
	}

	corrected := 0
	for r, rep := range res.ByRow(tab.NumRows()) {
		for c := 0; c < tab.NumCols(); c++ {
			before, after := tab.Get(r, c), fixed.Get(r, c)
			isCorrection := rep != nil && rep.Suspicious && rep.Best != nil && c == rep.Best.Attr
			if isCorrection {
				if !after.Equal(rep.Best.Suggestion) {
					t.Fatalf("row %d col %d: want suggestion %v, got %v", r, c, rep.Best.Suggestion, after)
				}
				if !after.Equal(before) {
					corrected++
				}
				continue
			}
			if !after.Equal(before) {
				t.Fatalf("row %d col %d changed without a suspicious best finding: %v -> %v", r, c, before, after)
			}
		}
	}
	if corrected == 0 {
		t.Fatal("no cell was actually corrected")
	}

	// The seeded rows must be restored to the consistent GBM value.
	for _, r := range []int{0, 7} {
		brv := fixed.Get(r, 0).NomIdx()
		if fixed.Get(r, 2).NomIdx() != brv {
			t.Fatalf("row %d: seeded deviation not corrected (BRV %d, GBM %d)", r, brv, fixed.Get(r, 2).NomIdx())
		}
	}

	// Re-auditing the corrected table must flag fewer records.
	if again := m.AuditTable(fixed); again.NumSuspicious() >= res.NumSuspicious() {
		t.Fatalf("corrections did not reduce suspicious records: %d -> %d",
			res.NumSuspicious(), again.NumSuspicious())
	}
}

// TestApplyCorrectionsSkipsNonSuspicious: a result with no suspicious
// reports yields an identical copy.
func TestApplyCorrectionsNoOpWhenNotSuspicious(t *testing.T) {
	tab := engineTable(t, 2000, 82)
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	res := m.AuditTable(tab)
	// Force everything non-suspicious regardless of the audit outcome.
	for i := range res.Reports {
		res.Reports[i].Suspicious = false
	}
	fixed := m.ApplyCorrections(tab, res)
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			if !fixed.Get(r, c).Equal(tab.Get(r, c)) {
				t.Fatalf("row %d col %d changed despite no suspicious reports", r, c)
			}
		}
	}
}

// TestDescribeFinding renders the §6.2 report line for nominal, numeric
// and null observations.
func TestDescribeFindingRendering(t *testing.T) {
	tab := engineTable(t, 5000, 83)
	brv := tab.Get(0, 0).NomIdx()
	tab.Set(0, 2, dataset.Nom((brv+1)%3)) // nominal deviation on GBM
	tab.Set(1, 2, dataset.Null())         // missing GBM
	// FilterReachableOnly keeps the pure rules (as in the §2.2 offline
	// scenario), so the clean BRV of row 1 still selects a rule and the
	// null observation yields a finding.
	m, err := Induce(tab, Options{MinConfidence: 0.8, Filter: audittree.FilterReachableOnly})
	if err != nil {
		t.Fatal(err)
	}
	schema := tab.Schema()

	rep := m.CheckRow(tab.Row(0))
	if rep.Best == nil {
		t.Fatal("seeded deviation produced no best finding")
	}
	text := m.DescribeFinding(rep.Best)
	attr := schema.Attr(rep.Best.Attr)
	if !strings.Contains(text, attr.Name) {
		t.Fatalf("description must name the attribute %q: %q", attr.Name, text)
	}
	observed := attr.Domain[rep.Best.Observed]
	expected := attr.Domain[rep.Best.Predicted]
	if !strings.Contains(text, "observed "+observed) || !strings.Contains(text, "expected "+expected) {
		t.Fatalf("description must carry observed/expected labels: %q", text)
	}
	wantConf := fmt.Sprintf("%.2f%%", rep.Best.ErrorConf*100)
	if !strings.Contains(text, wantConf) {
		t.Fatalf("description must carry the error confidence %s: %q", wantConf, text)
	}

	// A null observation renders as "?".
	nullRep := m.CheckRow(tab.Row(1))
	var nullFinding *Finding
	for i := range nullRep.Findings {
		if nullRep.Findings[i].Attr == 2 && nullRep.Findings[i].Observed < 0 {
			nullFinding = &nullRep.Findings[i]
		}
	}
	if nullFinding == nil {
		t.Fatal("missing GBM produced no finding with a null observation")
	}
	if text := m.DescribeFinding(nullFinding); !strings.Contains(text, "observed ?") {
		t.Fatalf("null observation must render as ?: %q", text)
	}

	// A finding for an unmodelled attribute renders without labels
	// instead of panicking.
	orphan := &Finding{Attr: 1, Observed: 0, Predicted: 1}
	mSkip, err := Induce(tab, Options{MinConfidence: 0.8, SkipClasses: []string{"KBM"}})
	if err != nil {
		t.Fatal(err)
	}
	if text := mSkip.DescribeFinding(orphan); !strings.Contains(text, "KBM") {
		t.Fatalf("orphan finding must still name its attribute: %q", text)
	}
}

// TestSparseAndDenseResultsAgree: the audit's own consumers of a Result —
// ApplyCorrections, TallyResult and QualityProfileFromResult — read a
// library Result, which keeps reports only for the rows that have one,
// exactly as its dense rendering with one report per row and Rows unset,
// on a polluted QUIS table.
func TestSparseAndDenseResultsAgree(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	sparse := m.AuditTable(dirty)
	if len(sparse.Reports) == 0 || len(sparse.Reports) >= dirty.NumRows() {
		t.Fatalf("library result keeps %d reports of %d rows", len(sparse.Reports), dirty.NumRows())
	}
	dense := denseResult(t, sparse, dirty)

	a, b := m.ApplyCorrections(dirty, dense), m.ApplyCorrections(dirty, sparse)
	for r := 0; r < dirty.NumRows(); r++ {
		for c := 0; c < dirty.NumCols(); c++ {
			if !a.Get(r, c).Equal(b.Get(r, c)) {
				t.Fatalf("ApplyCorrections: row %d col %d is %v from the dense result, %v from the sparse", r, c, a.Get(r, c), b.Get(r, c))
			}
		}
	}
	susDense, talliesDense := m.TallyResult(dense)
	susSparse, talliesSparse := m.TallyResult(sparse)
	if susDense != susSparse || !reflect.DeepEqual(talliesDense, talliesSparse) {
		t.Fatalf("TallyResult: dense %d %+v, sparse %d %+v", susDense, talliesDense, susSparse, talliesSparse)
	}
	if got, want := m.QualityProfileFromResult(dirty, dense), m.QualityProfileFromResult(dirty, sparse); !reflect.DeepEqual(got, want) {
		t.Fatalf("QualityProfileFromResult: dense %+v, sparse %+v", got, want)
	}
}
