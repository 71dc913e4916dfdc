package evalx

import (
	"math/rand"
	"reflect"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

// TestSparseAndDenseResultsAgree: a library Result keeps reports only for
// the rows that have one, while a hand-built Result (the benchmark's
// oracle is one) holds a report per row with Rows unset. On a polluted
// QUIS table every consumer must read both alike: the confusion matrix,
// the per-kind breakdown, the corrected table, the tallies and the
// quality profile.
func TestSparseAndDenseResultsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("QUIS fixture is expensive")
	}
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
	if err != nil {
		t.Fatal(err)
	}
	plan := pollute.Plan{
		Cell: []pollute.Configured{
			{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
			{Prob: 0.01, P: &pollute.NullValuePolluter{}},
		},
		DuplicateProb: 0.01,
		DeleteProb:    0.01,
	}
	dirty, log := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(42)))
	m, err := audit.Induce(dirty, audit.Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	sparse := m.AuditTable(dirty)
	n := dirty.NumRows()
	if sparse.Rows != n || len(sparse.Reports) == 0 || len(sparse.Reports) >= n {
		t.Fatalf("library result keeps %d reports of %d rows (Rows %d)", len(sparse.Reports), n, sparse.Rows)
	}

	// Built the way the benchmark's oracle builds its Result: one report
	// per row, Rows unset. verdicts carries the verdict fields only and no
	// dimensions, as the oracle's does; full carries every report whole
	// and the audit's dimensions, which TallyResult reads nulls from.
	verdicts := &audit.Result{Reports: make([]audit.RecordReport, n), NumAttrs: dirty.NumCols()}
	full := &audit.Result{Reports: make([]audit.RecordReport, n), NumAttrs: dirty.NumCols(), Dims: sparse.Dims}
	for row, rep := range sparse.ByRow(n) {
		verdicts.Reports[row] = audit.RecordReport{Row: row, ID: dirty.ID(row)}
		full.Reports[row] = verdicts.Reports[row]
		if rep != nil {
			verdicts.Reports[row].ErrorConf, verdicts.Reports[row].Suspicious = rep.ErrorConf, rep.Suspicious
			full.Reports[row] = *rep
		}
	}

	c := Evaluate(dirty, log, sparse)
	if c.TP == 0 || c.FP == 0 || c.Total() != n {
		t.Fatalf("confusion %+v over %d rows proves nothing", c, n)
	}
	for name, dense := range map[string]*audit.Result{"verdicts": verdicts, "full": full} {
		if got := Evaluate(dirty, log, dense); got != c {
			t.Errorf("%s: Evaluate %+v, sparse %+v", name, got, c)
		}
		if got, want := EvaluateByKind(dirty, log, dense), EvaluateByKind(dirty, log, sparse); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EvaluateByKind %+v, sparse %+v", name, got, want)
		}
	}

	if !sameTable(m.ApplyCorrections(dirty, full), m.ApplyCorrections(dirty, sparse)) {
		t.Error("ApplyCorrections differs between the dense and the sparse result")
	}
	susDense, talliesDense := m.TallyResult(full)
	susSparse, talliesSparse := m.TallyResult(sparse)
	if susDense != susSparse || !reflect.DeepEqual(talliesDense, talliesSparse) {
		t.Errorf("TallyResult: dense %d %+v, sparse %d %+v", susDense, talliesDense, susSparse, talliesSparse)
	}
	if got, want := m.QualityProfileFromResult(dirty, full), m.QualityProfileFromResult(dirty, sparse); !reflect.DeepEqual(got, want) {
		t.Errorf("QualityProfileFromResult: dense %+v, sparse %+v", got, want)
	}
}

// sameTable reports whether two tables hold the same IDs and cells.
func sameTable(a, b *dataset.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for r := 0; r < a.NumRows(); r++ {
		if a.ID(r) != b.ID(r) {
			return false
		}
		for c := 0; c < a.NumCols(); c++ {
			if !a.Get(r, c).Equal(b.Get(r, c)) {
				return false
			}
		}
	}
	return true
}
