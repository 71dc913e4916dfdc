package audit

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/quis"
	"dataaudit/internal/stats"
)

// checkRowReference is the pre-scratch scoring path, kept verbatim as the
// differential oracle: per-attribute PredictInto into a freshly allocated
// distribution, findings accumulated in a fresh slice. CheckRowScratch
// must reproduce its output bit for bit.
func checkRowReference(m *Model, row []dataset.Value) RecordReport {
	rep := RecordReport{Row: -1, ID: -1}
	for _, am := range m.Attrs {
		var dist mlcore.Distribution
		am.Classifier.PredictInto(row, &dist)
		if dist.N() <= 0 {
			continue
		}
		cHat, pHat := dist.Best()
		obs := am.ClassIndex(row[am.Class])
		f := Finding{
			Attr:       am.Class,
			Observed:   obs,
			Predicted:  cHat,
			PHat:       pHat,
			N:          dist.N(),
			Suggestion: am.SuggestedValue(cHat),
		}
		if obs >= 0 {
			f.PObs = dist.P(obs)
		}
		if obs != cHat {
			f.ErrorConf = stats.ErrorConfidence(pHat, f.PObs, dist.N(), m.Opts.ConfLevel)
		}
		if f.ErrorConf > 0 {
			rep.Findings = append(rep.Findings, f)
			if f.ErrorConf > rep.ErrorConf {
				rep.ErrorConf = f.ErrorConf
				rep.Best = &rep.Findings[len(rep.Findings)-1]
			}
		}
	}
	rep.RepointBest()
	rep.Suspicious = rep.ErrorConf >= m.Opts.MinConfidence
	return rep
}

// auditTableReference scores a table through the reference path. The
// quality dimensions have no row-at-a-time reference implementation of
// their own — TableDims is the independently chunked accumulator — so the
// byte-identity the differential asserts covers the scoring paths'
// agreement with it.
func auditTableReference(m *Model, tab *dataset.Table) *Result {
	res := &Result{Reports: make([]RecordReport, tab.NumRows()), NumAttrs: m.Schema.Len(), Dims: TableDims(tab)}
	row := make([]dataset.Value, tab.NumCols())
	for r := 0; r < tab.NumRows(); r++ {
		tab.RowInto(r, row)
		rep := checkRowReference(m, row)
		rep.Row = r
		rep.ID = tab.ID(r)
		res.Reports[r] = rep
	}
	return res
}

// gobBytes serializes a Result with the wall-time field zeroed, for
// byte-identity comparison.
func gobBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	cp := *res
	cp.CheckTime = 0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// denseResult renders a library Result the way a hand-built one holds
// every row: one report per row of tab, a clean row's as its Row and ID,
// Rows unset. The row-path reference is dense, so differential tests
// compare its gob bytes with this rendering. It fails t unless res is
// sparse: Rows counts tab's rows, and every kept report is not Empty and
// lies past the one before it, inside the table.
func denseResult(t *testing.T, res *Result, tab *dataset.Table) *Result {
	t.Helper()
	n := tab.NumRows()
	if res.Rows != n {
		t.Fatalf("result counts %d rows, the table holds %d", res.Rows, n)
	}
	for i := range res.Reports {
		rep := &res.Reports[i]
		if rep.Empty() || rep.Row < 0 || rep.Row >= n || i > 0 && rep.Row <= res.Reports[i-1].Row {
			t.Fatalf("kept report %d (row %d, empty %v) breaks the sparse layout", i, rep.Row, rep.Empty())
		}
	}
	dense := *res
	dense.Rows = 0
	dense.Reports = make([]RecordReport, n)
	for row, rep := range res.ByRow(n) {
		if rep == nil {
			dense.Reports[row] = RecordReport{Row: row, ID: tab.ID(row)}
		} else {
			dense.Reports[row] = *rep
		}
	}
	return &dense
}

// TestScratchDifferentialQUIS is the tentpole contract: on the polluted
// QUIS table, the scratch-based scoring core (sequential, parallel and
// compatibility CheckRow) produces reports byte-identical to the
// reference path, and the suspicious ranking is unchanged.
func TestScratchDifferentialQUIS(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixture is expensive")
	}
	m, dirty := streamQUIS(t)
	want := auditTableReference(m, dirty)
	wantBytes := gobBytes(t, want)

	got := m.AuditTable(dirty)
	if !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, got, dirty))) {
		t.Fatal("AuditTable reports are not byte-identical to the reference path")
	}
	gotPar := m.AuditTableParallel(dirty, 4)
	if !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, gotPar, dirty))) {
		t.Fatal("AuditTableParallel reports are not byte-identical to the reference path")
	}

	// Per-report strict equality (catches nil-vs-empty slice drift that
	// gob canonicalizes away) on a sample plus every suspicious row.
	row := make([]dataset.Value, dirty.NumCols())
	scratch := NewScoreScratch(m)
	for r := 0; r < dirty.NumRows(); r += 97 {
		dirty.RowInto(r, row)
		wantRep := want.Reports[r]
		gotRep := m.CheckRowScratch(row, scratch).Detach()
		gotRep.Row, gotRep.ID = wantRep.Row, wantRep.ID
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("row %d: scratch report differs:\nwant %+v\ngot  %+v", r, wantRep, gotRep)
		}
	}

	// The ranking consumed by reports and the serving layer.
	wantSus, gotSus := want.Suspicious(), got.Suspicious()
	if len(wantSus) != len(gotSus) {
		t.Fatalf("suspicious count differs: want %d, got %d", len(wantSus), len(gotSus))
	}
	for i := range wantSus {
		if wantSus[i].Row != gotSus[i].Row || wantSus[i].ErrorConf != gotSus[i].ErrorConf {
			t.Fatalf("rank %d differs: want row %d conf %.9f, got row %d conf %.9f",
				i, wantSus[i].Row, wantSus[i].ErrorConf, gotSus[i].Row, gotSus[i].ErrorConf)
		}
	}
}

// TestScratchDifferentialAllInducers runs the same differential contract
// once per induction algorithm, so every classifier's PredictInto is
// proven equivalent to its Predict inside the full scoring loop.
func TestScratchDifferentialAllInducers(t *testing.T) {
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A small slice of the sample keeps the slow families (kNN scores
	// against every stored instance) tractable.
	tab := dataset.NewTable(sample.Data.Schema())
	for r := 0; r < 800; r++ {
		tab.AppendRow(sample.Data.Row(r))
	}
	for _, kind := range []InducerKind{
		InducerC45Audit, InducerC45, InducerID3,
		InducerNaiveBayes, InducerKNN, InducerOneR, InducerPrism,
	} {
		t.Run(string(kind), func(t *testing.T) {
			m, err := Induce(tab, Options{MinConfidence: 0.8, Inducer: kind})
			if err != nil {
				t.Fatal(err)
			}
			row := make([]dataset.Value, tab.NumCols())
			scratch := NewScoreScratch(m)
			for r := 0; r < tab.NumRows(); r++ {
				tab.RowInto(r, row)
				want := checkRowReference(m, row)
				got := m.CheckRowScratch(row, scratch).Detach()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("row %d: scratch report differs:\nwant %+v\ngot  %+v", r, want, got)
				}
				compat := m.CheckRow(row)
				if !reflect.DeepEqual(want, compat) {
					t.Fatalf("row %d: CheckRow report differs from reference", r)
				}
			}
		})
	}
}

// TestCheckRowScratchZeroAlloc pins the allocation contract: once warm, a
// CheckRowScratch call performs zero heap allocations.
func TestCheckRowScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	m, dirty := streamQUIS(t)
	row := make([]dataset.Value, dirty.NumCols())
	scratch := NewScoreScratch(m)
	// Warm the arena over a spread of rows (including suspicious ones).
	for r := 0; r < dirty.NumRows(); r += 11 {
		dirty.RowInto(r, row)
		m.CheckRowScratch(row, scratch)
	}
	r := 0
	allocs := testing.AllocsPerRun(500, func() {
		dirty.RowInto(r%dirty.NumRows(), row)
		m.CheckRowScratch(row, scratch)
		r += 13
	})
	if allocs != 0 {
		t.Fatalf("CheckRowScratch allocated %.1f times per run in steady state, want 0", allocs)
	}
}

// TestDetachOutlivesScratch proves the Detach contract: a detached report
// is unaffected by scratch reuse, and its Best points into its own
// findings.
func TestDetachOutlivesScratch(t *testing.T) {
	m, dirty := streamQUIS(t)
	row := make([]dataset.Value, dirty.NumCols())
	scratch := NewScoreScratch(m)

	// Find a row with findings.
	var detached RecordReport
	found := false
	for r := 0; r < dirty.NumRows() && !found; r++ {
		dirty.RowInto(r, row)
		rep := m.CheckRowScratch(row, scratch)
		if len(rep.Findings) > 0 {
			detached = rep.Detach()
			found = true
		}
	}
	if !found {
		t.Fatal("no row with findings in the fixture")
	}
	want := detached.Detach() // deep copy for comparison

	// Hammer the scratch with other rows; the detached report must not move.
	for r := 0; r < 1000; r++ {
		dirty.RowInto(r%dirty.NumRows(), row)
		m.CheckRowScratch(row, scratch)
	}
	if !reflect.DeepEqual(want, detached) {
		t.Fatal("detached report changed when the scratch was reused")
	}
	if detached.Best != nil {
		ok := false
		for i := range detached.Findings {
			if detached.Best == &detached.Findings[i] {
				ok = true
			}
		}
		if !ok {
			t.Fatal("detached Best does not point into the detached findings")
		}
	}
}

// TestScratchGrowsAcrossModels verifies a scratch sized for one model is
// safely reusable with a wider one (the buffers regrow on demand).
func TestScratchGrowsAcrossModels(t *testing.T) {
	m, dirty := streamQUIS(t)
	scratch := &ScoreScratch{} // deliberately unsized
	row := make([]dataset.Value, dirty.NumCols())
	dirty.RowInto(0, row)
	want := checkRowReference(m, row)
	got := m.CheckRowScratch(row, scratch).Detach()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("zero-value scratch produced a different report")
	}
}
