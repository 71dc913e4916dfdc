package audit

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

// pollutedQUIS generates a QUIS sample, corrupts it with wrong-value and
// null-value polluters (§4.2), and induces a model on the dirty table —
// the workload the parallel-equivalence contract is stated against. The
// fixture is built once and shared: no caller mutates the model or the
// table.
func pollutedQUIS(t testing.TB) (*Model, *dataset.Table) {
	t.Helper()
	pollutedFixtureOnce.Do(func() {
		sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
		if err != nil {
			pollutedFixtureErr = err
			return
		}
		plan := pollute.Plan{Cell: []pollute.Configured{
			{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
			{Prob: 0.01, P: &pollute.NullValuePolluter{}},
		}}
		dirty, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(42)))
		m, err := Induce(dirty, Options{MinConfidence: 0.8})
		if err != nil {
			pollutedFixtureErr = err
			return
		}
		pollutedFixtureModel, pollutedFixtureTable = m, dirty
	})
	if pollutedFixtureErr != nil {
		t.Fatal(pollutedFixtureErr)
	}
	return pollutedFixtureModel, pollutedFixtureTable
}

var (
	pollutedFixtureOnce  sync.Once
	pollutedFixtureModel *Model
	pollutedFixtureTable *dataset.Table
	pollutedFixtureErr   error
)

// TestAuditTableParallelMatchesSequential is the determinism contract:
// sharded scoring must reproduce the sequential reports exactly — same
// order, same findings, same confidences — on a polluted QUIS sample. Run
// under -race this also proves the model is safe to share across workers.
func TestAuditTableParallelMatchesSequential(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	want := m.AuditTable(dirty)
	if want.NumSuspicious() == 0 {
		t.Fatal("fixture produced no suspicious records; the comparison would be vacuous")
	}

	for _, workers := range []int{0, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := m.AuditTableParallel(dirty, workers)
			if len(got.Reports) != len(want.Reports) {
				t.Fatalf("got %d reports, want %d", len(got.Reports), len(want.Reports))
			}
			for r := range want.Reports {
				if !reflect.DeepEqual(got.Reports[r], want.Reports[r]) {
					t.Fatalf("report %d differs:\ngot  %+v\nwant %+v", r, got.Reports[r], want.Reports[r])
				}
			}
			if got.NumSuspicious() != want.NumSuspicious() {
				t.Fatalf("suspicious: got %d, want %d", got.NumSuspicious(), want.NumSuspicious())
			}
		})
	}
}

// TestAuditTableParallelSmallTableFallsBack checks a table too small to
// split (one unit, scored inline whatever the worker count) still fills
// every report.
func TestAuditTableParallelSmallTableFallsBack(t *testing.T) {
	tab := engineTable(t, 100, 9)
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	res := m.AuditTableParallel(tab, 4)
	if len(res.Reports) != 100 {
		t.Fatalf("got %d reports, want 100", len(res.Reports))
	}
	for r, rep := range res.Reports {
		if rep.Row != r || rep.ID != tab.ID(r) {
			t.Fatalf("report %d misaligned: %+v", r, rep)
		}
	}
}

// TestAuditTableParallelConcurrentCallers has eight goroutines audit one
// freshly induced model at once, with every worker count, so the model's
// scoring plan is first built under contention; every result must be
// gob-identical to the row-path oracle.
func TestAuditTableParallelConcurrentCallers(t *testing.T) {
	tab := engineTable(t, 2000, 73)
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	want := gobBytes(t, auditTableReference(m, tab))
	if m.scoring.Load() != nil {
		t.Fatal("the scoring plan was built before the concurrent callers ran")
	}

	results := make([]*Result, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i] = m.AuditTableParallel(tab, 1+i%4)
		}()
	}
	close(start)
	wg.Wait()
	for i, res := range results {
		if !bytes.Equal(want, gobBytes(t, res)) {
			t.Errorf("caller %d (workers=%d) is not byte-identical to the reference", i, 1+i%4)
		}
	}
}

// BenchmarkAuditTableParallelRows times AuditTableParallel with the
// default worker count on the polluted QUIS fixture at two sizes: one
// row, what most served requests carry, and a 2 000-row batch.
func BenchmarkAuditTableParallelRows(b *testing.B) {
	m, dirty := streamQUIS(b)
	for _, rows := range []int{1, 2000} {
		tab := cloneRows(dirty, 0, rows)
		m.AuditTableParallel(tab, 0) // the plan is built once per model, not per call
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.AuditTableParallel(tab, 0)
			}
		})
	}
}

// TestResultMerge checks that scoring a table in horizontal shards and
// merging equals scoring it whole.
func TestResultMerge(t *testing.T) {
	tab := engineTable(t, 2400, 74)
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	want := m.AuditTable(tab)

	half := tab.NumRows() / 2
	shard1, shard2 := cloneRows(tab, 0, half), cloneRows(tab, half, tab.NumRows())
	merged, err := MergeResults(m.AuditTable(shard1), m.AuditTable(shard2))
	if err != nil {
		t.Fatal(err)
	}

	if len(merged.Reports) != len(want.Reports) {
		t.Fatalf("got %d reports, want %d", len(merged.Reports), len(want.Reports))
	}
	for r := range want.Reports {
		g, w := merged.Reports[r], want.Reports[r]
		if g.Row != w.Row || g.ErrorConf != w.ErrorConf || g.Suspicious != w.Suspicious ||
			len(g.Findings) != len(w.Findings) {
			t.Fatalf("report %d differs after merge:\ngot  %+v\nwant %+v", r, g, w)
		}
		if (g.Best == nil) != (w.Best == nil) {
			t.Fatalf("report %d: Best nil mismatch", r)
		}
		if g.Best != nil && !reflect.DeepEqual(*g.Best, *w.Best) {
			t.Fatalf("report %d: Best differs: got %+v want %+v", r, *g.Best, *w.Best)
		}
	}
	if merged.NumSuspicious() != want.NumSuspicious() {
		t.Fatalf("suspicious: got %d, want %d", merged.NumSuspicious(), want.NumSuspicious())
	}
}

// TestMergeRejectsWidthMismatch checks that results produced against
// relations of different widths — whose finding attribute indices would
// silently cross-reference the wrong columns — fail with the typed
// dataset.ErrRowWidth instead of merging.
func TestMergeRejectsWidthMismatch(t *testing.T) {
	a := &Result{NumAttrs: 8}
	b := &Result{NumAttrs: 5}
	if err := a.Merge(b); !errors.Is(err, dataset.ErrRowWidth) {
		t.Fatalf("want ErrRowWidth, got %v", err)
	}
	if _, err := MergeResults(a, b); !errors.Is(err, dataset.ErrRowWidth) {
		t.Fatalf("MergeResults: want ErrRowWidth, got %v", err)
	}

	// A report whose findings point past the declared width is equally
	// rejected, even when the widths agree.
	bad := &Result{NumAttrs: 8, Reports: []RecordReport{{
		Row: 0, Findings: []Finding{{Attr: 9, ErrorConf: 0.9}},
	}}}
	if err := (&Result{NumAttrs: 8}).Merge(bad); !errors.Is(err, dataset.ErrRowWidth) {
		t.Fatalf("out-of-width finding: want ErrRowWidth, got %v", err)
	}

	// Unknown widths (hand-built results) still merge.
	if err := (&Result{}).Merge(&Result{}); err != nil {
		t.Fatalf("merging width-less results: %v", err)
	}
}

// cloneRows copies rows [lo, hi) into a fresh table.
func cloneRows(tab *dataset.Table, lo, hi int) *dataset.Table {
	out := dataset.NewTable(tab.Schema())
	for r := lo; r < hi; r++ {
		out.AppendRow(tab.Row(r))
	}
	return out
}
