package audit

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// A scoring panic fails its audit, not the process. With one worker the
// classifier panics on the caller's goroutine; with a pool, run recovers
// it on the worker, stops the feed and re-panics on the caller; a feed
// that panics on the caller leaves no worker behind either. The checks
// run in a re-executed test binary: a panic that escapes on a pool
// goroutine then fails this test instead of killing the suite.

// panicChildEnv marks the re-executed test binary that runs the checks.
const panicChildEnv = "DATAAUDIT_PANIC_CHILD"

// panicSentinel is the DISP value of the one row the stub panics on.
const panicSentinel = 1234.5

// panicClassifier wraps a classifier and panics on the row whose DISP
// holds panicSentinel, or on every row.
type panicClassifier struct {
	mlcore.Classifier
	all bool
}

func (p panicClassifier) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	if p.all || row[3].Float() == panicSentinel {
		panic("stub classifier panic")
	}
	p.Classifier.PredictInto(row, d)
}

// panicSource panics on its third NextChunk: a feed that panics on the
// caller's goroutine while the pool is running.
type panicSource struct {
	dataset.RowSource
	reads int
}

func (p *panicSource) NextChunk(ck *dataset.ColumnChunk, max int) (int, error) {
	if p.reads++; p.reads == 3 {
		panic("stub source panic")
	}
	return p.RowSource.NextChunk(ck, max)
}

// recoverAudit runs audit on a goroutine of its own and returns what it
// panicked with, failing the test if it neither returns nor panics in
// time.
func recoverAudit(t *testing.T, audit func()) (v any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		audit()
	}()
	select {
	case v = <-done:
	case <-time.After(time.Minute):
		t.Fatal("the audit neither returned nor panicked within a minute")
	}
	return v
}

func TestPipelinePanicReachesCaller(t *testing.T) {
	if os.Getenv(panicChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPipelinePanicReachesCaller$", "-test.v")
		cmd.Env = append(os.Environ(), panicChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("the re-executed panic checks failed: %v\n%s", err, out)
		}
		return
	}
	tab := engineTable(t, 6000, 5)
	tab.Set(4321, 3, dataset.Num(panicSentinel))
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	stub := func(all bool) *Model {
		cp := Model{Schema: m.Schema, Attrs: m.Attrs, Opts: m.Opts, TrainRows: m.TrainRows, InduceTime: m.InduceTime}
		cp.Attrs = append([]*AttrModel(nil), m.Attrs...)
		am := *cp.Attrs[0]
		am.Classifier = panicClassifier{am.Classifier, all}
		cp.Attrs[0] = &am
		return &cp
	}
	audits := []struct {
		name    string
		workers int
		run     func(m *Model)
	}{
		{"table", 1, func(m *Model) { m.AuditTableParallel(tab, 1) }},
		{"table", 4, func(m *Model) { m.AuditTableParallel(tab, 4) }},
		{"stream", 4, func(m *Model) {
			_, _ = m.AuditStream(dataset.NewTableSource(tab), StreamOptions{ChunkSize: 256, Workers: 4})
		}},
	}
	for _, all := range []bool{false, true} {
		sm := stub(all)
		for _, a := range audits {
			t.Run(fmt.Sprintf("%s,workers=%d,every-row=%v", a.name, a.workers, all), func(t *testing.T) {
				base := runtime.NumGoroutine()
				v := recoverAudit(t, func() { a.run(sm) })
				msg := fmt.Sprint(v)
				if !strings.HasPrefix(msg, "stub classifier panic") {
					t.Fatalf("the caller recovered %q, want the stub's panic", msg)
				}
				if a.workers > 1 && !strings.Contains(msg, "panicClassifier.PredictInto") {
					t.Errorf("the re-raised panic does not carry the worker's stack:\n%s", msg)
				}
				if n := settledGoroutines(base); n > base {
					t.Errorf("%d goroutines left after the panic, %d before", n, base)
				}
			})
		}
	}
	t.Run("source,workers=4", func(t *testing.T) {
		base := runtime.NumGoroutine()
		src := &panicSource{RowSource: dataset.NewTableSource(tab)}
		v := recoverAudit(t, func() {
			_, _ = m.AuditStream(src, StreamOptions{ChunkSize: 256, Workers: 4})
		})
		if v != "stub source panic" {
			t.Fatalf("the caller recovered %v, want the source's panic", v)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%d goroutines left after the panic, %d before", n, base)
		}
	})
}
