package monitor

import (
	"io"
	"sync"
	"testing"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// The concurrency harness for the asynchronous re-induction worker: the
// hookReinduceStart instrumentation holds a worker hostage on a channel,
// which is the deterministic stand-in for a slow induction. Under the old
// synchronous design (Induce + QualityProfile + publish inside st.mu on
// the drifting audit's request path) every test below deadlocks instead
// of merely slowing down, so they double as regression tests for the
// reinduceLocked stall.

// gatedSource wraps a TableSource and blocks mid-stream after gateAfter
// rows until gate is closed — it keeps an AuditStream (the library half of
// the NDJSON route) genuinely in flight across a re-induction trigger.
type gatedSource struct {
	src       dataset.RowSource
	gate      <-chan struct{}
	gateAfter int64
	n         int64
}

func (g *gatedSource) Schema() *dataset.Schema { return g.src.Schema() }

func (g *gatedSource) NextChunk(ck *dataset.ColumnChunk, max int) (int, error) {
	if g.n == g.gateAfter {
		<-g.gate
	}
	if g.n < g.gateAfter {
		max = min(max, int(g.gateAfter-g.n))
	}
	n, err := g.src.NextChunk(ck, max)
	g.n += int64(n)
	return n, err
}

// publishFixture publishes the fixture model with its quality baseline
// into a fresh registry.
func publishFixture(t *testing.T, rows int) (*registry.Registry, *audit.Model, *dataset.Table, *dataset.Table, registry.Meta) {
	t.Helper()
	model, clean, dirty := fixture(t, rows)
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	return reg, model, clean, dirty, meta
}

// TestReinductionDoesNotBlockAudits is the stress test for the st.mu
// stall: while a (instrumented, arbitrarily slow) re-induction is in
// flight for a drifted model, an NDJSON-style stream that was already
// mid-flight when drift fired AND a burst of parallel batch audits of
// the same model must all complete — provably before the re-induction
// finishes — and the v2 swap must still be observed afterwards.
func TestReinductionDoesNotBlockAudits(t *testing.T) {
	reg, model, clean, dirty, meta := publishFixture(t, 3000)

	reinduceStarted := make(chan struct{})
	reinduceRelease := make(chan struct{})
	opts := Options{
		WindowRows:      500,
		MinWindows:      1,
		DriftDelta:      0.05,
		AutoReinduce:    true,
		MinReinduceRows: 100,
		ReservoirRows:   1024,
	}
	opts.hookReinduceStart = func(string, int) {
		close(reinduceStarted) // panics on a second worker: triggers must coalesce
		<-reinduceRelease
	}
	mon := New(reg, withClock(opts))

	// An NDJSON-style stream is mid-flight (half its rows consumed, rest
	// gated) when the drifting batch lands.
	streamGate := make(chan struct{})
	streamDone := make(chan error, 1)
	obs := mon.Stream(meta, model)
	go func() {
		src := &gatedSource{src: dataset.NewTableSource(clean), gate: streamGate, gateAfter: int64(clean.NumRows() / 2)}
		res, err := model.AuditStream(src, audit.StreamOptions{
			ChunkSize: 64, Workers: 2, TopK: 10, OnRow: obs.OnRow,
		})
		if err == nil {
			obs.Finish(res)
		}
		streamDone <- err
	}()

	// Drift fires inside this audit; the worker parks in the hook.
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	select {
	case <-reinduceStarted:
	case <-time.After(30 * time.Second):
		t.Fatal("re-induction worker never started")
	}

	if st, ok := mon.Quality("engines"); !ok || !st.Reinducing || st.Version != meta.Version {
		t.Fatalf("in-flight state wrong: ok=%v %+v", ok, st)
	}

	// With the worker still parked: release the gated stream and fire
	// parallel batch audits. All of it must finish while re-induction is
	// "running" — the old code held st.mu here and everything below
	// would park forever on the lock.
	close(streamGate)
	const parallelBatches = 4
	start := time.Now()
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for i := 0; i < parallelBatches; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parallel batch audits stalled behind the in-flight re-induction")
	}
	select {
	case err := <-streamDone:
		if err != nil && err != io.EOF {
			t.Fatalf("in-flight stream failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight stream stalled behind the in-flight re-induction")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("audits of the drifting model took %s while re-induction ran", elapsed)
	}

	// Let the worker land and verify the swap was observed.
	close(reinduceRelease)
	mon.WaitReinductions()

	st, _ := mon.Quality("engines")
	if st.Version != 2 || st.Reinducing || st.Drift.Drifted {
		t.Fatalf("v2 swap not observed: %+v", st)
	}
	var reinduced bool
	for _, e := range st.Events {
		if e.Kind == EventReinduced && e.NewVersion == 2 {
			reinduced = true
		}
	}
	if !reinduced {
		t.Fatalf("no reinduced event: %+v", st.Events)
	}
	if meta2, err := reg.MetaOf("engines"); err != nil || meta2.Version != 2 {
		t.Fatalf("registry latest = %+v, %v; want v2", meta2, err)
	}

	// The successor keeps folding: monitoring did not go dead. The probe
	// batch stays below WindowRows so no window can seal (a sealed window
	// against the successor's reservoir-trained baseline could
	// legitimately drift again, which is not what this probe is about).
	model2, meta2v, err := reg.Get("engines")
	if err != nil {
		t.Fatal(err)
	}
	probe := dataset.NewTable(clean.Schema())
	row := make([]dataset.Value, clean.NumCols())
	for r := 0; r < 200; r++ {
		probe.AppendRow(clean.RowInto(r, row))
	}
	before, _ := mon.Quality("engines")
	mon.ObserveBatch(meta2v, model2, probe, model2.AuditTable(probe))
	after, _ := mon.Quality("engines")
	if after.ReservoirSeen != before.ReservoirSeen+200 {
		t.Fatalf("successor state not folding: before=%d after=%d", before.ReservoirSeen, after.ReservoirSeen)
	}
}

// TestReinduceCoalesceAndSupersede pins the two guard behaviours of the
// background worker: a second drift trigger while a worker is in flight
// coalesces into it (no duplicate worker — the hook panics on a second
// start), and a worker whose tracked (version, createdAt) changed while
// it ran discards its candidate with a reinduce-superseded event instead
// of publishing.
func TestReinduceCoalesceAndSupersede(t *testing.T) {
	reg, model, clean, dirty, meta := publishFixture(t, 3000)

	started := make(chan struct{})
	release := make(chan struct{})
	opts := Options{
		WindowRows:      500,
		MinWindows:      1,
		DriftDelta:      0.05,
		AutoReinduce:    true,
		MinReinduceRows: 100,
		ReservoirRows:   1024,
	}
	opts.hookReinduceStart = func(string, int) {
		close(started) // a second worker would panic: coalescing regression
		<-release
	}
	mon := New(reg, withClock(opts))

	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	<-started

	// A newer version appears while the worker is parked (a manual
	// republish): the tracked incarnation moves on...
	meta2, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != 2 {
		t.Fatalf("manual republish got v%d, want v2", meta2.Version)
	}
	// ...and a fresh drift of v2 must coalesce, not spawn a second worker.
	mon.ObserveBatch(meta2, model, dirty, model.AuditTable(dirty))

	st, _ := mon.Quality("engines")
	var coalesced bool
	for _, e := range st.Events {
		if e.Kind == EventReinduceSkipped && e.Version == 2 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatalf("in-flight drift trigger not coalesced: %+v", st.Events)
	}

	close(release)
	mon.WaitReinductions()

	st, _ = mon.Quality("engines")
	var superseded bool
	for _, e := range st.Events {
		switch e.Kind {
		case EventReinduceSuperseded:
			superseded = true
		case EventReinduced:
			t.Fatalf("superseded worker swapped its candidate in: %+v", e)
		}
	}
	if !superseded {
		t.Fatalf("no reinduce-superseded event: %+v", st.Events)
	}
	if st.Version != 2 || st.Reinducing {
		t.Fatalf("state clobbered by superseded worker: %+v", st)
	}
	// The discarded candidate was never published: the registry still
	// tops out at the manual v2.
	if latest, err := reg.MetaOf("engines"); err != nil || latest.Version != 2 {
		t.Fatalf("registry latest = %+v, %v; want the manual v2", latest, err)
	}
}

// TestReinduceSupersededByForget pins the delete race: a model forgotten
// (deleted) while its re-induction worker is in flight must not be
// resurrected by that worker's publish.
func TestReinduceSupersededByForget(t *testing.T) {
	reg, model, _, dirty, meta := publishFixture(t, 3000)

	started := make(chan struct{})
	release := make(chan struct{})
	opts := Options{
		WindowRows:      500,
		MinWindows:      1,
		DriftDelta:      0.05,
		AutoReinduce:    true,
		MinReinduceRows: 100,
		ReservoirRows:   1024,
	}
	opts.hookReinduceStart = func(string, int) {
		close(started)
		<-release
	}
	mon := New(reg, withClock(opts))

	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	<-started
	mon.Forget("engines")
	close(release)
	mon.WaitReinductions()

	// The dead state swallowed the candidate: no v2 was published, and
	// the monitor reports no state for the name.
	if latest, err := reg.MetaOf("engines"); err != nil || latest.Version != 1 {
		t.Fatalf("forgotten model republished by in-flight worker: %+v, %v", latest, err)
	}
	if _, ok := mon.Quality("engines"); ok {
		t.Fatal("monitor state survived Forget")
	}
}
