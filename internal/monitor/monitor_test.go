package monitor

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// fixture builds a relation with a strong BRV → GBM dependency, a model
// induced on clean history, and a polluted table in which every GBM value
// contradicts the dependency — the drift source.
func fixture(t *testing.T, rows int) (model *audit.Model, clean, dirty *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501", "600"),
		dataset.NewNominal("KBM", "01", "02"),
		dataset.NewNominal("GBM", "901", "911", "950"),
		dataset.NewNumeric("DISP", 1000, 4000),
	)
	clean = dataset.NewTable(schema)
	rng := rand.New(rand.NewSource(2003))
	row := make([]dataset.Value, 4)
	for i := 0; i < rows; i++ {
		brv := rng.Intn(3)
		disp := 1500 + float64(brv)*1000 + rng.NormFloat64()*80
		if disp < 1000 {
			disp = 1000
		}
		if disp > 4000 {
			disp = 4000
		}
		row[0], row[1], row[2], row[3] = dataset.Nom(brv), dataset.Nom(rng.Intn(2)), dataset.Nom(brv), dataset.Num(disp)
		clean.AppendRow(row)
	}
	var err error
	// A model trained on clean history needs its pure rules to flag
	// deviations in future loads (the cmd/audit -induce default).
	model, err = audit.Induce(clean, audit.Options{MinConfidence: 0.8, Filter: audittree.FilterReachableOnly})
	if err != nil {
		t.Fatal(err)
	}
	dirty = clean.Clone()
	for r := 0; r < dirty.NumRows(); r++ {
		brv := dirty.Get(r, 0).NomIdx()
		dirty.Set(r, 2, dataset.Nom((brv+1)%3)) // break BRV → GBM everywhere
	}
	return model, clean, dirty
}

func fixedClock() func() time.Time {
	base := time.Date(2026, 7, 29, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

func metaFor(model *audit.Model, clean *dataset.Table) registry.Meta {
	return registry.Meta{
		Name:    "engines",
		Version: 1,
		Quality: model.QualityProfile(clean, 0),
	}
}

// stateJSON marshals the monitor's view of a model for byte comparison.
func stateJSON(t *testing.T, m *Monitor, name string) []byte {
	t.Helper()
	st, ok := m.Quality(name)
	if !ok {
		t.Fatalf("no monitoring state for %q", name)
	}
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldDeterminism is the monitoring mirror of the stream engine's
// differential tests: the same sequence of fold inputs must yield
// byte-identical snapshot history (and reservoir, drift and event state)
// regardless of how the underlying streams were chunked or parallelized,
// and regardless of whether the batch or the stream path produced the
// observation.
func TestFoldDeterminism(t *testing.T) {
	model, clean, dirty := fixture(t, 3000)
	meta := metaFor(model, clean)
	opts := Options{WindowRows: 700, seed: 7}

	// Observation sequence: clean, dirty, clean — three requests.
	parts := []*dataset.Table{clean, dirty, clean}

	streamed := func(chunk, workers int) []byte {
		mon := New(nil, withClock(opts))
		for _, part := range parts {
			obs := mon.Stream(meta, model)
			res, err := model.AuditStream(dataset.NewTableSource(part), audit.StreamOptions{
				ChunkSize: chunk,
				Workers:   workers,
				TopK:      10,
				OnRow:     obs.OnRow,
			})
			if err != nil {
				t.Fatal(err)
			}
			obs.Finish(res)
		}
		return stateJSON(t, mon, meta.Name)
	}

	want := streamed(7, 1)
	for _, cfg := range []struct{ chunk, workers int }{{64, 4}, {1024, 8}, {311, 3}} {
		if got := streamed(cfg.chunk, cfg.workers); string(got) != string(want) {
			t.Fatalf("snapshot history differs for chunk=%d workers=%d:\n%s\n--- vs ---\n%s",
				cfg.chunk, cfg.workers, got, want)
		}
	}

	// The batch path must fold to the identical state: same rows offered
	// in the same order, same aggregate tallies.
	monB := New(nil, withClock(opts))
	for _, part := range parts {
		res := model.AuditTableParallel(part, 4)
		monB.ObserveBatch(meta, model, part, res)
	}
	if got := stateJSON(t, monB, meta.Name); string(got) != string(want) {
		t.Fatalf("batch-fed state differs from stream-fed state:\n%s\n--- vs ---\n%s", got, want)
	}
}

// withClock attaches a fresh deterministic clock to a copy of opts.
func withClock(o Options) Options {
	o.now = fixedClock()
	return o
}

// TestDriftLifecycle drives the full loop at library level: a clean
// baseline, clean windows that stay quiet, polluted windows that fire the
// drift detector, and auto re-induction publishing version 2 through the
// registry's atomic path with a fresh baseline attached.
func TestDriftLifecycle(t *testing.T) {
	model, clean, dirty := fixture(t, 3000)
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profile := model.QualityProfile(clean, 0)
	meta, err := reg.PublishWithQuality("engines", model, profile)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Quality == nil {
		t.Fatal("published meta lost its quality baseline")
	}

	mon := New(reg, withClock(Options{
		WindowRows:      1000,
		MinWindows:      1,
		DriftDelta:      0.10,
		AutoReinduce:    true,
		MinReinduceRows: 200,
		ReservoirRows:   2048,
	}))

	// Clean traffic: window seals, no drift.
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	st, _ := mon.Quality("engines")
	if st.Windows == 0 || st.Drift.Drifted {
		t.Fatalf("clean window mis-scored: %+v", st.Drift)
	}
	for _, e := range st.Events {
		if e.Kind == EventDrift {
			t.Fatalf("drift fired on clean data: %+v", e)
		}
	}

	// Polluted traffic: drift fires, the background worker re-induces and
	// publishes v2 (WaitReinductions is the async rendezvous).
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	mon.WaitReinductions()
	st, _ = mon.Quality("engines")
	var drifted, reinduced bool
	for _, e := range st.Events {
		switch e.Kind {
		case EventDrift:
			drifted = true
			if e.Detector == "" || e.Delta <= 0 {
				t.Fatalf("drift event lacks detector/delta: %+v", e)
			}
		case EventReinduced:
			reinduced = true
			if e.NewVersion != 2 {
				t.Fatalf("reinduced to version %d, want 2", e.NewVersion)
			}
		}
	}
	if !drifted || !reinduced {
		t.Fatalf("lifecycle incomplete (drift=%v reinduce=%v): %+v", drifted, reinduced, st.Events)
	}
	if st.Version != 2 || st.Drift.Drifted {
		t.Fatalf("state not reset onto the successor: version=%d drift=%+v", st.Version, st.Drift)
	}

	// The successor is committed: latest is v2 and carries its own
	// baseline.
	meta2, err := reg.MetaOf("engines")
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != 2 || meta2.Quality == nil {
		t.Fatalf("successor meta wrong: version=%d quality=%v", meta2.Version, meta2.Quality != nil)
	}

	// Stale scores against v1 must not perturb the v2 state.
	before, _ := mon.Quality("engines")
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	after, _ := mon.Quality("engines")
	if after.Windows != before.Windows || after.PendingRows != before.PendingRows {
		t.Fatalf("stale v1 observation folded into v2 state")
	}
}

// TestDriftAttributionRoutesPartialReinduce drives the attribution loop:
// the per-attribute detectors latch on the attributes the pollution
// actually broke, the drift event names them, the background worker takes
// the partial re-induction path over exactly that set, and the successor
// comes up with cleared latches.
func TestDriftAttributionRoutesPartialReinduce(t *testing.T) {
	model, clean, dirty := fixture(t, 3000)
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	mon := New(reg, withClock(Options{
		WindowRows:      1000,
		MinWindows:      1,
		DriftDelta:      0.10,
		AutoReinduce:    true,
		MinReinduceRows: 200,
		ReservoirRows:   2048,
	}))
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	mon.WaitReinductions()
	st, ok := mon.Quality("engines")
	if !ok {
		t.Fatal("no monitoring state")
	}

	var drift, reind *Event
	for i := range st.Events {
		switch st.Events[i].Kind {
		case EventDrift:
			drift = &st.Events[i]
		case EventReinduced:
			reind = &st.Events[i]
		}
	}
	if drift == nil || reind == nil {
		t.Fatalf("lifecycle incomplete: %+v", st.Events)
	}
	if len(drift.Attrs) == 0 {
		t.Fatalf("drift event carries no attributed attributes: %+v", drift)
	}
	var hasGBM bool
	for _, a := range drift.Attrs {
		hasGBM = hasGBM || a == "GBM"
	}
	if !hasGBM {
		t.Fatalf("pollution broke GBM but attribution found %v", drift.Attrs)
	}
	want := fmt.Sprintf("partial re-induction of %d attributes", len(drift.Attrs))
	if !strings.Contains(reind.Message, want) {
		t.Fatalf("worker did not take the partial path over the attributed set: %q (want %q)", reind.Message, want)
	}
	if st.Version != 2 {
		t.Fatalf("partial successor not adopted: version=%d", st.Version)
	}
	// The successor's baseline starts with every latch cleared.
	if st.Drift.Drifted || len(st.Drift.Attrs) != 0 {
		t.Fatalf("latches survived re-induction: %+v", st.Drift)
	}
}

// TestReinducePanicFailsReinduction: a registry model whose warm-start
// hints name attribute 999 decodes and scores, but its partial
// re-induction panics inside the tree grower. The worker must record a
// reinduce-failed event, clear its in-flight flag and leave the process,
// and the monitor's folding, alive.
func TestReinducePanicFailsReinduction(t *testing.T) {
	model, clean, dirty := fixture(t, 3000)
	for _, am := range model.Attrs {
		if rs, ok := am.Classifier.(*audittree.RuleSet); ok && rs.Hint != nil {
			rs.Hint.Attr, rs.Hint.IsNumeric = 999, false
		}
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	mon := New(reg, withClock(Options{
		WindowRows:      1000,
		MinWindows:      1,
		DriftDelta:      0.10,
		AutoReinduce:    true,
		MinReinduceRows: 200,
		ReservoirRows:   2048,
	}))
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	mon.WaitReinductions()
	st, ok := mon.Quality("engines")
	if !ok {
		t.Fatal("no monitoring state")
	}
	var failed *Event
	for i := range st.Events {
		if e := &st.Events[i]; e.Kind == EventReinduceFailed {
			failed = e
		}
	}
	if failed == nil || !strings.Contains(failed.Message, "panic: ") || !strings.Contains(failed.Message, "index out of range [999]") {
		t.Fatalf("no reinduce-failed event naming the panic: %+v", st.Events)
	}
	if st.Reinducing || st.Version != 1 {
		t.Fatalf("after the failed re-induction: reinducing=%v version=%d, want false and 1", st.Reinducing, st.Version)
	}

	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	after, _ := mon.Quality("engines")
	if after.Windows <= st.Windows {
		t.Fatalf("windows %d -> %d: the monitor stopped folding after the panic", st.Windows, after.Windows)
	}
}

// TestBaselineAdopted covers models published without an induction-time
// profile: the first sealed window becomes the baseline and only later
// windows can drift.
func TestBaselineAdopted(t *testing.T) {
	model, clean, dirty := fixture(t, 2000)
	meta := registry.Meta{Name: "bare", Version: 1} // no Quality
	mon := New(nil, withClock(Options{WindowRows: 1000, MinWindows: 1, DriftDelta: 0.10}))

	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	st, _ := mon.Quality("bare")
	if st.Baseline == nil || !st.BaselineAdopted {
		t.Fatalf("first window not adopted as baseline: %+v", st)
	}
	if len(st.Events) == 0 || st.Events[0].Kind != EventBaselineAdopted {
		t.Fatalf("missing baseline-adopted event: %+v", st.Events)
	}

	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	st, _ = mon.Quality("bare")
	if !st.Drift.Drifted {
		t.Fatalf("polluted window after adopted baseline did not drift: %+v", st.Drift)
	}
	// Auto re-induction is off: the drift must be logged as skipped, not
	// silently dropped.
	var skipped bool
	for _, e := range st.Events {
		if e.Kind == EventReinduceSkipped {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("drift without auto-reinduce not logged as skipped: %+v", st.Events)
	}
}

// TestCompletenessDrift drives the null-rate detector: a load whose GBM
// column loses a fifth of its values fires a completeness drift event
// attributed to GBM, latches DriftState.NullAttrs — and never touches
// the re-induction path, because re-inducing on a null-ridden load would
// teach the successor that the nulls are normal.
func TestCompletenessDrift(t *testing.T) {
	model, clean, _ := fixture(t, 3000)
	meta := metaFor(model, clean)
	nulled := clean.Clone()
	for r := 0; r < nulled.NumRows(); r += 5 {
		nulled.Set(r, 2, dataset.Null()) // GBM: null rate 0.2 vs baseline ~0
	}
	// The accuracy detectors are parked out of reach so only the
	// completeness detector can fire.
	mon := New(nil, withClock(Options{
		WindowRows: 1000, MinWindows: 1,
		DriftDelta: 0.99, PHLambda: 100,
		NullDelta:    0.05,
		AutoReinduce: true,
	}))

	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	st, _ := mon.Quality("engines")
	if len(st.Drift.NullAttrs) != 0 {
		t.Fatalf("completeness latched on clean data: %v", st.Drift.NullAttrs)
	}

	mon.ObserveBatch(meta, model, nulled, model.AuditTable(nulled))
	st, _ = mon.Quality("engines")
	var comp *Event
	for i := range st.Events {
		if st.Events[i].Kind == EventDrift && st.Events[i].Detector == "completeness" {
			comp = &st.Events[i]
		}
	}
	if comp == nil {
		t.Fatalf("no completeness drift event: %+v", st.Events)
	}
	var hasGBM bool
	for _, a := range comp.Attrs {
		hasGBM = hasGBM || a == "GBM"
	}
	if !hasGBM || comp.Delta < 0.1 {
		t.Fatalf("completeness event misattributed: attrs=%v delta=%g", comp.Attrs, comp.Delta)
	}
	found := false
	for _, a := range st.Drift.NullAttrs {
		found = found || a == "GBM"
	}
	if !found {
		t.Fatalf("GBM not latched in NullAttrs: %v", st.Drift.NullAttrs)
	}
	// The sealed window records the raw null counts.
	last := st.Snapshots[len(st.Snapshots)-1]
	var gbmNulls int64
	for _, aw := range last.Attrs {
		if aw.Attr == "GBM" {
			gbmNulls = aw.Nulls
		}
	}
	if gbmNulls != int64((nulled.NumRows()+4)/5) {
		t.Fatalf("window GBM nulls = %d, want %d", gbmNulls, (nulled.NumRows()+4)/5)
	}
	// Completeness never enters the re-induction loop, even with
	// AutoReinduce on: no reinduce events, no model-level latch.
	if st.Drift.Drifted {
		t.Fatalf("completeness drift set the model-level latch: %+v", st.Drift)
	}
	for _, e := range st.Events {
		switch e.Kind {
		case EventReinduced, EventReinduceSkipped, EventReinduceFailed:
			t.Fatalf("completeness drift reached the re-induction path: %+v", e)
		}
	}

	// The latch holds without duplicate events on further null-heavy
	// windows.
	mon.ObserveBatch(meta, model, nulled, model.AuditTable(nulled))
	st, _ = mon.Quality("engines")
	n := 0
	for _, e := range st.Events {
		if e.Detector == "completeness" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("completeness event fired %d times, want 1 (latched)", n)
	}
}

// TestPageHinkleyCatchesSlowDrift pins the cumulative detector: a
// degradation too small for the single-window threshold accumulates into
// a Page-Hinkley alarm.
func TestPageHinkleyCatchesSlowDrift(t *testing.T) {
	ph := pageHinkley{Delta: 0.005, Lambda: 0.25}
	// Stable series: no alarm.
	for i := 0; i < 50; i++ {
		if ph.observe(0.02) {
			t.Fatalf("alarm on a flat series at step %d", i)
		}
	}
	// Mean shifts up by 0.08 — under a 0.10 threshold — but persists.
	fired := false
	for i := 0; i < 50; i++ {
		if ph.observe(0.10) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("Page-Hinkley never fired on a persistent small shift")
	}
}

// TestReservoirDeterministicAndBounded pins the re-induction sample:
// capacity is respected, the sample is a deterministic function of the
// offered sequence, and reset keeps the PRNG stream. The expected rows
// (slot order) were recorded from the row-major reservoir this one
// replaced, so every re-induction trains on the sample it trained on
// before.
func TestReservoirDeterministicAndBounded(t *testing.T) {
	schema := dataset.MustSchema(dataset.NewNumeric("x", 0, 1e6))
	offer := func(rv *reservoir, n int) {
		row := make([]dataset.Value, 1)
		for i := 0; i < n; i++ {
			row[0] = dataset.Num(float64(i))
			rv.offer(row)
		}
	}
	check := func(rv *reservoir, seen int64, want []float64) {
		t.Helper()
		if rv.tab.NumRows() != 32 || rv.Seen != seen {
			t.Fatalf("reservoir off: %d rows, %d seen", rv.tab.NumRows(), rv.Seen)
		}
		for r, x := range want {
			if got := rv.tab.Get(r, 0).Float(); got != x || rv.tab.ID(r) != int64(r) {
				t.Fatalf("slot %d holds %g (id %d), recorded %g (id %d)", r, got, rv.tab.ID(r), x, r)
			}
		}
	}
	sample := func() *dataset.Table {
		rv := newReservoir(schema, 32, 99)
		offer(&rv, 10_000)
		check(&rv, 10_000, []float64{5443, 3759, 2285, 901, 113, 1193, 7136, 8138, 7005, 4902, 823,
			1887, 6940, 1648, 4489, 3380, 1370, 4816, 2498, 9171, 7074, 2724, 1297, 7739, 2392, 9491,
			3870, 1287, 3216, 7166, 2158, 7300})
		full := rv.tab
		rv.reset(schema)
		offer(&rv, 100)
		check(&rv, 100, []float64{66, 54, 97, 74, 83, 5, 6, 77, 62, 88, 50, 11, 38, 58, 39, 84, 65,
			17, 36, 19, 20, 61, 94, 23, 78, 73, 26, 27, 98, 49, 92, 31})
		return full
	}
	a, b := sample(), sample()
	for r := 0; r < a.NumRows(); r++ {
		if a.Get(r, 0).Float() != b.Get(r, 0).Float() {
			t.Fatalf("reservoir not deterministic at row %d", r)
		}
	}
}

// TestForget pins the delete hook: dropped state is gone, and a model
// recreated under the same name (version 1 again) starts fresh.
func TestForget(t *testing.T) {
	model, clean, _ := fixture(t, 2000)
	meta := metaFor(model, clean)
	mon := New(nil, withClock(Options{WindowRows: 1000}))
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	if _, ok := mon.Quality("engines"); !ok {
		t.Fatal("no state after observe")
	}
	mon.Forget("engines")
	if _, ok := mon.Quality("engines"); ok {
		t.Fatal("state survived Forget")
	}
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	st, ok := mon.Quality("engines")
	if !ok || st.Windows != 1 || len(st.Snapshots) != 1 {
		t.Fatalf("recreated state not fresh: %+v", st)
	}
}

// TestIncarnationCheck pins the delete/recreate race guard: two metas
// with the same version but different publish times are different
// incarnations of the name — the newer one resets the state, and
// observations of the older one are dropped instead of poisoning it.
func TestIncarnationCheck(t *testing.T) {
	model, clean, _ := fixture(t, 2000)
	old := metaFor(model, clean)
	old.CreatedAt = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	recreated := old
	recreated.CreatedAt = old.CreatedAt.Add(time.Hour)

	mon := New(nil, withClock(Options{WindowRows: 1000}))
	mon.ObserveBatch(old, model, clean, model.AuditTable(clean))
	st, _ := mon.Quality("engines")
	if st.Windows != 1 {
		t.Fatalf("old incarnation not folded: %+v", st)
	}

	// The recreated model's first audit resets the state...
	mon.ObserveBatch(recreated, model, clean, model.AuditTable(clean))
	st, _ = mon.Quality("engines")
	if st.Windows != 1 || len(st.Snapshots) != 2 {
		// windows restarts are not visible (history carries), but the
		// reservoir and window accumulation reset: ReservoirSeen counts
		// only the new incarnation's rows.
		t.Logf("state after recreate: %+v", st)
	}
	if st.ReservoirSeen != int64(clean.NumRows()) {
		t.Fatalf("recreated incarnation inherited the old reservoir: seen=%d want %d", st.ReservoirSeen, clean.NumRows())
	}

	// ...and a late observation of the old incarnation is dropped.
	before, _ := mon.Quality("engines")
	mon.ObserveBatch(old, model, clean, model.AuditTable(clean))
	after, _ := mon.Quality("engines")
	if after.ReservoirSeen != before.ReservoirSeen || after.Windows != before.Windows {
		t.Fatalf("stale incarnation folded: before=%+v after=%+v", before, after)
	}
}
