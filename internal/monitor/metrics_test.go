package monitor

import (
	"fmt"
	"strings"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/obs"
	"dataaudit/internal/registry"
)

// shellModel builds a model shell with n audited attributes — the fold
// path only touches Schema names and the Attrs slice, never the
// classifiers.
func shellModel(n int) *audit.Model {
	attrs := make([]*dataset.Attribute, n)
	ams := make([]*audit.AttrModel, n)
	for i := range attrs {
		attrs[i] = dataset.NewNumeric(fmt.Sprintf("a%d", i), 0, 1)
		ams[i] = &audit.AttrModel{Class: i}
	}
	return &audit.Model{Schema: dataset.MustSchema(attrs...), Attrs: ams}
}

// TestMetricsLifecycle drives the drift → re-induction loop with
// instrumentation attached and checks every stage left its mark: row and
// window counters, the drift gauges raised and then cleared by the
// successor's fresh baseline, the outcome counter and duration
// histogram, and Forget dropping the model's series.
func TestMetricsLifecycle(t *testing.T) {
	model, clean, dirty := fixture(t, 3000)
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}

	obsReg := obs.NewRegistry()
	mets := obs.NewAuditMetrics(obsReg)
	mon := New(reg, withClock(Options{
		WindowRows:      1000,
		MinWindows:      1,
		DriftDelta:      0.10,
		AutoReinduce:    true,
		MinReinduceRows: 200,
		ReservoirRows:   2048,
		Metrics:         mets,
	}))

	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	if got := mets.RowsScored.With("engines").Value(); got != uint64(clean.NumRows()) {
		t.Fatalf("rows scored = %d, want %d", got, clean.NumRows())
	}
	if got := mets.WindowsSealed.With("engines").Value(); got != 1 {
		t.Fatalf("windows sealed = %d, want 1", got)
	}
	if got := mets.DriftActive.With("engines").Value(); got != 0 {
		t.Fatalf("drift active on clean data = %v", got)
	}
	if got := mets.BaselineSuspiciousRate.With("engines").Value(); got != meta.Quality.SuspiciousRate {
		t.Fatalf("baseline rate gauge = %v, want %v", got, meta.Quality.SuspiciousRate)
	}
	if got := mets.ReservoirRows.With("engines").Value(); got == 0 {
		t.Fatal("reservoir gauge never set")
	}
	// The polluted fixture breaks BRV → GBM on every row, so the GBM
	// attribute series must exist already (zero on clean data is fine).
	if got := mets.AttrSuspicious.With("engines", "GBM").Value(); got > uint64(clean.NumRows()) {
		t.Fatalf("GBM suspicious on clean data = %d", got)
	}

	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	mon.WaitReinductions()

	if got := mets.Reinductions.With("engines", obs.OutcomeReinduced).Value(); got != 1 {
		t.Fatalf("reinduced outcome count = %d, want 1", got)
	}
	if got := mets.ReinduceSeconds.Snapshot().Count; got != 1 {
		t.Fatalf("reinduction duration observations = %d, want 1", got)
	}
	if got := mets.AttrSuspicious.With("engines", "GBM").Value(); got == 0 {
		t.Fatal("polluted GBM rows left no attribute deviations")
	}
	// The successor swap establishes a fresh baseline: the latch gauge
	// must read 0 again without waiting for the next fold.
	if got := mets.DriftActive.With("engines").Value(); got != 0 {
		t.Fatalf("drift gauge not cleared after re-induction: %v", got)
	}

	mon.Forget("engines")
	var sb strings.Builder
	if err := obsReg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `model="engines"`) {
		t.Fatalf("forgotten model's series survive:\n%s", sb.String())
	}
}

// TestMetricsSkippedOutcome pins the trigger-time skip path: drift with
// auto re-induction disabled records a skipped outcome and raises the
// drift gauge, and no duration is observed (no worker ran).
func TestMetricsSkippedOutcome(t *testing.T) {
	model, clean, dirty := fixture(t, 3000)
	meta := metaFor(model, clean)
	obsReg := obs.NewRegistry()
	mets := obs.NewAuditMetrics(obsReg)
	mon := New(nil, withClock(Options{
		WindowRows: 1000,
		MinWindows: 1,
		DriftDelta: 0.10,
		Metrics:    mets,
	}))

	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	if got := mets.Reinductions.With("engines", obs.OutcomeSkipped).Value(); got != 1 {
		t.Fatalf("skipped outcome count = %d, want 1", got)
	}
	if got := mets.ReinduceSeconds.Snapshot().Count; got != 0 {
		t.Fatalf("duration observed for a skipped trigger: %d", got)
	}
	if got := mets.DriftActive.With("engines").Value(); got != 1 {
		t.Fatalf("drift gauge = %v, want 1 while latched", got)
	}
	if got := mets.DriftDelta.With("engines").Value(); got <= 0.10 {
		t.Fatalf("drift delta gauge = %v, want above the threshold", got)
	}
}

// TestMetricsFoldAllocFree pins the zero-allocation contract on the
// instrumented fold path: once the per-model handles are interned, a
// fold with metrics attached performs only atomic updates — exactly as
// many allocations as the uninstrumented path, i.e. none.
func TestMetricsFoldAllocFree(t *testing.T) {
	const attrs = 8
	tallies := make([]audit.AttrTally, attrs)
	for i := range tallies {
		tallies[i] = audit.AttrTally{Attr: i, Deviations: 3, Suspicious: 1, MaxErrorConf: 0.9}
	}
	mets := obs.NewAuditMetrics(obs.NewRegistry())
	// A window far larger than the folded rows: sealing (which builds a
	// Snapshot) must not run inside the measured loop.
	mon := New(nil, Options{WindowRows: 1 << 40, Metrics: mets})
	meta := registry.Meta{Name: "bench", Version: 1, Quality: &audit.QualityProfile{SuspiciousRate: 0.01}}
	st := mon.state(meta, shellModel(attrs))

	fold := func() {
		st.mu.Lock()
		mon.foldLocked(st, 256, 2, tallies)
		st.mu.Unlock()
	}
	fold() // warm-up interns the metric handles
	if st.met == nil {
		t.Fatal("metric handles not interned by the fold path")
	}
	if allocs := testing.AllocsPerRun(200, fold); allocs != 0 {
		t.Fatalf("instrumented fold allocates %.1f per observation, want 0", allocs)
	}
}
