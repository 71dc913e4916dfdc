package monitor

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/obs"
	"dataaudit/internal/registry"
)

// Options configure a Monitor.
type Options struct {
	// WindowRows is the snapshot granularity: a window seals once at least
	// this many audited rows accumulated (default 1024). Windows are
	// counted in rows, not wall time, so snapshot history is a
	// deterministic function of the observation sequence.
	WindowRows int64
	// DriftDelta is the threshold detector: drift fires when a sealed
	// window's suspicious rate exceeds the baseline rate by more than this.
	// Zero or negative selects the default 0.10 (as everywhere in this
	// struct — there is no "fire on any excess" zero setting; use a tiny
	// positive delta for that).
	DriftDelta float64
	// PHLambda is the alarm threshold of the Page-Hinkley cumulative test
	// over the window suspicious-rate series (default 0.25; zero or
	// negative selects the default). The test's per-window drift
	// allowance δ is fixed at 0.005.
	PHLambda float64
	// NullDelta is the completeness detector: an attribute drifts when a
	// sealed window's null rate exceeds the attribute's baseline null
	// rate by more than this (default 0.05). Completeness drift is
	// reported — an event, the latched attribute list, a metric — but
	// never triggers re-induction: missing values are an ingestion
	// problem, and re-inducing on them would teach the model that nulls
	// are normal.
	NullDelta float64
	// MinWindows is the number of sealed windows required since the
	// baseline before either detector may fire (default 2) — a warm-up
	// against alarming on the very first partial view of the data.
	MinWindows int
	// ReservoirRows caps the uniform row sample kept for re-induction
	// (default 4096).
	ReservoirRows int
	// MinReinduceRows is the smallest reservoir that may be re-induced
	// from (default 128); with fewer rows a drift only emits events.
	MinReinduceRows int
	// AutoReinduce enables drift-triggered re-induction: on drift the
	// monitor induces a successor from the reservoir in a background
	// worker and publishes it as the next version through the registry's
	// atomic publish path. The induction runs outside the model's
	// monitoring lock, so concurrent audits of a drifting model never
	// stall behind it (see worker.go).
	AutoReinduce bool
	// ReinduceMode selects how a partial re-induction rebuilds the drifted
	// attributes: "incremental" (default — frozen discretizer bins and
	// warm starts) or "full" (each drifted attribute re-induced
	// from scratch). Matches audit.ReinduceMode. Not a fork of one result:
	// "full" re-derives the bins, so the two modes induce different models.
	ReinduceMode string
	// StateDir, when non-empty, makes monitoring state crash-durable:
	// snapshots, events, drift-detector state and the re-induction
	// reservoir are serialized atomically (temp file + rename, versioned
	// envelope) into this directory after window closes — at once for the
	// first seal after a quiet second, then at most once a second with the
	// newest state, so a crash loses at most the last second's windows —
	// and on SaveAll/Close, which lose nothing. The state is reloaded
	// lazily at the next boot so quality history survives process
	// restarts (see persist.go). Empty disables persistence. The serving
	// layer defaults this to the registry's StateDir.
	StateDir string
	// Logger receives lifecycle messages (default log.Default()).
	Logger *log.Logger
	// Metrics, when set, receives scoring and lifecycle instrumentation:
	// rows and per-attribute deviations folded batch-at-a-time, sealed
	// windows, drift-detector gauges, reservoir fill and re-induction
	// outcomes/durations. The handles are interned per model state, so
	// the fold path's per-observation cost is a handful of atomic adds —
	// never an allocation (see modelMetrics). Nil disables instrumentation.
	Metrics *obs.AuditMetrics

	// hookReinduceStart, when set, is called by the background
	// re-induction worker after the reservoir snapshot is taken and
	// before induction begins — test instrumentation for simulating slow
	// re-inductions. It runs outside every monitor lock.
	hookReinduceStart func(name string, version int)
	// seed seeds the reservoir PRNG (default 1); fixed so the sample is a
	// deterministic function of the observed rows. After a state reload
	// the PRNG restarts from the seed — sampled rows and the seen count
	// survive a restart exactly, while the sampling stream itself is only
	// deterministic between restarts.
	seed int64
	// now is the clock used for snapshot/event timestamps (default
	// time.Now; tests inject one for byte-identical histories).
	now func() time.Time
}

// History caps and the Page-Hinkley drift allowance.
const (
	// maxSnapshots bounds the retained snapshot history per model (oldest
	// dropped first).
	maxSnapshots = 128
	// maxEvents bounds the retained lifecycle events per model (oldest
	// dropped first).
	maxEvents = 256
	// phDelta is the Page-Hinkley test's tolerated drift per window.
	phDelta = 0.005
)

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.WindowRows <= 0 {
		o.WindowRows = 1024
	}
	if o.DriftDelta <= 0 {
		o.DriftDelta = 0.10
	}
	if o.PHLambda <= 0 {
		o.PHLambda = 0.25
	}
	if o.NullDelta <= 0 {
		o.NullDelta = 0.05
	}
	if o.MinWindows <= 0 {
		o.MinWindows = 2
	}
	if o.ReservoirRows <= 0 {
		o.ReservoirRows = 4096
	}
	if o.MinReinduceRows <= 0 {
		o.MinReinduceRows = 128
	}
	if o.seed == 0 {
		o.seed = 1
	}
	if o.ReinduceMode == "" {
		o.ReinduceMode = string(audit.ReinduceIncremental)
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// EventKind names a lifecycle event.
type EventKind string

const (
	// EventBaselineAdopted: the model had no induction-time QualityProfile,
	// so the first sealed window was adopted as the baseline.
	EventBaselineAdopted EventKind = "baseline-adopted"
	// EventDrift: a drift detector fired against the baseline.
	EventDrift EventKind = "drift"
	// EventReinduced: a successor model was induced from the reservoir and
	// published as the next version.
	EventReinduced EventKind = "reinduced"
	// EventReinduceSkipped: drift fired but re-induction was not attempted
	// (disabled, the reservoir is too small, or a re-induction for the
	// model is already in flight — duplicate triggers coalesce into the
	// running one).
	EventReinduceSkipped EventKind = "reinduce-skipped"
	// EventReinduceFailed: re-induction or the publish failed.
	EventReinduceFailed EventKind = "reinduce-failed"
	// EventReinduceSuperseded: a background re-induction finished but the
	// tracked (version, createdAt) changed while it ran — the model was
	// deleted, recreated or republished — so the candidate was discarded
	// instead of swapped in.
	EventReinduceSuperseded EventKind = "reinduce-superseded"
)

// Event is one entry of a model's lifecycle log.
type Event struct {
	Kind    EventKind `json:"kind"`
	Window  int       `json:"window"`
	Version int       `json:"version"`
	// NewVersion is the published successor version (EventReinduced, or an
	// EventReinduceSuperseded whose publish had already committed).
	NewVersion int `json:"newVersion,omitempty"`
	// Detector names what fired an EventDrift: "threshold" or
	// "page-hinkley".
	Detector string `json:"detector,omitempty"`
	// Delta is the window suspicious rate minus the baseline rate; PH the
	// Page-Hinkley statistic, both at the time of the event.
	Delta float64 `json:"delta,omitempty"`
	PH    float64 `json:"ph,omitempty"`
	// Attrs names the attributes the per-attribute detectors had latched
	// when an EventDrift fired — the offending columns the re-induction
	// partial path rebuilds. Empty when only the model-level detector saw
	// the drift.
	Attrs   []string  `json:"attrs,omitempty"`
	Message string    `json:"message,omitempty"`
	At      time.Time `json:"at"`
}

// AttrWindow is one attribute's deviation tally inside a sealed window.
// Only grouping-insensitive statistics appear here — counts, rates and
// max are bit-identical however the stream engine chunked the rows,
// whereas a float sum (and thus a mean) picks up ULP differences from the
// summation order. That restriction is what makes snapshot history
// byte-identical across chunkings and worker counts.
type AttrWindow struct {
	Attr         string  `json:"attr"`
	Deviations   int64   `json:"deviations"`
	Suspicious   int64   `json:"suspicious"`
	MaxErrorConf float64 `json:"maxErrorConf"`
	// Nulls counts the attribute's null cells in the window — the
	// completeness observation the null-drift detector compares against
	// the baseline null rate.
	Nulls int64 `json:"nulls"`
}

// Snapshot is one sealed monitoring window.
type Snapshot struct {
	// Window is the 0-based sealed-window index over the model's whole
	// monitored lifetime; Version the model version the rows were scored
	// against.
	Window  int `json:"window"`
	Version int `json:"version"`
	// Rows and Suspicious count the window; a window holds at least
	// Options.WindowRows rows (it seals at the first observation boundary
	// at or past the target, so a large batch lands in one window).
	Rows           int64        `json:"rows"`
	Suspicious     int64        `json:"suspicious"`
	SuspiciousRate float64      `json:"suspiciousRate"`
	Attrs          []AttrWindow `json:"attrs"`
	At             time.Time    `json:"at"`
}

// DriftState is the live detector state of one model.
type DriftState struct {
	// Drifted latches once a detector fires and clears when re-induction
	// establishes a new baseline.
	Drifted bool `json:"drifted"`
	// LastDelta is the most recent window's suspicious-rate delta versus
	// the baseline.
	LastDelta float64 `json:"lastDelta"`
	// PH and PHMean expose the Page-Hinkley statistic and its running
	// mean.
	PH     float64 `json:"ph"`
	PHMean float64 `json:"phMean"`
	// WindowsSinceBaseline counts sealed windows since the current
	// baseline was established.
	WindowsSinceBaseline int `json:"windowsSinceBaseline"`
	// Attrs names the attributes whose per-attribute detectors are
	// currently latched — the drift's attribution. Sorted by schema
	// column, empty while nothing attribute-level has fired.
	Attrs []string `json:"attrs,omitempty"`
	// NullAttrs names the attributes whose completeness detectors are
	// currently latched (windowed null rate above baseline by more than
	// Options.NullDelta). Sorted by schema column.
	NullAttrs []string `json:"nullAttrs,omitempty"`
}

// State is a point-in-time copy of one model's monitoring state.
type State struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// WindowRows / Windows describe the snapshot cadence; PendingRows is
	// the open (not yet sealed) window's row count.
	WindowRows  int64 `json:"windowRows"`
	Windows     int   `json:"windows"`
	PendingRows int64 `json:"pendingRows"`
	// Baseline is the QualityProfile drift is measured against;
	// BaselineAdopted reports it was taken from the first sealed window
	// rather than captured at induction.
	Baseline        *audit.QualityProfile `json:"baseline,omitempty"`
	BaselineAdopted bool                  `json:"baselineAdopted,omitempty"`
	Snapshots       []Snapshot            `json:"snapshots"`
	Drift           DriftState            `json:"drift"`
	Events          []Event               `json:"events"`
	// ReservoirRows / ReservoirSeen describe the re-induction sample: rows
	// currently held and rows ever offered since the last re-induction.
	ReservoirRows int   `json:"reservoirRows"`
	ReservoirSeen int64 `json:"reservoirSeen"`
	AutoReinduce  bool  `json:"autoReinduce"`
	// Reinducing reports that a background re-induction worker is in
	// flight for the model (audits keep being served meanwhile).
	Reinducing bool `json:"reinducing,omitempty"`
}

// Monitor folds audit results into per-model windowed snapshots, runs the
// drift detectors and (optionally) closes the re-induction loop through
// the registry. All methods are safe for concurrent use.
type Monitor struct {
	reg  *registry.Registry
	opts Options

	mu     sync.Mutex
	models map[string]*modelState

	// wg tracks background work: re-induction workers and state
	// flushers. Close/WaitReinductions rendezvous on it.
	wg sync.WaitGroup

	// disk is the crash-durability sink (nil: persistence disabled).
	disk *persister
	// interval spaces one model's state commits (commitInterval; tests
	// shorten or lengthen it before the first observation).
	interval time.Duration
	// hurry counts callers draining the flushers (WaitReinductions,
	// Close): while it is non-zero no flusher sleeps out an interval.
	hurry atomic.Int32
	// gens numbers modelState generations: every state entered into the
	// map (fresh or loaded) takes the next value, so the persister can
	// tell a dead generation's late write from a recreated name's fresh
	// one.
	gens atomic.Uint64
}

// StateDisabled is the Options.StateDir sentinel that turns persistence
// off explicitly — for embedders (like the serving layer) that default a
// non-empty state dir when the field is left empty.
const StateDisabled = "disabled"

// New builds a Monitor over a registry.
func New(reg *registry.Registry, opts Options) *Monitor {
	m := &Monitor{reg: reg, opts: opts.WithDefaults(), models: make(map[string]*modelState), interval: commitInterval}
	if m.opts.StateDir != "" && m.opts.StateDir != StateDisabled {
		m.disk = newPersister(m.opts.StateDir)
	}
	return m
}

// modelState is the per-model monitoring state: the persisted fields plus
// what only the running process needs. Its own mutex (not the Monitor's)
// guards it, so folding one model never blocks another; the Monitor lock
// only guards the map.
type modelState struct {
	mu sync.Mutex

	// gen is the Monitor-wide generation number assigned when the state
	// entered the model map (see Monitor.gens).
	gen uint64
	// dead marks a state removed by Forget while a background worker may
	// still hold a pointer to it: the worker's swap guard refuses a dead
	// state, so an in-flight re-induction cannot resurrect a deleted
	// model.
	dead bool
	// reinducing coalesces drift triggers: while a background
	// re-induction worker is in flight for this model, further triggers
	// are logged as skipped instead of spawning duplicate workers.
	reinducing bool
	// saveSeq orders persisted snapshots of this state: each capture under
	// st.mu takes the next sequence number, and the persister drops writes
	// that would regress it (see persist.go).
	saveSeq uint64
	// dirty marks state changed since the flusher's last capture;
	// flushing that a flusher goroutine is running for this state; wake
	// cuts its pending interval short (see persist.go).
	dirty, flushing bool
	wake            chan struct{}

	persistedState

	// met caches the model's interned metric children (nil when metrics
	// are disabled, or until the first fold after the state adopted a
	// model or was reloaded from disk). trackVersion clears it so the
	// per-attribute handle slices are rebuilt for the new attribute set.
	met *modelMetrics
}

// persistedState is every field of a model's monitoring state that
// survives a restart, declared once: modelState embeds it as the live
// state and stateEnvelope embeds it as the on-disk form, so a save is one
// struct copy and a load one assignment. What the fold and re-induction
// paths need from the model is captured here — never the model itself:
// retaining every audited model's classifiers would defeat the registry's
// LRU bound on resident models.
type persistedState struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// CreatedAt is the publish time of the tracked version (incarnation
	// check).
	CreatedAt time.Time `json:"createdAt"`

	Options audit.Options `json:"options"`
	// Classes is the schema column of each tallied attribute (Model.Attrs
	// order). The schema itself is the reservoir table's (tab.Schema()).
	Classes []int `json:"classes"`

	Baseline        *audit.QualityProfile `json:"baseline,omitempty"`
	BaselineAdopted bool                  `json:"baselineAdopted,omitempty"`

	// open-window accumulation
	WinRows       int64             `json:"winRows"`
	WinSuspicious int64             `json:"winSuspicious"`
	WinAttrs      []audit.AttrTally `json:"winAttrs"`

	Windows              int        `json:"windows"`
	WindowsSinceBaseline int        `json:"windowsSinceBaseline"`
	Snapshots            []Snapshot `json:"snapshots"`
	// The model-level detector over the window suspicious rate (JSON keys
	// ph, lastDelta, drifted).
	attrDetector
	// AttrDrift runs the per-attribute detectors, aligned with Classes;
	// zeroed whenever trackVersion runs.
	AttrDrift []attrDetector `json:"attrDrift,omitempty"`
	Events    []Event        `json:"events"`

	reservoir
}

// modelMetrics holds one model's interned metric children. Resolving a
// labelled child costs a map lookup under the vec's lock; interning the
// children once per (state, attribute set) makes every fold a short run
// of pure atomic operations — no lookups, no allocation — which is what
// lets the monitor instrument the scoring path without violating the
// core's zero-allocation contract.
type modelMetrics struct {
	rows, suspicious, sealed *obs.Counter
	winRate, baseRate        *obs.Gauge
	delta, ph, active        *obs.Gauge
	reservoir                *obs.Gauge
	// Model.Attrs order, aligned with st.Classes.
	attrDev, attrSus, attrDrift []*obs.Counter
	attrNulls, attrNullDrift    []*obs.Counter
	attrNullRate                []*obs.Gauge
	// State-file commit outcomes; nil when persistence is disabled.
	writeOK, writeErr *obs.Counter
}

// metricsLocked returns the model's interned metric children, interning
// them for the current attribute set on first use — lazily, so state
// reloaded from disk (which never runs trackVersion) interns on its first
// fold or commit after boot. Nil when metrics are disabled; st.mu must be
// held and a version tracked.
func (m *Monitor) metricsLocked(st *modelState) *modelMetrics {
	mets := m.opts.Metrics
	if st.met != nil || mets == nil {
		return st.met
	}
	mm := &modelMetrics{
		rows:          mets.RowsScored.With(st.Name),
		suspicious:    mets.RowsSuspicious.With(st.Name),
		sealed:        mets.WindowsSealed.With(st.Name),
		winRate:       mets.WindowSuspiciousRate.With(st.Name),
		baseRate:      mets.BaselineSuspiciousRate.With(st.Name),
		delta:         mets.DriftDelta.With(st.Name),
		ph:            mets.DriftPageHinkley.With(st.Name),
		active:        mets.DriftActive.With(st.Name),
		reservoir:     mets.ReservoirRows.With(st.Name),
		attrDev:       make([]*obs.Counter, len(st.Classes)),
		attrSus:       make([]*obs.Counter, len(st.Classes)),
		attrDrift:     make([]*obs.Counter, len(st.Classes)),
		attrNulls:     make([]*obs.Counter, len(st.Classes)),
		attrNullDrift: make([]*obs.Counter, len(st.Classes)),
		attrNullRate:  make([]*obs.Gauge, len(st.Classes)),
	}
	for i, c := range st.Classes {
		attr := st.tab.Schema().Attr(c).Name
		mm.attrDev[i] = mets.AttrDeviations.With(st.Name, attr)
		mm.attrSus[i] = mets.AttrSuspicious.With(st.Name, attr)
		mm.attrDrift[i] = mets.AttrDrift.With(st.Name, attr)
		mm.attrNulls[i] = mets.AttrNulls.With(st.Name, attr)
		mm.attrNullDrift[i] = mets.AttrNullDrift.With(st.Name, attr)
		mm.attrNullRate[i] = mets.AttrNullRate.With(st.Name, attr)
	}
	if m.disk != nil {
		mm.writeOK = mets.StateWrites.With(st.Name, obs.OutcomeOK)
		mm.writeErr = mets.StateWrites.With(st.Name, obs.OutcomeError)
	}
	st.met = mm
	return mm
}

// syncDriftGaugesLocked publishes the detector state into the drift
// gauges; st.mu must be held. Called after every sealed window and after
// a re-induction swap establishes a fresh baseline.
func (st *modelState) syncDriftGaugesLocked() {
	mm := st.met
	if mm == nil {
		return
	}
	if st.Baseline != nil {
		mm.baseRate.Set(st.Baseline.SuspiciousRate)
	}
	mm.delta.Set(st.LastDelta)
	mm.ph.Set(st.PH.PH)
	if st.Drifted {
		mm.active.Set(1)
	} else {
		mm.active.Set(0)
	}
}

// tracking reports whether the state is still tracking exactly the given
// model version — same version AND same publish time, so two incarnations
// of a name that happen to share a version number never alias; st.mu must
// be held.
func (st *modelState) tracking(meta registry.Meta) bool {
	return !st.dead && st.Version == meta.Version && st.CreatedAt.Equal(meta.CreatedAt)
}

// state returns (creating if needed) the tracked state for a model
// version, resetting it when a newer version or incarnation appears. It
// returns nil when the observation is stale — an older version, or any
// version of an earlier incarnation of the name — because stale scores
// must not perturb the current model's drift statistics.
//
// Observations are ordered incarnation-first, by (CreatedAt, Version):
// within one incarnation versions and publish times increase together,
// and across a delete/recreate the newer incarnation has the later
// publish time even though its version counter restarted at 1. Comparing
// versions alone would let a late audit of a *deleted* model's higher
// version hijack a recreated same-name model's state (and then every
// live-model audit would be dropped as "stale" until the new incarnation's
// version caught up — monitoring silently dead).
func (m *Monitor) state(meta registry.Meta, model *audit.Model) *modelState {
	st := m.lookupOrLoad(meta.Name, true)

	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case st.dead:
		return nil // raced with Forget; the next observation re-creates
	case st.Version == 0:
		st.trackVersion(meta, model, &m.opts)
	case meta.Version == st.Version && meta.CreatedAt.Equal(st.CreatedAt):
		// the tracked version: fold
	case meta.CreatedAt.After(st.CreatedAt):
		// Newer publish time: either the next version of the same
		// incarnation, or the first version of a newer incarnation
		// (delete + recreate). Either way the newer model wins.
		st.trackVersion(meta, model, &m.opts)
	case meta.CreatedAt.Before(st.CreatedAt):
		// Older publish time — a stale version, or a ghost incarnation
		// (even one with a higher version number): drop.
		return nil
	case meta.Version > st.Version:
		// Identical publish times with different versions cannot come from
		// the registry clock; trust the version order (synthetic metas).
		st.trackVersion(meta, model, &m.opts)
	default:
		return nil
	}
	return st
}

// lookupOrLoad returns the map entry for a name, recovering persisted
// state from the state dir on the first sight of the name since boot
// (disk I/O outside both locks). With create set it always returns an
// entry, allocating an empty one when nothing was persisted; without it
// the result is nil for unknown names — the Quality read path must not
// invent entries.
func (m *Monitor) lookupOrLoad(name string, create bool) *modelState {
	m.mu.Lock()
	st, ok := m.models[name]
	m.mu.Unlock()
	if ok {
		return st
	}
	loaded := m.loadState(name)
	if loaded == nil && !create {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, raced := m.models[name]; raced {
		return cur // a concurrent first sight won; use its entry
	}
	st = loaded
	if st == nil {
		st = &modelState{persistedState: persistedState{Name: name}}
	}
	st.gen = m.gens.Add(1)
	m.models[name] = st
	return st
}

// trackVersion points the state at a model version — a newly observed
// one, or the successor a re-induction just published — with meta.Quality
// as the fresh baseline; st.mu held. Events and snapshot history survive
// version switches — they are the lifecycle log — but the open window, the
// detectors and the reservoir restart. The window accumulators are rebuilt
// for the model's attribute set: a model re-induced from a small reservoir
// can model fewer attributes than its predecessor, and stale accumulators
// would misattribute tallies.
func (st *modelState) trackVersion(meta registry.Meta, model *audit.Model, opts *Options) {
	st.Version = meta.Version
	st.CreatedAt = meta.CreatedAt
	st.Options = model.Opts
	st.Classes = make([]int, len(model.Attrs))
	st.WinAttrs = make([]audit.AttrTally, len(model.Attrs))
	st.AttrDrift = make([]attrDetector, len(model.Attrs))
	for i, am := range model.Attrs {
		st.Classes[i] = am.Class
		st.WinAttrs[i].Attr = am.Class
	}
	st.WinRows, st.WinSuspicious = 0, 0
	st.Baseline = meta.Quality
	st.BaselineAdopted = false
	st.WindowsSinceBaseline = 0
	st.attrDetector = attrDetector{}
	if st.rng == nil {
		st.reservoir = newReservoir(model.Schema, opts.ReservoirRows, opts.seed)
	} else {
		st.reservoir.reset(model.Schema)
	}
	// Invalidate the interned metric handles: the successor's attribute
	// set may differ, and the fold path re-interns lazily.
	st.met = nil
}

// ObserveBatch folds one buffered audit (the /audit route, or any
// AuditTable/AuditTableParallel result) into the model's monitoring
// state: every row is offered to the re-induction reservoir and the
// result's aggregate seals windows as they fill.
func (m *Monitor) ObserveBatch(meta registry.Meta, model *audit.Model, tab *dataset.Table, res *audit.Result) {
	st := m.state(meta, model)
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.tracking(meta) {
		return // raced with a newer version between state() and here
	}
	row := make([]dataset.Value, tab.NumCols())
	for r := 0; r < tab.NumRows(); r++ {
		st.offer(tab.RowInto(r, row))
	}
	sus, tallies := model.TallyResult(res)
	m.foldLocked(st, int64(tab.NumRows()), sus, tallies)
}

// StreamObserver feeds one streaming audit into the monitor: wire OnRow
// into audit.StreamOptions.OnRow and call Finish with the StreamResult
// once the stream succeeded. A failed stream is simply never finished —
// its sampled rows stay in the reservoir (they were audited), but no
// aggregate is folded.
type StreamObserver struct {
	m    *Monitor
	meta registry.Meta
	st   *modelState // nil when the observation is for a stale version
}

// Stream returns an observer for one streaming audit of the given model
// version.
func (m *Monitor) Stream(meta registry.Meta, model *audit.Model) *StreamObserver {
	return &StreamObserver{m: m, meta: meta, st: m.state(meta, model)}
}

// OnRow offers one audited row to the re-induction reservoir (rows arrive
// in source order from the stream engine's reader goroutine).
func (o *StreamObserver) OnRow(row []dataset.Value, id int64) {
	if o.st == nil {
		return
	}
	o.st.mu.Lock()
	if o.st.tracking(o.meta) {
		o.st.offer(row)
	}
	o.st.mu.Unlock()
}

// Finish folds the completed stream's aggregate.
func (o *StreamObserver) Finish(res *audit.StreamResult) {
	if o.st == nil {
		return
	}
	o.st.mu.Lock()
	defer o.st.mu.Unlock()
	if !o.st.tracking(o.meta) {
		return
	}
	tallies := append([]audit.AttrTally(nil), res.Attrs...)
	o.m.foldLocked(o.st, res.RowsChecked, res.NumSuspicious, tallies)
}

// foldLocked accumulates one observation into the open window and seals
// it when full; st.mu must be held.
func (m *Monitor) foldLocked(st *modelState, rows, suspicious int64, tallies []audit.AttrTally) {
	mm := m.metricsLocked(st)
	st.WinRows += rows
	st.WinSuspicious += suspicious
	if mm != nil {
		mm.rows.Add(uint64(rows))
		mm.suspicious.Add(uint64(suspicious))
		mm.reservoir.Set(float64(st.tab.NumRows()))
	}
	for i := range tallies {
		if i >= len(st.WinAttrs) {
			break
		}
		t, u := &st.WinAttrs[i], &tallies[i]
		t.Deviations += u.Deviations
		t.Suspicious += u.Suspicious
		t.SumErrorConf += u.SumErrorConf
		t.Nulls += u.Nulls
		if u.MaxErrorConf > t.MaxErrorConf {
			t.MaxErrorConf = u.MaxErrorConf
		}
		if mm != nil && i < len(mm.attrDev) {
			mm.attrDev[i].Add(uint64(u.Deviations))
			mm.attrSus[i].Add(uint64(u.Suspicious))
			mm.attrNulls[i].Add(uint64(u.Nulls))
		}
	}
	if st.WinRows >= m.opts.WindowRows {
		m.sealLocked(st)
	}
}

// sealLocked turns the open window into a Snapshot, runs the drift
// detectors, triggers the (asynchronous) re-induction path on drift and
// persists the sealed state; st.mu must be held.
func (m *Monitor) sealLocked(st *modelState) {
	snap := Snapshot{
		Window:     st.Windows,
		Version:    st.Version,
		Rows:       st.WinRows,
		Suspicious: st.WinSuspicious,
		At:         m.opts.now(),
		Attrs:      make([]AttrWindow, len(st.WinAttrs)),
	}
	if snap.Rows > 0 {
		snap.SuspiciousRate = float64(snap.Suspicious) / float64(snap.Rows)
	}
	for i := range st.WinAttrs {
		t := &st.WinAttrs[i]
		snap.Attrs[i] = AttrWindow{
			Attr:         st.tab.Schema().Attr(t.Attr).Name,
			Deviations:   t.Deviations,
			Suspicious:   t.Suspicious,
			MaxErrorConf: t.MaxErrorConf,
			Nulls:        t.Nulls,
		}
		*t = audit.AttrTally{Attr: t.Attr}
	}
	st.Snapshots = append(st.Snapshots, snap)
	if len(st.Snapshots) > maxSnapshots {
		st.Snapshots = st.Snapshots[len(st.Snapshots)-maxSnapshots:]
	}
	st.Windows++
	st.WindowsSinceBaseline++
	st.WinRows, st.WinSuspicious = 0, 0
	if mm := st.met; mm != nil {
		mm.sealed.Inc()
		mm.winRate.Set(snap.SuspiciousRate)
		// Deferred so every return path below — baseline adoption, warm-up,
		// drift — exports whatever detector state it left behind.
		defer st.syncDriftGaugesLocked()
	}
	// Every sealed window is a persistence commit point: whatever happens
	// below (baseline adoption, drift events, a re-induction trigger)
	// mutates st before saveLocked marks it dirty at the end of each
	// return path.
	defer m.saveLocked(st)

	if st.Baseline == nil {
		// A model published without an induction-time profile: adopt the
		// first sealed window as the baseline of "normal".
		st.Baseline = baselineFromSnapshot(&snap, st.tab.Schema())
		st.BaselineAdopted = true
		st.WindowsSinceBaseline = 0
		m.event(st, Event{Kind: EventBaselineAdopted, Window: snap.Window, Version: st.Version,
			Message: fmt.Sprintf("adopted window %d (suspicious rate %.4f) as baseline", snap.Window, snap.SuspiciousRate)})
		return
	}

	warm := st.WindowsSinceBaseline >= m.opts.MinWindows
	fired := st.observe(snap.SuspiciousRate, st.Baseline.SuspiciousRate, warm, &m.opts)
	nullFired, maxNullDelta := m.observeAttrsLocked(st, &snap, warm)
	if len(nullFired) > 0 {
		// Completeness drift is its own event stream: it latches and
		// reports but never enters the re-induction trigger below —
		// re-inducing on a load full of nulls would normalize them.
		m.event(st, Event{Kind: EventDrift, Window: snap.Window, Version: st.Version,
			Detector: "completeness", Delta: maxNullDelta, Attrs: nullFired,
			Message: fmt.Sprintf("window %d null rate exceeds baseline by more than %.3f on %s",
				snap.Window, m.opts.NullDelta, strings.Join(nullFired, ", "))})
	}
	if fired == "" {
		return
	}
	attrClasses, attrNames := st.latchedAttrsLocked(func(d *attrDetector) bool { return d.Drifted })
	m.event(st, Event{Kind: EventDrift, Window: snap.Window, Version: st.Version,
		Detector: fired, Delta: st.LastDelta, PH: st.PH.PH, Attrs: attrNames,
		Message: fmt.Sprintf("window %d suspicious rate %.4f vs baseline %.4f", snap.Window, snap.SuspiciousRate, st.Baseline.SuspiciousRate)})
	m.triggerReinduceLocked(st, snap.Window, attrClasses)
}

// observeAttrsLocked folds the sealed window into the per-attribute drift
// detectors; st.mu must be held and st.Baseline set. Each attribute runs
// the detector the model runs, against its own baseline suspicious rate
// (resolved by name — the baseline's attribute set can differ from the
// tally order), plus the completeness detector: windowed null rate versus
// the baseline null rate. It returns the attributes whose completeness
// detector latched on this window (names, in tally order) and the largest
// null-rate delta among them, for the completeness drift event.
func (m *Monitor) observeAttrsLocked(st *modelState, snap *Snapshot, warm bool) (nullFired []string, maxNullDelta float64) {
	if len(st.AttrDrift) != len(snap.Attrs) {
		return nil, 0 // a reloaded state mid-adoption; the next trackVersion realigns
	}
	baseRate := make(map[string]float64, len(st.Baseline.Attrs))
	baseNull := make(map[string]float64, len(st.Baseline.Attrs))
	for _, aq := range st.Baseline.Attrs {
		baseRate[aq.Name] = aq.SuspiciousRate
		baseNull[aq.Name] = aq.NullRate
	}
	for i := range snap.Attrs {
		aw := &snap.Attrs[i]
		det := &st.AttrDrift[i]
		rate, nullRate := 0.0, 0.0
		if snap.Rows > 0 {
			rate = float64(aw.Suspicious) / float64(snap.Rows)
			nullRate = float64(aw.Nulls) / float64(snap.Rows)
		}
		det.LastNullDelta = nullRate - baseNull[aw.Attr]
		mm := st.met
		if mm != nil && i < len(mm.attrNullRate) {
			mm.attrNullRate[i].Set(nullRate)
		}
		if warm && !det.NullDrifted && det.LastNullDelta > m.opts.NullDelta {
			det.NullDrifted = true
			nullFired = append(nullFired, aw.Attr)
			if det.LastNullDelta > maxNullDelta {
				maxNullDelta = det.LastNullDelta
			}
			if mm != nil && i < len(mm.attrNullDrift) {
				mm.attrNullDrift[i].Inc()
			}
		}
		if det.observe(rate, baseRate[aw.Attr], warm, &m.opts) != "" && mm != nil && i < len(mm.attrDrift) {
			mm.attrDrift[i].Inc()
		}
	}
	return nullFired, maxNullDelta
}

// latchedAttrsLocked lists the attributes whose detector satisfies latched
// (the drift latch, or the completeness latch) as schema columns and
// names, in tally (schema-column) order; st.mu must be held.
func (st *modelState) latchedAttrsLocked(latched func(*attrDetector) bool) (classes []int, names []string) {
	for i := range st.AttrDrift {
		if latched(&st.AttrDrift[i]) && i < len(st.Classes) {
			classes = append(classes, st.Classes[i])
			names = append(names, st.tab.Schema().Attr(st.Classes[i]).Name)
		}
	}
	return classes, names
}

// baselineFromSnapshot lifts a sealed window into a QualityProfile so the
// detectors have something to compare against. AttrQuality.Attr is the
// schema column (resolved by name), matching every other profile
// producer — Model.Attrs may be a subset of the schema under
// SkipClasses, so the tally index is not the column.
func baselineFromSnapshot(snap *Snapshot, schema *dataset.Schema) *audit.QualityProfile {
	p := &audit.QualityProfile{
		Rows:           snap.Rows,
		SuspiciousRate: snap.SuspiciousRate,
		ConfHist:       make([]int64, audit.ConfHistBins),
	}
	for _, aw := range snap.Attrs {
		aq := audit.AttrQuality{
			Attr:     schema.Index(aw.Attr),
			Name:     aw.Attr,
			ConfHist: make([]int64, audit.ConfHistBins),
		}
		if snap.Rows > 0 {
			aq.DeviationRate = float64(aw.Deviations) / float64(snap.Rows)
			aq.SuspiciousRate = float64(aw.Suspicious) / float64(snap.Rows)
			aq.NullRate = float64(aw.Nulls) / float64(snap.Rows)
		}
		p.Attrs = append(p.Attrs, aq)
	}
	return p
}

// event appends to the bounded lifecycle log; st.mu must be held.
func (m *Monitor) event(st *modelState, e Event) {
	if e.At.IsZero() {
		e.At = m.opts.now()
	}
	st.Events = append(st.Events, e)
	if len(st.Events) > maxEvents {
		st.Events = st.Events[len(st.Events)-maxEvents:]
	}
}

// Forget drops the named model's monitoring state — in memory and on disk
// — after the model is deleted from the registry. Without this, a model
// recreated under the same name would inherit the deleted model's
// baseline, windows and reservoir — and, because versions restart at 1,
// the stale state would never be reset by the version check. The dropped
// state is marked dead so an in-flight re-induction worker still holding
// it cannot publish into (and thereby resurrect) the deleted model.
func (m *Monitor) Forget(name string) {
	m.mu.Lock()
	st := m.models[name]
	delete(m.models, name)
	m.mu.Unlock()
	var gen uint64
	if st != nil {
		st.mu.Lock()
		st.dead = true
		st.wakeLocked() // a pending flusher exits without writing
		gen = st.gen
		st.mu.Unlock()
	}
	if m.disk != nil {
		// Exhausting the dead generation's sequence space blocks a write
		// its flusher already captured; a recreated name gets a later
		// generation and persists normally.
		m.disk.remove(name, gen)
	}
	if m.opts.Metrics != nil {
		// Drop every series labelled with the name so a recreated model
		// starts from zero instead of inheriting the dead incarnation's
		// counters.
		m.opts.Metrics.ForgetModel(name)
	}
}

// Quality returns a copy of the named model's monitoring state; ok is
// false when the monitor has not observed the model yet — neither in this
// process nor, when persistence is enabled, in a previous one (persisted
// state is recovered lazily, so quality history is served across restarts
// even before the model's first audit).
func (m *Monitor) Quality(name string) (State, bool) {
	st := m.lookupOrLoad(name, false)
	if st == nil {
		return State{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.Version == 0 || st.dead {
		// The entry was created by a concurrent first observation whose
		// trackVersion has not run yet (or was just forgotten); there is
		// no state to report (and the reservoir has no table yet).
		return State{}, false
	}
	_, driftedNames := st.latchedAttrsLocked(func(d *attrDetector) bool { return d.Drifted })
	_, nullNames := st.latchedAttrsLocked(func(d *attrDetector) bool { return d.NullDrifted })
	out := State{
		Name:            st.Name,
		Version:         st.Version,
		WindowRows:      m.opts.WindowRows,
		Windows:         st.Windows,
		PendingRows:     st.WinRows,
		Baseline:        st.Baseline,
		BaselineAdopted: st.BaselineAdopted,
		// Empty histories marshal as [] (not null) for wire clients.
		Snapshots: append([]Snapshot{}, st.Snapshots...),
		Events:    append([]Event{}, st.Events...),
		Drift: DriftState{
			Drifted:              st.Drifted,
			LastDelta:            st.LastDelta,
			PH:                   st.PH.PH,
			PHMean:               st.PH.Mean,
			WindowsSinceBaseline: st.WindowsSinceBaseline,
			Attrs:                driftedNames,
			NullAttrs:            nullNames,
		},
		ReservoirRows: st.tab.NumRows(),
		ReservoirSeen: st.Seen,
		AutoReinduce:  m.opts.AutoReinduce,
		Reinducing:    st.reinducing,
	}
	return out, true
}
