package monitor

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/obs"
)

// Asynchronous re-induction. Induction over the reservoir plus the
// quality-profile audit of the candidate take CPU-seconds on a real
// sample — far too long to run under st.mu inside a client's audit
// request, where every concurrent batch and in-flight NDJSON stream of
// the model (via OnRow) would stall behind it. Instead the drift path
// snapshots everything the induction needs under the lock, runs the
// expensive part in a background worker, and re-locks only to swap the
// successor in — guarded by (version, createdAt, dead), so a model that
// was republished, deleted or recreated while the worker ran can never
// be clobbered by a stale candidate.

// reinduceJob is the immutable snapshot a re-induction worker runs on.
// Everything here is private to the worker: the sample is a clone of the
// reservoir's table taken under st.mu, so later audits mutating the
// reservoir race with nothing.
type reinduceJob struct {
	name      string
	version   int
	createdAt time.Time
	window    int
	opts      audit.Options
	sample    *dataset.Table
	// attrs are the schema columns the per-attribute detectors attributed
	// the drift to; non-empty routes the worker through the partial
	// re-induction path (only these attributes rebuilt, the rest shared
	// with the predecessor). Empty falls back to a full induction.
	attrs []int
}

// triggerReinduceLocked starts the asynchronous re-induction path after a
// drift, or logs why it did not; st.mu must be held. Duplicate triggers
// while a worker is in flight coalesce into the running one. attrs is the
// drifted-attribute set for the partial path (may be empty).
func (m *Monitor) triggerReinduceLocked(st *modelState, window int, attrs []int) {
	if !m.opts.AutoReinduce {
		m.event(st, Event{Kind: EventReinduceSkipped, Window: window, Version: st.Version,
			Message: "auto re-induction disabled"})
		m.reinduceOutcome(st.Name, obs.OutcomeSkipped, -1)
		return
	}
	if st.reinducing {
		m.event(st, Event{Kind: EventReinduceSkipped, Window: window, Version: st.Version,
			Message: "re-induction already in flight; coalesced"})
		m.reinduceOutcome(st.Name, obs.OutcomeSkipped, -1)
		return
	}
	if st.tab.NumRows() < m.opts.MinReinduceRows {
		m.event(st, Event{Kind: EventReinduceSkipped, Window: window, Version: st.Version,
			Message: fmt.Sprintf("reservoir has %d rows, need %d", st.tab.NumRows(), m.opts.MinReinduceRows)})
		m.reinduceOutcome(st.Name, obs.OutcomeSkipped, -1)
		return
	}
	job := reinduceJob{
		name:      st.Name,
		version:   st.Version,
		createdAt: st.CreatedAt,
		window:    window,
		opts:      st.Options,
		sample:    st.tab.Clone(),
		attrs:     attrs,
	}
	st.reinducing = true
	m.wg.Add(1)
	go m.reinduce(st, job)
}

// reinduce is the background worker: induce a successor from the
// reservoir snapshot, audit its quality profile, publish it through the
// registry's atomic path, and swap it in — all without holding st.mu
// during the expensive stages.
func (m *Monitor) reinduce(st *modelState, job reinduceJob) {
	defer m.wg.Done()
	start := m.opts.now()
	elapsed := func() float64 { return m.opts.now().Sub(start).Seconds() }
	if h := m.opts.hookReinduceStart; h != nil {
		h(job.name, job.version)
	}

	next, partial, profile, indErr := m.candidate(job)

	// Pre-publish guard: if the tracked incarnation already moved on (or
	// the model was deleted), discard the candidate before touching the
	// registry — a publish for a dead name would recreate the deleted
	// model's directory as a side effect.
	st.mu.Lock()
	if !st.guardHolds(job) {
		m.finishSuperseded(st, job, 0)
		st.mu.Unlock()
		m.reinduceOutcome(job.name, obs.OutcomeSuperseded, elapsed())
		return
	}
	if indErr != nil {
		st.reinducing = false
		m.event(st, Event{Kind: EventReinduceFailed, Window: job.window, Version: job.version,
			Message: fmt.Sprintf("induction over %d reservoir rows: %v", job.sample.NumRows(), indErr)})
		m.saveLocked(st)
		st.mu.Unlock()
		m.reinduceOutcome(job.name, obs.OutcomeFailed, elapsed())
		return
	}
	st.mu.Unlock()

	// The publish (disk I/O) also runs outside st.mu. A Forget/Delete
	// landing in this narrow window can still interleave with the commit
	// — that ordering is a registry-level concern the monitor cannot
	// close from here — but the swap below re-checks the guard, so the
	// monitor state itself stays consistent and the outcome is logged as
	// superseded rather than silently adopted.
	meta, pubErr := m.reg.PublishWithQuality(job.name, next, profile)

	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.guardHolds(job) {
		m.finishSuperseded(st, job, meta.Version)
		m.reinduceOutcome(job.name, obs.OutcomeSuperseded, elapsed())
		return
	}
	st.reinducing = false
	if pubErr != nil {
		m.event(st, Event{Kind: EventReinduceFailed, Window: job.window, Version: job.version,
			Message: fmt.Sprintf("publish: %v", pubErr)})
		m.saveLocked(st)
		m.reinduceOutcome(job.name, obs.OutcomeFailed, elapsed())
		return
	}

	how := "full induction"
	if partial > 0 {
		how = fmt.Sprintf("partial re-induction of %d attributes", partial)
	}
	m.opts.Logger.Printf("monitor: %s drifted at window %d; re-induced v%d from %d reservoir rows (%s)",
		job.name, job.window, meta.Version, job.sample.NumRows(), how)
	m.event(st, Event{Kind: EventReinduced, Window: job.window, Version: job.version, NewVersion: meta.Version,
		Message: fmt.Sprintf("re-induced from %d reservoir rows (%s)", job.sample.NumRows(), how)})

	// The successor becomes the tracked version with the profile it was
	// published with as its baseline; history (snapshots, events) carries
	// across.
	st.trackVersion(meta, next, &m.opts)
	// Re-intern immediately (trackVersion invalidated the handles) so the
	// drift gauges clear now, not at the next fold.
	if m.metricsLocked(st) != nil {
		st.syncDriftGaugesLocked()
	}
	m.saveLocked(st)
	m.reinduceOutcome(job.name, obs.OutcomeReinduced, elapsed())
}

// candidate induces the successor and audits its quality profile over
// the sample. A panic in either — a predecessor decoded from the registry
// whose stored state the induction cannot use, say — comes back as the
// error, so it fails this re-induction instead of the process; the log
// keeps the panic's full text and stack.
func (m *Monitor) candidate(job reinduceJob) (next *audit.Model, partial int, profile *audit.QualityProfile, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.opts.Logger.Printf("monitor: %s: re-induction panicked: %v\n%s", job.name, v, debug.Stack())
			first, _, _ := strings.Cut(fmt.Sprint(v), "\n")
			next, profile, err = nil, nil, fmt.Errorf("panic: %s", first)
		}
	}()
	next, partial, err = m.induceCandidate(job)
	if err == nil {
		profile = next.QualityProfile(job.sample, 0)
	}
	return next, partial, profile, err
}

// induceCandidate builds the successor model for a re-induction job. When
// the drift was attributed to specific attributes, the predecessor model
// is fetched back from the registry (guarded by the same (version,
// createdAt) incarnation check as the swap) and only the drifted
// attributes are re-induced from the reservoir sample over the families'
// frozen state (discretizer bins, tree skeletons), which is ≈ 15–20×
// cheaper than a rebuild at the same sensitivity/specificity on the
// benchmark's maintain workload. Any failure along the partial path, or a
// drift no attribute owns, falls back to a full induction from scratch;
// partial reports how many attributes the partial path rebuilt (0 for a
// full induction).
func (m *Monitor) induceCandidate(job reinduceJob) (next *audit.Model, partial int, err error) {
	if len(job.attrs) > 0 && m.reg != nil {
		prev, meta, getErr := m.reg.GetVersion(job.name, job.version)
		if getErr == nil && meta.CreatedAt.Equal(job.createdAt) {
			next, reErr := prev.ReinduceAttrs(job.sample, job.attrs, audit.ReinduceOptions{
				Mode: audit.ReinduceMode(m.opts.ReinduceMode),
			})
			if reErr == nil {
				return next, len(job.attrs), nil
			}
			m.opts.Logger.Printf("monitor: %s: partial re-induction of %d attributes failed (%v); falling back to full induction",
				job.name, len(job.attrs), reErr)
		}
	}
	next, err = audit.Induce(job.sample, job.opts)
	return next, 0, err
}

// reinduceOutcome records one re-induction outcome; seconds is the
// worker's end-to-end duration, or negative for trigger-time skips (no
// worker ran, so there is no duration to observe).
func (m *Monitor) reinduceOutcome(name, outcome string, seconds float64) {
	mets := m.opts.Metrics
	if mets == nil {
		return
	}
	mets.Reinductions.With(name, outcome).Inc()
	if seconds >= 0 {
		mets.ReinduceSeconds.Observe(seconds)
	}
}

// guardHolds reports whether the worker's snapshot still matches the
// tracked incarnation; st.mu must be held.
func (st *modelState) guardHolds(job reinduceJob) bool {
	return !st.dead && st.Version == job.version && st.CreatedAt.Equal(job.createdAt)
}

// finishSuperseded logs a worker that lost the guard race; st.mu must be
// held. published is the committed successor version when the registry
// publish had already happened (0 otherwise).
func (m *Monitor) finishSuperseded(st *modelState, job reinduceJob, published int) {
	st.reinducing = false
	msg := "model version changed during re-induction; candidate discarded"
	if st.dead {
		msg = "model deleted during re-induction; candidate discarded"
	}
	if published > 0 {
		msg += fmt.Sprintf(" (v%d had already been published)", published)
	}
	m.event(st, Event{Kind: EventReinduceSuperseded, Window: job.window, Version: job.version,
		NewVersion: published, Message: msg})
	m.saveLocked(st)
}
