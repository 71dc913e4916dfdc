package obs

// The dataaudit metric set. One struct holds every scoring/lifecycle
// metric handle so the monitor (fold path, drift detectors, re-induction
// worker), the serving layer and the one-shot CLI all instrument the
// same series — /metrics on the daemon and `audit -stats` on the command
// line read from identical structs.

// Reinduction outcome label values (the `outcome` label of
// dataaudit_reinductions_total), mirroring the monitor's lifecycle
// events.
const (
	OutcomeReinduced  = "reinduced"
	OutcomeFailed     = "failed"
	OutcomeSkipped    = "skipped"
	OutcomeSuperseded = "superseded"
)

// State-write outcome label values (the `outcome` label of
// dataaudit_monitor_state_writes_total).
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// ReinduceBuckets are the re-induction duration bucket bounds in seconds:
// re-inductions take milliseconds on toy reservoirs and whole minutes on
// warehouse-scale ones.
func ReinduceBuckets() []float64 {
	return []float64{.01, .05, .25, 1, 5, 15, 60, 300}
}

// AuditMetrics is the scoring + lifecycle metric set.
type AuditMetrics struct {
	// RowsScored / RowsSuspicious count audited rows per model, folded
	// batch-at-a-time from the monitor's aggregation path (never row-at-
	// a-time — the scoring hot loop stays allocation- and metric-free).
	RowsScored     *CounterVec // labels: model
	RowsSuspicious *CounterVec // labels: model
	// AttrDeviations / AttrSuspicious count per-attribute findings.
	AttrDeviations *CounterVec // labels: model, attr
	AttrSuspicious *CounterVec // labels: model, attr
	// WindowsSealed counts sealed monitoring windows.
	WindowsSealed *CounterVec // labels: model
	// WindowSuspiciousRate is the most recent sealed window's suspicious
	// rate; BaselineSuspiciousRate the baseline it is compared against.
	WindowSuspiciousRate   *GaugeVec // labels: model
	BaselineSuspiciousRate *GaugeVec // labels: model
	// DriftDelta / DriftPageHinkley expose the live detector statistics;
	// DriftActive is 1 while the drift latch is set.
	DriftDelta       *GaugeVec // labels: model
	DriftPageHinkley *GaugeVec // labels: model
	DriftActive      *GaugeVec // labels: model
	// AttrDrift counts per-attribute drift detector latches — one
	// increment each time an attribute's detector fires against the
	// current baseline.
	AttrDrift *CounterVec // labels: model, attr
	// AttrNulls counts per-attribute null cells among the audited rows —
	// the completeness dimension's raw observation, folded window-at-a-
	// time like every other monitor series.
	AttrNulls *CounterVec // labels: model, attr
	// AttrNullRate is the most recently sealed window's per-attribute
	// null rate (completeness' complement).
	AttrNullRate *GaugeVec // labels: model, attr
	// AttrNullDrift counts completeness-drift latches: an attribute's
	// windowed null rate exceeded its baseline by more than the
	// configured delta.
	AttrNullDrift *CounterVec // labels: model, attr
	// ReservoirRows is the re-induction reservoir fill.
	ReservoirRows *GaugeVec // labels: model
	// Reinductions counts re-induction outcomes; ReinduceSeconds times
	// the background worker end-to-end (induction + profile + publish).
	Reinductions    *CounterVec // labels: model, outcome
	ReinduceSeconds *Histogram
	// StateWrites counts commits of the monitor's crash-durable state
	// file, by outcome (ok, error) — a failed write is otherwise only a
	// log line.
	StateWrites *CounterVec // labels: model, outcome
}

// NewAuditMetrics registers the scoring/lifecycle metric set.
func NewAuditMetrics(r *Registry) *AuditMetrics {
	return &AuditMetrics{
		RowsScored: r.NewCounterVec("dataaudit_rows_scored_total",
			"Rows scored through the audit routes, by model.", "model"),
		RowsSuspicious: r.NewCounterVec("dataaudit_rows_suspicious_total",
			"Rows flagged suspicious (error confidence >= the model's minimum), by model.", "model"),
		AttrDeviations: r.NewCounterVec("dataaudit_attr_deviations_total",
			"Attribute-level deviations (findings with positive error confidence), by model and attribute.", "model", "attr"),
		AttrSuspicious: r.NewCounterVec("dataaudit_attr_suspicious_total",
			"Attribute-level deviations at or above the model's minimum confidence, by model and attribute.", "model", "attr"),
		WindowsSealed: r.NewCounterVec("dataaudit_monitor_windows_sealed_total",
			"Sealed quality-monitoring windows, by model.", "model"),
		WindowSuspiciousRate: r.NewGaugeVec("dataaudit_window_suspicious_rate",
			"Suspicious rate of the most recently sealed monitoring window, by model.", "model"),
		BaselineSuspiciousRate: r.NewGaugeVec("dataaudit_baseline_suspicious_rate",
			"Suspicious rate of the model's quality baseline (induction-time profile or adopted first window).", "model"),
		DriftDelta: r.NewGaugeVec("dataaudit_drift_delta",
			"Latest window suspicious rate minus the baseline rate, by model.", "model"),
		DriftPageHinkley: r.NewGaugeVec("dataaudit_drift_page_hinkley",
			"Page-Hinkley cumulative statistic over the window suspicious-rate series, by model.", "model"),
		DriftActive: r.NewGaugeVec("dataaudit_drift_active",
			"1 while the model's drift latch is set (cleared by re-induction), else 0.", "model"),
		AttrDrift: r.NewCounterVec("dataaudit_attr_drift_total",
			"Per-attribute drift detector latches against the current baseline, by model and attribute.", "model", "attr"),
		AttrNulls: r.NewCounterVec("dataaudit_attr_nulls_total",
			"Null cells among the audited rows, by model and attribute.", "model", "attr"),
		AttrNullRate: r.NewGaugeVec("dataaudit_attr_null_rate",
			"Null rate of the most recently sealed monitoring window, by model and attribute.", "model", "attr"),
		AttrNullDrift: r.NewCounterVec("dataaudit_attr_null_drift_total",
			"Completeness-drift latches (windowed null rate above baseline by more than the delta), by model and attribute.", "model", "attr"),
		ReservoirRows: r.NewGaugeVec("dataaudit_reservoir_rows",
			"Rows currently held in the re-induction reservoir sample, by model.", "model"),
		Reinductions: r.NewCounterVec("dataaudit_reinductions_total",
			"Re-induction outcomes by model: reinduced, failed, skipped, superseded.", "model", "outcome"),
		ReinduceSeconds: r.NewHistogram("dataaudit_reinduction_seconds",
			"End-to-end background re-induction duration (induction + quality profile + publish).",
			ReinduceBuckets()),
		StateWrites: r.NewCounterVec("dataaudit_monitor_state_writes_total",
			"Monitor state file commits by model and outcome: ok, error.", "model", "outcome"),
	}
}

// ForgetModel drops every series labelled with the model — called when
// the model is deleted so a recreated name starts from zero instead of
// inheriting the dead incarnation's counters.
func (m *AuditMetrics) ForgetModel(name string) {
	for _, v := range []*CounterVec{m.RowsScored, m.RowsSuspicious, m.AttrDeviations, m.AttrSuspicious, m.AttrDrift, m.AttrNulls, m.AttrNullDrift, m.WindowsSealed, m.Reinductions, m.StateWrites} {
		v.DeleteByLabel("model", name)
	}
	for _, v := range []*GaugeVec{m.WindowSuspiciousRate, m.BaselineSuspiciousRate, m.DriftDelta, m.DriftPageHinkley, m.DriftActive, m.ReservoirRows, m.AttrNullRate} {
		v.DeleteByLabel("model", name)
	}
}
