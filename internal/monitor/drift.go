package monitor

// pageHinkley is the Page-Hinkley cumulative test for an upward change in
// the mean of a series — here the per-window suspicious rate. Each
// observation x updates the running mean x̄ and the cumulative sum
// m += x − x̄ − δ (δ absorbs noise); the statistic PH = m − min(m) grows
// only while observations sit persistently above the running mean, and an
// alarm fires once PH exceeds λ. Unlike the single-window threshold
// detector this accumulates evidence, so a slow degradation that never
// trips the threshold in any one window is still caught.
type pageHinkley struct {
	Delta  float64 // δ: per-observation tolerance
	Lambda float64 // λ: alarm threshold

	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Cum  float64 `json:"cum"`
	Min  float64 `json:"min"`
	PH   float64 `json:"ph"`
}

// observe folds one window rate and reports whether the alarm fires.
func (p *pageHinkley) observe(x float64) bool {
	p.N++
	p.Mean += (x - p.Mean) / float64(p.N)
	p.Cum += x - p.Mean - p.Delta
	if p.Cum < p.Min {
		p.Min = p.Cum
	}
	p.PH = p.Cum - p.Min
	return p.PH > p.Lambda
}

// attrDetector is the threshold + Page-Hinkley pair over one suspicious-rate
// series. The model runs one over the window rate; every tallied
// attribute runs one over its own rate (persistedState.AttrDrift, aligned
// with Classes), so a drift can be attributed to the attributes that
// caused it — and re-induction can rebuild only those. The attribute
// instances also carry the completeness (null-rate) latch.
type attrDetector struct {
	PH        pageHinkley `json:"ph"`
	LastDelta float64     `json:"lastDelta"`
	// Drifted latches on first fire and clears when trackVersion
	// establishes a new baseline.
	Drifted bool `json:"drifted"`
	// LastNullDelta is the most recent window's null rate minus the
	// attribute's baseline null rate; NullDrifted latches once it exceeds
	// Options.NullDelta. Completeness drift is observational only — it
	// never enters the re-induction trigger (see Options.NullDelta).
	LastNullDelta float64 `json:"lastNullDelta,omitempty"`
	NullDrifted   bool    `json:"nullDrifted,omitempty"`
}

// observe folds one sealed window's rate into the detector and, when it
// is warm (Options.MinWindows reached) and not yet latched, latches it and
// names the test that fired: "threshold" or "page-hinkley". Every window
// is observed, including during warm-up and while latched, so the
// statistics of all detectors of a model stay comparable.
func (d *attrDetector) observe(rate, baseline float64, warm bool, o *Options) (fired string) {
	// The PH parameters are injected here rather than trusted from a
	// persisted state, so a restart under a new PHLambda picks it up.
	d.PH.Delta, d.PH.Lambda = phDelta, o.PHLambda
	d.LastDelta = rate - baseline
	phTrip := d.PH.observe(rate)
	if d.Drifted || !warm {
		return ""
	}
	switch {
	case d.LastDelta > o.DriftDelta:
		fired = "threshold"
	case phTrip:
		fired = "page-hinkley"
	}
	d.Drifted = fired != ""
	return fired
}
