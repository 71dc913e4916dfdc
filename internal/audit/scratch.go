package audit

import (
	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// ScoreScratch is the per-worker reusable state of the scoring hot path:
// one prediction distribution buffer plus a findings arena. The
// row-at-a-time path (CheckRow, ExplainRow and the oracle the chunked
// pipeline is tested against) threads one scratch per goroutine through
// CheckRowScratch, so steady-state record checking performs zero heap
// allocations — the buffers grow to the model's high-water mark once and
// are reused for every subsequent row.
//
// A ScoreScratch must not be shared between goroutines.
type ScoreScratch struct {
	dist     mlcore.Distribution
	findings []Finding
	rep      RecordReport
}

// NewScoreScratch returns a scratch pre-sized for the model: the
// distribution buffer covers the widest class domain and the findings
// arena one finding per modelled attribute (the per-row maximum).
func NewScoreScratch(m *Model) *ScoreScratch {
	maxK := 0
	for _, am := range m.Attrs {
		if am.K > maxK {
			maxK = am.K
		}
	}
	s := &ScoreScratch{findings: make([]Finding, 0, len(m.Attrs))}
	s.dist.Reset(maxK)
	return s
}

// deviation is the deviation test of Definition 7 for one prediction: the
// finding for the observed class obs (-1 when the value is null) under the
// predicted distribution d. It reports false when the classifier offers
// no opinion (no evidence), the observation is the prediction, or the
// error confidence is not positive. Every scoring path — the row path
// here, the per-row chunk kernel and the scoring plan in chunk.go — goes
// through it.
func (am *AttrModel) deviation(d *mlcore.Distribution, obs int, confLevel float64) (Finding, bool) {
	n := d.N()
	if n <= 0 {
		return Finding{}, false
	}
	cHat, pHat := d.Best()
	if obs == cHat {
		return Finding{}, false
	}
	// A null observed value (obs < 0) has no support in the distribution;
	// treat it as probability zero — this is how the tool addresses the
	// completeness dimension (§2.2: "substituting an erroneously missing
	// value by the suggestion of a data auditing application").
	var pObs float64
	if obs >= 0 {
		pObs = d.P(obs)
	}
	errConf := stats.ErrorConfidence(pHat, pObs, n, confLevel)
	if errConf <= 0 {
		return Finding{}, false
	}
	return Finding{
		Attr:       am.Class,
		Observed:   obs,
		Predicted:  cHat,
		PHat:       pHat,
		PObs:       pObs,
		N:          n,
		ErrorConf:  errConf,
		Suggestion: am.SuggestedValue(cHat),
	}, true
}

// CheckRowScratch runs deviation detection for one record using the
// scratch's buffers. It stays beside CheckChunk as the oracle: the
// differential suite and benchmark/ check every chunked surface against
// it. The returned report (including its Findings slice and Best pointer)
// is backed by the scratch and is only valid until the next
// CheckRowScratch call on the same scratch; callers that retain the
// report must Detach it first. The report's values are identical to
// CheckRow's on the same row.
func (m *Model) CheckRowScratch(row []dataset.Value, s *ScoreScratch) *RecordReport {
	rep := &s.rep
	*rep = RecordReport{Row: -1, ID: -1}
	s.findings = s.findings[:0]
	best := -1
	for _, am := range m.Attrs {
		am.Classifier.PredictInto(row, &s.dist)
		if s.dist.N() <= 0 {
			continue // no evidence, no finding: skip the class lookup (a bin search for numeric classes)
		}
		f, ok := am.deviation(&s.dist, am.ClassIndex(row[am.Class]), m.Opts.ConfLevel)
		if !ok {
			continue
		}
		s.findings = append(s.findings, f)
		if f.ErrorConf > rep.ErrorConf {
			rep.ErrorConf = f.ErrorConf
			best = len(s.findings) - 1
		}
	}
	if len(s.findings) > 0 {
		rep.Findings = s.findings
	}
	if best >= 0 {
		rep.Best = &rep.Findings[best]
	}
	rep.Suspicious = rep.ErrorConf >= m.Opts.MinConfidence
	return rep
}

// Detach returns a self-contained copy of a scratch-backed report: the
// findings are copied into a fresh slice and Best re-pointed into it, so
// the copy stays valid after the scratch is reused.
func (rep *RecordReport) Detach() RecordReport {
	cp := *rep
	cp.Findings = append([]Finding(nil), rep.Findings...)
	cp.RepointBest()
	return cp
}
