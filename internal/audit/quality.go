package audit

import (
	"dataaudit/internal/dataset"
	"dataaudit/internal/dedup"
)

// The QualityProfile is the bridge between one-shot auditing and
// continuous monitoring: at induction time the model is applied to its
// own training table and the resulting deviation statistics are frozen as
// the baseline of "normal" quality. internal/monitor later compares the
// same statistics computed over windows of freshly audited rows against
// this baseline to decide whether the data has drifted away from what the
// structure model was induced on.

// ConfHistBins is the number of equal-width error-confidence buckets of a
// confidence histogram: bucket i covers [i/ConfHistBins, (i+1)/ConfHistBins),
// with confidence 1.0 folded into the last bucket.
const ConfHistBins = 10

// ConfHistBucket maps an error confidence in (0, 1] to its histogram
// bucket.
func ConfHistBucket(conf float64) int {
	b := int(conf * ConfHistBins)
	if b >= ConfHistBins {
		b = ConfHistBins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// AttrQuality is the baseline of one audited attribute.
type AttrQuality struct {
	// Attr is the schema column; Name its attribute name (kept inline so a
	// profile stays interpretable without the schema object).
	Attr int    `json:"attr"`
	Name string `json:"name"`
	// DeviationRate is findings with positive error confidence per row;
	// SuspiciousRate is findings at or above the model's minimum
	// confidence per row.
	DeviationRate  float64 `json:"deviationRate"`
	SuspiciousRate float64 `json:"suspiciousRate"`
	// NullRate is the fraction of null values in the training column.
	NullRate float64 `json:"nullRate"`
	// Distinct is the (estimated) number of distinct non-null values in
	// the training column; Uniqueness normalizes it per non-null cell
	// (1 for a key-like column). See AttrDim.
	Distinct   int64   `json:"distinct"`
	Uniqueness float64 `json:"uniqueness"`
	// MeanErrorConf averages the positive error confidences (0 when the
	// attribute produced no deviation).
	MeanErrorConf float64 `json:"meanErrorConf"`
	// ConfHist buckets the positive error confidences (ConfHistBucket).
	ConfHist []int64 `json:"confHist"`
}

// QualityProfile is the frozen quality baseline of a model on its
// training table.
type QualityProfile struct {
	// Rows is the number of training rows the profile was computed on.
	Rows int64 `json:"rows"`
	// SuspiciousRate is the fraction of training records flagged
	// suspicious (Definition 8 at the model's minimum confidence).
	SuspiciousRate float64 `json:"suspiciousRate"`
	// MeanErrorConf averages the positive record-level error confidences.
	MeanErrorConf float64 `json:"meanErrorConf"`
	// DuplicateRate is the fraction of training rows that are exact
	// copies of an earlier row (hash-grouped, then verified cell by
	// cell) — the baseline duplicate pressure of the training data.
	DuplicateRate float64 `json:"duplicateRate"`
	// ConfHist buckets the positive record-level error confidences.
	ConfHist []int64 `json:"confHist"`
	// Attrs holds one baseline per modelled attribute, aligned with
	// Model.Attrs.
	Attrs []AttrQuality `json:"attrs"`
}

// QualityProfile audits the table with the model (workers <= 0 selects
// runtime.NumCPU via AuditTableParallel, whose reports are byte-identical
// to the sequential path) and condenses the result into the baseline. The
// table is normally the training table the model was induced from.
func (m *Model) QualityProfile(tab *dataset.Table, workers int) *QualityProfile {
	res := m.AuditTableParallel(tab, workers)
	return m.QualityProfileFromResult(tab, res)
}

// QualityProfileFromResult condenses an existing audit of tab into the
// baseline, for callers that already hold the Result.
func (m *Model) QualityProfileFromResult(tab *dataset.Table, res *Result) *QualityProfile {
	rows := tab.NumRows()
	p := &QualityProfile{
		Rows:     int64(rows),
		ConfHist: make([]int64, ConfHistBins),
		Attrs:    make([]AttrQuality, len(m.Attrs)),
	}
	slots := make(map[int]int, len(m.Attrs))
	attrDev := make([]int64, len(m.Attrs))
	attrSum := make([]float64, len(m.Attrs))
	for i, am := range m.Attrs {
		slots[am.Class] = i
		p.Attrs[i] = AttrQuality{
			Attr:     am.Class,
			Name:     m.Schema.Attr(am.Class).Name,
			ConfHist: make([]int64, ConfHistBins),
		}
	}

	var susRecords int64
	var recSum float64
	var recDev int64
	for ri := range res.Reports {
		rep := &res.Reports[ri]
		if rep.Suspicious {
			susRecords++
		}
		if rep.ErrorConf > 0 {
			recDev++
			recSum += rep.ErrorConf
			p.ConfHist[ConfHistBucket(rep.ErrorConf)]++
		}
		for fi := range rep.Findings {
			f := &rep.Findings[fi]
			i, ok := slots[f.Attr]
			if !ok || f.ErrorConf <= 0 {
				continue
			}
			aq := &p.Attrs[i]
			attrDev[i]++
			attrSum[i] += f.ErrorConf
			aq.ConfHist[ConfHistBucket(f.ErrorConf)]++
			if f.ErrorConf >= m.Opts.MinConfidence {
				aq.SuspiciousRate++ // raw count; normalized below
			}
		}
	}

	if rows > 0 {
		fr := float64(rows)
		p.SuspiciousRate = float64(susRecords) / fr
		dims := res.Dims
		if dims == nil {
			dims = TableDims(tab) // hand-built result: measure directly
		}
		for i := range p.Attrs {
			aq := &p.Attrs[i]
			aq.DeviationRate = float64(attrDev[i]) / fr
			aq.SuspiciousRate /= fr
			if attrDev[i] > 0 {
				aq.MeanErrorConf = attrSum[i] / float64(attrDev[i])
			}
			d := &dims[aq.Attr]
			aq.NullRate = d.NullRate()
			aq.Distinct = d.Distinct()
			aq.Uniqueness = d.Uniqueness()
		}
		// Threshold 1 turns the near pass off: exact copies only, hash-grouped
		// and verified cell by cell. Finalize can only fail in the near pass.
		dups, _ := dedup.Detect(tab, dedup.Options{Threshold: 1})
		p.DuplicateRate = dups.DuplicateRate()
	}
	if recDev > 0 {
		p.MeanErrorConf = recSum / float64(recDev)
	}
	return p
}
