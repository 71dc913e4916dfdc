// Package ruleind implements two classification-rule inducers — the third
// algorithm family evaluated for the QUIS domain in §5 of the paper:
//
//   - 1R (Holte's one-rule classifier): picks the single attribute whose
//     value → majority-class mapping has the lowest training error.
//   - PRISM (Cendrowska's covering algorithm): induces, per class, maximal
//     precision conjunctions of attribute-value tests.
//
// Numeric and date attributes are equal-frequency discretized before
// induction, mirroring the treatment of numeric class attributes in §5.
package ruleind

import (
	"fmt"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// FeatureView discretizes the base attributes into small nominal spaces.
type FeatureView struct {
	Base   []int
	IsNum  []bool
	Disc   []stats.Discretizer // value entries; unused at nominal positions
	Widths []int
}

func newFeatureView(ins *mlcore.Instances, bins int) (*FeatureView, error) {
	schema := ins.Table.Schema()
	fv := &FeatureView{
		Base:   ins.Base,
		IsNum:  make([]bool, len(ins.Base)),
		Disc:   make([]stats.Discretizer, len(ins.Base)),
		Widths: make([]int, len(ins.Base)),
	}
	var vals []float64 // shared across attributes; NewEqualFrequency copies
	for i, attr := range ins.Base {
		a := schema.Attr(attr)
		if a.Type == dataset.NominalType {
			fv.Widths[i] = a.NumValues()
			continue
		}
		fv.IsNum[i] = true
		vals = vals[:0]
		for _, r := range ins.Rows {
			if v := ins.Table.Get(r, attr); !v.IsNull() {
				vals = append(vals, v.Float())
			}
		}
		if len(vals) == 0 {
			// Attribute entirely null in training: single dummy bucket.
			fv.Disc[i] = stats.Discretizer{Reps: []float64{0}}
			fv.Widths[i] = 1
			continue
		}
		d, err := stats.NewEqualFrequency(vals, bins)
		if err != nil {
			return nil, err
		}
		fv.Disc[i] = *d
		fv.Widths[i] = d.NumBins()
	}
	return fv, nil
}

// feature maps base position i of a row to a bucket index, or -1 for null.
func (fv *FeatureView) feature(row []dataset.Value, i int) int {
	v := row[fv.Base[i]]
	if v.IsNull() {
		return -1
	}
	if fv.IsNum[i] {
		return fv.Disc[i].Bin(v.Float())
	}
	return v.NomIdx()
}

// ---------------------------------------------------------------------------
// 1R

// OneRTrainer induces 1R models.
type OneRTrainer struct {
	// Bins is the numeric discretization width (default 6).
	Bins int
	// FV, when non-nil, is reused as the (frozen) feature view instead of
	// deriving discretization bins from the training data. This is the
	// warm re-induction path: against a drifted sample the bins stay
	// frozen, so the model keeps bucketing values the way it did.
	FV *FeatureView
}

var _ mlcore.Trainer = (*OneRTrainer)(nil)

// Name implements mlcore.Trainer.
func (t *OneRTrainer) Name() string { return "1r" }

// OneRModel predicts from a single attribute's value buckets.
type OneRModel struct {
	FV      *FeatureView
	AttrPos int // position within FV.base
	// BucketDist[bucket] is the training class distribution of the bucket.
	BucketDist []mlcore.Distribution
	// NullDist covers rows whose chosen attribute is null.
	NullDist mlcore.Distribution
	K        int
	// AllDists[pos][bucket] and AllNull[pos] keep every attribute's
	// tallies, not just the winner's. BucketDist/NullDist alias
	// AllDists[AttrPos]/AllNull[AttrPos].
	AllDists [][]mlcore.Distribution
	AllNull  []mlcore.Distribution
}

var _ mlcore.Classifier = (*OneRModel)(nil)
var _ mlcore.IncrementalClassifier = (*OneRModel)(nil)

// Train implements mlcore.Trainer.
func (t *OneRTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	bins := t.Bins
	if bins == 0 {
		bins = 6
	}
	fv := t.FV
	if fv == nil {
		var err error
		if fv, err = newFeatureView(ins, bins); err != nil {
			return nil, err
		}
	} else if len(fv.Base) != len(ins.Base) {
		return nil, fmt.Errorf("ruleind: frozen feature view covers %d attributes, instances have %d", len(fv.Base), len(ins.Base))
	}
	allDists := make([][]mlcore.Distribution, len(fv.Base))
	allNull := make([]mlcore.Distribution, len(fv.Base))
	row := make([]dataset.Value, ins.Table.NumCols())
	for pos := range fv.Base {
		dists := make([]mlcore.Distribution, fv.Widths[pos])
		for b := range dists {
			dists[b] = mlcore.NewDistribution(ins.K)
		}
		nullDist := mlcore.NewDistribution(ins.K)
		for i, r := range ins.Rows {
			c := ins.Class[r]
			if c < 0 {
				continue
			}
			ins.Table.RowInto(r, row)
			b := fv.feature(row, pos)
			if b < 0 {
				nullDist.Add(c, ins.Weights[i])
			} else {
				dists[b].Add(c, ins.Weights[i])
			}
		}
		allDists[pos] = dists
		allNull[pos] = nullDist
	}
	m := &OneRModel{FV: fv, K: ins.K, AllDists: allDists, AllNull: allNull}
	if !m.pickBest() {
		return nil, fmt.Errorf("ruleind: no usable attribute for 1R")
	}
	return m, nil
}

// pickBest recomputes each attribute's training error from the tallies
// and selects the winner (lowest error, ties to the lowest position —
// the same deterministic order Train has always used). It reports false
// when no attribute has any training weight.
func (m *OneRModel) pickBest() bool {
	bestPos, bestErr := -1, -1.0
	for pos := range m.AllDists {
		// Training error of the value -> majority mapping.
		errW, totW := 0.0, 0.0
		acc := func(d mlcore.Distribution) {
			if d.N() <= 0 {
				return
			}
			_, pMaj := d.Best()
			errW += (1 - pMaj) * d.N()
			totW += d.N()
		}
		for _, d := range m.AllDists[pos] {
			acc(d)
		}
		acc(m.AllNull[pos])
		if totW <= 0 {
			continue
		}
		rate := errW / totW
		if bestPos < 0 || rate < bestErr {
			bestPos, bestErr = pos, rate
		}
	}
	if bestPos < 0 {
		return false
	}
	m.AttrPos = bestPos
	m.BucketDist = m.AllDists[bestPos]
	m.NullDist = m.AllNull[bestPos]
	return true
}

// Update implements mlcore.IncrementalClassifier: it re-tallies full
// against the model's frozen feature view and re-picks the winning
// attribute, which is exactly a frozen-view retrain. The trainer argument
// is unused.
func (m *OneRModel) Update(_ mlcore.Trainer, full *mlcore.Instances) (mlcore.Classifier, error) {
	return (&OneRTrainer{FV: m.FV}).Train(full)
}

// Predict implements mlcore.Classifier.
func (m *OneRModel) Predict(row []dataset.Value) mlcore.Distribution {
	b := m.FV.feature(row, m.AttrPos)
	if b < 0 {
		return m.NullDist
	}
	return m.BucketDist[b]
}

// PredictInto implements mlcore.Classifier without allocating.
func (m *OneRModel) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	d.CopyFrom(m.Predict(row))
}

// ---------------------------------------------------------------------------
// PRISM

// PrismTrainer induces PRISM covering rules.
type PrismTrainer struct {
	// Bins is the numeric discretization width (default 6).
	Bins int
	// MaxRulesPerClass caps rule induction (default 64).
	MaxRulesPerClass int
	// FV, when non-nil, is reused as the (frozen) feature view instead of
	// deriving discretization bins from the training data — the warm
	// re-induction path (see OneRTrainer.FV).
	FV *FeatureView
}

var _ mlcore.Trainer = (*PrismTrainer)(nil)

// Name implements mlcore.Trainer.
func (t *PrismTrainer) Name() string { return "prism" }

// PrismCond is one attribute-bucket test.
type PrismCond struct {
	Pos    int // position in FV.base
	Bucket int
}

// PrismRule is a conjunction of tests predicting one class.
type PrismRule struct {
	Conds []PrismCond
	Dist  mlcore.Distribution
}

// PrismModel is the ordered rule list.
type PrismModel struct {
	FV      *FeatureView
	Rules   []PrismRule
	Default mlcore.Distribution
	K       int
}

var _ mlcore.Classifier = (*PrismModel)(nil)
var _ mlcore.IncrementalClassifier = (*PrismModel)(nil)

// Update implements mlcore.IncrementalClassifier via warm re-induction:
// the covering search reruns over full, but with the model's feature view
// frozen, so no discretization pass happens and the successor stays
// byte-identical to a frozen-view retrain (and quality-equivalent to a
// cold one). The trainer, when it is a *PrismTrainer, supplies the
// rule-count cap; otherwise the defaults apply.
func (m *PrismModel) Update(trainer mlcore.Trainer, full *mlcore.Instances) (mlcore.Classifier, error) {
	warm := &PrismTrainer{FV: m.FV}
	if pt, ok := trainer.(*PrismTrainer); ok && pt != nil {
		warm.Bins = pt.Bins
		warm.MaxRulesPerClass = pt.MaxRulesPerClass
	}
	return warm.Train(full)
}

// Train implements mlcore.Trainer.
func (t *PrismTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	bins := t.Bins
	if bins == 0 {
		bins = 6
	}
	maxRules := t.MaxRulesPerClass
	if maxRules == 0 {
		maxRules = 64
	}
	fv := t.FV
	if fv == nil {
		var err error
		if fv, err = newFeatureView(ins, bins); err != nil {
			return nil, err
		}
	} else if len(fv.Base) != len(ins.Base) {
		return nil, fmt.Errorf("ruleind: frozen feature view covers %d attributes, instances have %d", len(fv.Base), len(ins.Base))
	}

	// Materialize feature buckets per instance.
	type inst struct {
		feats []int
		class int
		w     float64
	}
	var data []inst
	row := make([]dataset.Value, ins.Table.NumCols())
	for i, r := range ins.Rows {
		c := ins.Class[r]
		if c < 0 {
			continue
		}
		ins.Table.RowInto(r, row)
		feats := make([]int, len(fv.Base))
		for pos := range fv.Base {
			feats[pos] = fv.feature(row, pos)
		}
		data = append(data, inst{feats: feats, class: c, w: ins.Weights[i]})
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("ruleind: no instances with a known class value")
	}

	model := &PrismModel{FV: fv, K: ins.K, Default: mlcore.NewDistribution(ins.K)}
	for _, d := range data {
		model.Default.Add(d.class, d.w)
	}

	covers := func(conds []PrismCond, in inst) bool {
		for _, c := range conds {
			if in.feats[c.Pos] != c.Bucket {
				return false
			}
		}
		return true
	}

	for class := 0; class < ins.K; class++ {
		remaining := make([]inst, 0, len(data))
		for _, d := range data {
			remaining = append(remaining, d)
		}
		for ruleCount := 0; ruleCount < maxRules; ruleCount++ {
			// Any positives left?
			hasPos := false
			for _, d := range remaining {
				if d.class == class {
					hasPos = true
					break
				}
			}
			if !hasPos {
				break
			}
			var conds []PrismCond
			pool := remaining
			for len(conds) < len(fv.Base) {
				// Choose the test maximizing precision p/t on the pool.
				bestPrec, bestCover := -1.0, 0.0
				var best PrismCond
				used := make(map[int]bool, len(conds))
				for _, c := range conds {
					used[c.Pos] = true
				}
				for pos := range fv.Base {
					if used[pos] {
						continue
					}
					pw := make([]float64, fv.Widths[pos])
					tw := make([]float64, fv.Widths[pos])
					for _, d := range pool {
						b := d.feats[pos]
						if b < 0 {
							continue
						}
						tw[b] += d.w
						if d.class == class {
							pw[b] += d.w
						}
					}
					for b := range tw {
						if tw[b] <= 0 {
							continue
						}
						prec := pw[b] / tw[b]
						if prec > bestPrec+1e-12 || (prec > bestPrec-1e-12 && pw[b] > bestCover) {
							bestPrec, bestCover = prec, pw[b]
							best = PrismCond{Pos: pos, Bucket: b}
						}
					}
				}
				if bestPrec < 0 || bestCover <= 0 {
					break
				}
				conds = append(conds, best)
				var next []inst
				for _, d := range pool {
					if d.feats[best.Pos] == best.Bucket {
						next = append(next, d)
					}
				}
				pool = next
				if bestPrec >= 1-1e-12 {
					break // perfect rule
				}
			}
			if len(conds) == 0 || len(pool) == 0 {
				break
			}
			dist := mlcore.NewDistribution(ins.K)
			for _, d := range pool {
				dist.Add(d.class, d.w)
			}
			model.Rules = append(model.Rules, PrismRule{Conds: conds, Dist: dist})
			// Remove the covered positives of this class.
			var next []inst
			for _, d := range remaining {
				if d.class == class && covers(conds, d) {
					continue
				}
				next = append(next, d)
			}
			remaining = next
		}
	}
	return model, nil
}

// featStackSize bounds the base-attribute count whose feature buckets fit
// in a stack-allocated buffer during Predict; wider schemas fall back to a
// heap allocation.
const featStackSize = 64

// Predict implements mlcore.Classifier: the first matching rule's training
// distribution, falling back to the global class distribution.
func (m *PrismModel) Predict(row []dataset.Value) mlcore.Distribution {
	var stack [featStackSize]int
	var feats []int
	if len(m.FV.Base) <= featStackSize {
		feats = stack[:len(m.FV.Base)]
	} else {
		feats = make([]int, len(m.FV.Base))
	}
	for pos := range m.FV.Base {
		feats[pos] = m.FV.feature(row, pos)
	}
	for _, r := range m.Rules {
		match := true
		for _, c := range r.Conds {
			if feats[c.Pos] != c.Bucket {
				match = false
				break
			}
		}
		if match {
			return r.Dist
		}
	}
	return m.Default
}

// PredictInto implements mlcore.Classifier without allocating for the
// usual schema widths.
func (m *PrismModel) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	d.CopyFrom(m.Predict(row))
}
