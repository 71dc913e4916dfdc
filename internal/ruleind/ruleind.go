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
	"slices"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

const (
	// numBins is the equal-frequency discretization width of numeric and
	// date base attributes.
	numBins = 6
	// maxRulesPerClass caps PRISM's covering search for one class.
	maxRulesPerClass = 64
)

// FeatureView discretizes the base attributes into small nominal spaces.
type FeatureView struct {
	Base   []int
	IsNum  []bool
	Disc   []stats.Discretizer // value entries; unused at nominal positions
	Widths []int
}

// newFeatureView validates ins and derives the view's bins from it.
func newFeatureView(ins *mlcore.Instances) (*FeatureView, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
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
		for _, v := range ins.Table.Column(attr) {
			if !v.IsNull() {
				vals = append(vals, v.Float())
			}
		}
		if len(vals) == 0 {
			// Attribute entirely null in training: single dummy bucket.
			fv.Disc[i] = stats.Discretizer{Reps: []float64{0}}
			fv.Widths[i] = 1
			continue
		}
		d, err := stats.NewEqualFrequency(vals, numBins)
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
	return fv.bucket(i, row[fv.Base[i]])
}

// bucket maps a value of base position i to a bucket index, or -1 for null.
func (fv *FeatureView) bucket(i int, v dataset.Value) int {
	if v.IsNull() {
		return -1
	}
	if fv.IsNum[i] {
		return fv.Disc[i].Bin(v.Float())
	}
	return v.NomIdx()
}

// featureMatrix holds the instances with a known class, in row order,
// bucketed through a feature view. Each weighs 1.
type featureMatrix struct {
	cols  [][]int32 // cols[pos][i]: bucket of instance i, or -1 for null
	class []int32
}

// matrix validates ins against the view and encodes every instance with
// a known class, one column per base position.
func (fv *FeatureView) matrix(ins *mlcore.Instances) (featureMatrix, error) {
	if err := ins.Validate(); err != nil {
		return featureMatrix{}, err
	}
	if len(fv.Base) != len(ins.Base) {
		return featureMatrix{}, fmt.Errorf("ruleind: frozen feature view covers %d attributes, instances have %d", len(fv.Base), len(ins.Base))
	}
	var rows []int
	var mx featureMatrix
	for r, c := range ins.Class {
		if c >= 0 {
			rows = append(rows, r)
			mx.class = append(mx.class, c)
		}
	}
	mx.cols = make([][]int32, len(fv.Base))
	for pos, attr := range fv.Base {
		vals := ins.Table.Column(attr)
		col := make([]int32, len(rows))
		for i, r := range rows {
			col[i] = int32(fv.bucket(pos, vals[r]))
		}
		mx.cols[pos] = col
	}
	return mx, nil
}

// ---------------------------------------------------------------------------
// 1R

// OneRTrainer induces 1R models.
type OneRTrainer struct{}

var _ mlcore.Trainer = (*OneRTrainer)(nil)

// OneRModel predicts from a single attribute's value buckets.
type OneRModel struct {
	FV      *FeatureView
	AttrPos int // position within FV.base
	// BucketDist[bucket] is the training class distribution of the bucket.
	BucketDist []mlcore.Distribution
	// NullDist covers rows whose chosen attribute is null.
	NullDist mlcore.Distribution
	K        int
}

var _ mlcore.Classifier = (*OneRModel)(nil)
var _ mlcore.IncrementalClassifier = (*OneRModel)(nil)

// Train implements mlcore.Trainer.
func (t *OneRTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	fv, err := newFeatureView(ins)
	if err != nil {
		return nil, err
	}
	return trainOneR(ins, fv)
}

// trainOneR tallies ins through fv, a fresh view from Train or the
// model's frozen one from Update: against a drifted sample the bins stay
// frozen, so the model keeps bucketing values the way it did.
func trainOneR(ins *mlcore.Instances, fv *FeatureView) (mlcore.Classifier, error) {
	mx, err := fv.matrix(ins)
	if err != nil {
		return nil, err
	}
	allDists := make([][]mlcore.Distribution, len(fv.Base))
	allNull := make([]mlcore.Distribution, len(fv.Base))
	for pos, col := range mx.cols {
		dists := make([]mlcore.Distribution, fv.Widths[pos])
		for b := range dists {
			dists[b] = mlcore.NewDistribution(ins.K)
		}
		nullDist := mlcore.NewDistribution(ins.K)
		for i, b := range col {
			if b < 0 {
				nullDist.Add(int(mx.class[i]), 1)
			} else {
				dists[b].Add(int(mx.class[i]), 1)
			}
		}
		allDists[pos] = dists
		allNull[pos] = nullDist
	}
	pos := pickBest(allDists, allNull)
	if pos < 0 {
		return nil, fmt.Errorf("ruleind: no usable attribute for 1R")
	}
	return &OneRModel{FV: fv, AttrPos: pos, BucketDist: allDists[pos], NullDist: allNull[pos], K: ins.K}, nil
}

// pickBest computes each attribute's training error from its bucket
// tallies dists[pos] and null tally nulls[pos], and returns the winner's
// position (lowest error, ties to the lowest position — the same
// deterministic order Train has always used), or -1 when no attribute has
// any training weight.
func pickBest(dists [][]mlcore.Distribution, nulls []mlcore.Distribution) int {
	bestPos, bestErr := -1, -1.0
	for pos := range dists {
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
		for _, d := range dists[pos] {
			acc(d)
		}
		acc(nulls[pos])
		if totW <= 0 {
			continue
		}
		rate := errW / totW
		if bestPos < 0 || rate < bestErr {
			bestPos, bestErr = pos, rate
		}
	}
	return bestPos
}

// Update implements mlcore.IncrementalClassifier: it re-tallies full
// against the model's frozen feature view and re-picks the winning
// attribute, which is exactly a frozen-view retrain. The trainer argument
// is unused.
func (m *OneRModel) Update(_ mlcore.Trainer, full *mlcore.Instances) (mlcore.Classifier, error) {
	return trainOneR(full, m.FV)
}

// PredictInto implements mlcore.Classifier without allocating: the
// training distribution of the row's bucket of the chosen attribute.
func (m *OneRModel) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	if b := m.FV.feature(row, m.AttrPos); b >= 0 {
		d.CopyFrom(m.BucketDist[b])
		return
	}
	d.CopyFrom(m.NullDist)
}

// ---------------------------------------------------------------------------
// PRISM

// PrismTrainer induces PRISM covering rules.
type PrismTrainer struct{}

var _ mlcore.Trainer = (*PrismTrainer)(nil)

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
// cold one). The trainer argument is unused.
func (m *PrismModel) Update(_ mlcore.Trainer, full *mlcore.Instances) (mlcore.Classifier, error) {
	return trainPrism(full, m.FV)
}

// Train implements mlcore.Trainer.
func (t *PrismTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	fv, err := newFeatureView(ins)
	if err != nil {
		return nil, err
	}
	return trainPrism(ins, fv)
}

// trainPrism runs the covering search over ins bucketed through fv, a
// fresh view from Train or the model's frozen one from Update. The
// remaining set and each rule's pool are instance indices into the
// matrix, kept in row order.
func trainPrism(ins *mlcore.Instances, fv *FeatureView) (mlcore.Classifier, error) {
	mx, err := fv.matrix(ins)
	if err != nil {
		return nil, err
	}
	n := len(mx.class)
	if n == 0 {
		return nil, fmt.Errorf("ruleind: no instances with a known class value")
	}
	model := &PrismModel{FV: fv, K: ins.K, Default: mlcore.NewDistribution(ins.K)}
	for _, c := range mx.class {
		model.Default.Add(int(c), 1)
	}

	// pw[b] and tw[b]: the pool's positive and total weight in bucket b.
	maxWidth := 0
	for _, w := range fv.Widths {
		maxWidth = max(maxWidth, w)
	}
	pw, tw := make([]float64, maxWidth), make([]float64, maxWidth)
	used := make([]bool, len(fv.Base))
	remaining := make([]int32, 0, n)
	pool := make([]int32, 0, n)
	for class := int32(0); class < int32(ins.K); class++ {
		remaining = remaining[:0]
		for i := range n {
			remaining = append(remaining, int32(i))
		}
		for ruleCount := 0; ruleCount < maxRulesPerClass; ruleCount++ {
			if !slices.ContainsFunc(remaining, func(i int32) bool { return mx.class[i] == class }) {
				break
			}
			var conds []PrismCond
			pool = append(pool[:0], remaining...)
			clear(used)
			for len(conds) < len(fv.Base) {
				// Choose the test maximizing precision p/t on the pool.
				bestPrec, bestCover := -1.0, 0.0
				var best PrismCond
				for pos, col := range mx.cols {
					if used[pos] {
						continue
					}
					width := fv.Widths[pos]
					clear(pw[:width])
					clear(tw[:width])
					for _, i := range pool {
						b := col[i]
						if b < 0 {
							continue
						}
						tw[b]++
						if mx.class[i] == class {
							pw[b]++
						}
					}
					for b := range width {
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
				used[best.Pos] = true
				col := mx.cols[best.Pos]
				pool = slices.DeleteFunc(pool, func(i int32) bool { return col[i] != int32(best.Bucket) })
				if bestPrec >= 1-1e-12 {
					break // perfect rule
				}
			}
			if len(conds) == 0 || len(pool) == 0 {
				break
			}
			dist := mlcore.NewDistribution(ins.K)
			for _, i := range pool {
				dist.Add(int(mx.class[i]), 1)
			}
			model.Rules = append(model.Rules, PrismRule{Conds: conds, Dist: dist})
			// Remove the covered positives of this class. The pool is the
			// remaining instances the rule covers, in the same order.
			next, j := remaining[:0], 0
			for _, i := range remaining {
				if j < len(pool) && pool[j] == i {
					j++
					if mx.class[i] == class {
						continue
					}
				}
				next = append(next, i)
			}
			remaining = next
		}
	}
	return model, nil
}

// featStackSize bounds the base-attribute count whose feature buckets fit
// in a stack-allocated buffer during PredictInto; wider schemas fall back
// to a heap allocation.
const featStackSize = 64

// PredictInto implements mlcore.Classifier without allocating for the
// usual schema widths: the first matching rule's training distribution,
// falling back to the global class distribution.
func (m *PrismModel) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
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
			d.CopyFrom(r.Dist)
			return
		}
	}
	d.CopyFrom(m.Default)
}

// check reports whether the view buckets rows of schema without reading
// class: one entry per base column, each a column of schema other than
// class, recorded as its kind, with a width that is its domain size or its
// discretizer's bin count.
func (fv *FeatureView) check(schema *dataset.Schema, class int) error {
	if fv == nil {
		return fmt.Errorf("ruleind: no feature view")
	}
	if len(fv.IsNum) != len(fv.Base) || len(fv.Disc) != len(fv.Base) || len(fv.Widths) != len(fv.Base) {
		return fmt.Errorf("ruleind: feature view over %d attributes with %d kinds, %d discretizers and %d widths", len(fv.Base), len(fv.IsNum), len(fv.Disc), len(fv.Widths))
	}
	for i, attr := range fv.Base {
		if err := mlcore.CheckAttr(schema, class, attr); err != nil {
			return fmt.Errorf("ruleind: %w", err)
		}
		a := schema.Attr(attr)
		want := a.NumValues()
		if fv.IsNum[i] {
			want = fv.Disc[i].NumBins()
		}
		if fv.IsNum[i] != a.IsNumberLike() || fv.Widths[i] != want {
			return fmt.Errorf("ruleind: attribute %d (%s): %d buckets, want %d of its kind", attr, a.Name, fv.Widths[i], want)
		}
	}
	return nil
}

var _ mlcore.Checker = (*OneRModel)(nil)

// Check implements mlcore.Checker: the feature view fits schema, the
// chosen attribute is one of its positions, and there is one distribution
// over k classes per bucket of it, and one for null.
func (m *OneRModel) Check(schema *dataset.Schema, class, k int) error {
	if err := m.FV.check(schema, class); err != nil {
		return err
	}
	if m.K != k {
		return fmt.Errorf("ruleind: 1R over %d classes, want %d", m.K, k)
	}
	if m.AttrPos < 0 || m.AttrPos >= len(m.FV.Base) {
		return fmt.Errorf("ruleind: 1R attribute position %d outside the view's %d", m.AttrPos, len(m.FV.Base))
	}
	if len(m.BucketDist) != m.FV.Widths[m.AttrPos] {
		return fmt.Errorf("ruleind: 1R has %d bucket distributions, want %d", len(m.BucketDist), m.FV.Widths[m.AttrPos])
	}
	for _, d := range m.BucketDist {
		if err := mlcore.CheckDist(d, k); err != nil {
			return fmt.Errorf("ruleind: 1R: %w", err)
		}
	}
	if err := mlcore.CheckDist(m.NullDist, k); err != nil {
		return fmt.Errorf("ruleind: 1R null bucket: %w", err)
	}
	return nil
}

var _ mlcore.Checker = (*PrismModel)(nil)

// Check implements mlcore.Checker: the feature view fits schema, every
// rule's test names a position of the view and one of its buckets, and
// every distribution counts k classes.
func (m *PrismModel) Check(schema *dataset.Schema, class, k int) error {
	if err := m.FV.check(schema, class); err != nil {
		return err
	}
	if m.K != k {
		return fmt.Errorf("ruleind: PRISM over %d classes, want %d", m.K, k)
	}
	if err := mlcore.CheckDist(m.Default, k); err != nil {
		return fmt.Errorf("ruleind: PRISM default: %w", err)
	}
	for i, r := range m.Rules {
		if err := mlcore.CheckDist(r.Dist, k); err != nil {
			return fmt.Errorf("ruleind: PRISM rule %d: %w", i, err)
		}
		for _, c := range r.Conds {
			if c.Pos < 0 || c.Pos >= len(m.FV.Base) || c.Bucket < 0 || c.Bucket >= m.FV.Widths[c.Pos] {
				return fmt.Errorf("ruleind: PRISM rule %d tests bucket %d of position %d, outside the view", i, c.Bucket, c.Pos)
			}
		}
	}
	return nil
}
