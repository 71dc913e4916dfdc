package mlcore

import (
	"errors"
	"fmt"

	"dataaudit/internal/dataset"
)

// Distribution is a weighted class histogram: probabilities plus the
// (weighted) number of training instances backing them.
type Distribution struct {
	// Counts holds the per-class weighted instance counts.
	Counts []float64
	// Total is the sum of Counts (cached).
	Total float64
}

// NewDistribution allocates an empty distribution over k classes.
func NewDistribution(k int) Distribution {
	return Distribution{Counts: make([]float64, k)}
}

// Add accumulates weight w for class c.
func (d *Distribution) Add(c int, w float64) {
	d.Counts[c] += w
	d.Total += w
}

// P returns the probability of class c (0 when the distribution is empty).
func (d Distribution) P(c int) float64 {
	if d.Total <= 0 {
		return 0
	}
	return d.Counts[c] / d.Total
}

// N returns the (weighted) number of backing instances.
func (d Distribution) N() float64 { return d.Total }

// K returns the number of classes.
func (d Distribution) K() int { return len(d.Counts) }

// Best returns the predicted class ĉ (the argmax; ties break to the lower
// index, matching C4.5's deterministic behaviour) and its probability.
func (d Distribution) Best() (int, float64) {
	best, bestC := 0, -1.0
	for c, v := range d.Counts {
		if v > bestC {
			best, bestC = c, v
		}
	}
	return best, d.P(best)
}

// Clone deep-copies the distribution.
func (d Distribution) Clone() Distribution {
	return Distribution{Counts: append([]float64(nil), d.Counts...), Total: d.Total}
}

// Reset clears the distribution to k zeroed classes, reusing the backing
// array when it is large enough. It is the entry point of every
// PredictInto implementation: after Reset the distribution is empty and
// no memory of the previous prediction remains.
func (d *Distribution) Reset(k int) {
	if cap(d.Counts) < k {
		d.Counts = make([]float64, k)
	} else {
		d.Counts = d.Counts[:k]
		for i := range d.Counts {
			d.Counts[i] = 0
		}
	}
	d.Total = 0
}

// CopyFrom overwrites the distribution with o's contents, reusing the
// backing array when possible. After CopyFrom the two distributions share
// no memory.
func (d *Distribution) CopyFrom(o Distribution) {
	if cap(d.Counts) < len(o.Counts) {
		d.Counts = make([]float64, len(o.Counts))
	} else {
		d.Counts = d.Counts[:len(o.Counts)]
	}
	copy(d.Counts, o.Counts)
	d.Total = o.Total
}

// Instances is a weighted view over a table for supervised induction: the
// base attributes, a class assignment per row, and per-row weights
// (fractional weights implement C4.5's missing-value handling).
type Instances struct {
	Table *dataset.Table
	// Base lists the base attribute columns.
	Base []int
	// K is the number of class values.
	K int
	// Rows are the active table row indices.
	Rows []int
	// Weights parallels Rows.
	Weights []float64
	// Class maps a table row index to its class index, or -1 when the
	// class value is null. It must be valid for every row in Rows.
	Class []int
}

// NewInstances builds an instance set over all rows of a table. classOf
// maps a row index to a class index in [0, k) or -1 for null.
func NewInstances(t *dataset.Table, base []int, k int, classOf func(r int) int) *Instances {
	n := t.NumRows()
	ins := &Instances{
		Table:   t,
		Base:    append([]int(nil), base...),
		K:       k,
		Rows:    make([]int, 0, n),
		Weights: make([]float64, 0, n),
		Class:   make([]int, n),
	}
	for r := 0; r < n; r++ {
		ins.Class[r] = classOf(r)
		ins.Rows = append(ins.Rows, r)
		ins.Weights = append(ins.Weights, 1)
	}
	return ins
}

// Subset returns a view sharing Table and Class but with its own row/weight
// slices.
func (ins *Instances) Subset(rows []int, weights []float64) *Instances {
	return &Instances{Table: ins.Table, Base: ins.Base, K: ins.K, Rows: rows, Weights: weights, Class: ins.Class}
}

// Validate checks internal consistency.
func (ins *Instances) Validate() error {
	if len(ins.Rows) != len(ins.Weights) {
		return fmt.Errorf("mlcore: %d rows but %d weights", len(ins.Rows), len(ins.Weights))
	}
	if ins.K < 1 {
		return fmt.Errorf("mlcore: need at least one class, got %d", ins.K)
	}
	for i, r := range ins.Rows {
		if r < 0 || r >= ins.Table.NumRows() {
			return fmt.Errorf("mlcore: row index %d out of range", r)
		}
		if ins.Weights[i] < 0 {
			return fmt.Errorf("mlcore: negative weight at position %d", i)
		}
		if c := ins.Class[r]; c < -1 || c >= ins.K {
			return fmt.Errorf("mlcore: class %d out of range at row %d", c, r)
		}
	}
	for _, b := range ins.Base {
		if b < 0 || b >= ins.Table.NumCols() {
			return fmt.Errorf("mlcore: base attribute %d out of range", b)
		}
	}
	return nil
}

// Classifier predicts a class distribution (with support) for a row.
//
// The allocation contract: PredictInto is the steady-state scoring path —
// once the caller's scratch distribution has grown to the classifier's
// class count, a PredictInto call performs no heap allocation. Predict is
// the convenience form; implementations may allocate or may return a
// distribution sharing memory with the model (callers must not mutate
// it). The two must produce identical values for the same row.
type Classifier interface {
	// Predict returns the class distribution for the row. The
	// distribution's Total is the weighted number of training instances
	// the prediction is based on — the n of Definition 7.
	Predict(row []dataset.Value) Distribution
	// PredictInto writes the class distribution for the row into d,
	// reusing d's backing memory (via Reset/CopyFrom) instead of
	// allocating. d's previous contents are discarded; after the call d
	// shares no memory with the model.
	PredictInto(row []dataset.Value, d *Distribution)
}

// BlockClassifier is implemented by classifier families with a columnar
// batch kernel: one call scores a whole ColumnChunk, hoisting per-row
// dispatch, table lookups, and transcendental-function setup out of the
// inner loop. The chunked scorer (audit.CheckChunk) probes for it and
// falls back to per-row PredictInto otherwise.
type BlockClassifier interface {
	Classifier
	// PredictBlockInto writes the class distribution of chunk row r into
	// dists[r] for every r in [0, len(dists)); len(dists) must not exceed
	// ck.Rows(). Each dists[r] must end up exactly as PredictInto would
	// leave it for the same row — the differential suite holds the two
	// paths byte-identical. Like PredictInto, the call performs no heap
	// allocation once every dists[r] has grown to the class count.
	PredictBlockInto(ck *dataset.ColumnChunk, dists []Distribution)
}

// Trainer induces a Classifier from instances.
type Trainer interface {
	// Name identifies the algorithm in experiment reports.
	Name() string
	// Train induces a classifier.
	Train(ins *Instances) (Classifier, error)
}

// ErrForeignTrainer is the one refusal IncrementalClassifier.Update
// may make: the trainer belongs to another family than the model (a
// custom Trainer, say, from the §5.4 ablations), so the model's frozen
// structure says nothing about what that trainer would induce. The
// caller then retrains with the trainer; every other Update error is a
// failure.
var ErrForeignTrainer = errors.New("mlcore: trainer of another family")

// IncrementalClassifier is implemented by classifier families that can
// build a successor model from a new training set more cheaply than a
// cold retrain, by reusing state the model froze: a tree's skeleton, or a
// rule inducer's discretization bins.
//
// Update is copy-on-write: the receiver is never mutated (live scorers
// may still be serving it concurrently) and a new classifier trained on
// full is returned. It is gob-byte-identical to a retrain that reuses the
// same frozen state (1R and PRISM given the model's feature view) or
// quality-equivalent (same sensitivity/specificity within tolerance) to
// a cold retrain (the warm-started C4.5/ID3 trees and audit rule sets).
// The trainer argument supplies the induction options for families that
// re-search structure; a family that needs its own trainer type returns
// an error wrapping ErrForeignTrainer for any other.
type IncrementalClassifier interface {
	Classifier
	Update(trainer Trainer, full *Instances) (Classifier, error)
}
