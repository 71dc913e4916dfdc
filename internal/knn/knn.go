// Package knn implements a k-nearest-neighbour instance-based classifier —
// one of the alternatives evaluated for the QUIS domain in §5 of the paper.
// Distances use the heterogeneous Euclidean/overlap metric (HEOM): overlap
// (0/1) on nominal attributes, range-normalized absolute difference on
// numeric and date attributes, and maximal distance when either value is
// null.
package knn

import (
	"fmt"
	"math"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// Options configure training.
type Options struct {
	// K is the neighbourhood size (default 5).
	K int
}

// Trainer induces (memorizes) kNN models.
type Trainer struct {
	Opts Options
}

var _ mlcore.Trainer = (*Trainer)(nil)

// Name implements mlcore.Trainer.
func (t *Trainer) Name() string { return "knn" }

// Model is the stored instance base.
type Model struct {
	K       int // neighbours
	Classes int
	Base    []int
	Rows    [][]dataset.Value
	Class   []int
	Weight  []float64
	IsNum   []bool    // per base attribute
	Range   []float64 // per base attribute (numeric normalization)
}

var _ mlcore.Classifier = (*Model)(nil)

// Train implements mlcore.Trainer: it memorizes the instance set.
func (t *Trainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	k := t.Opts.K
	if k == 0 {
		k = 5
	}
	schema := ins.Table.Schema()
	m := &Model{K: k, Classes: ins.K, Base: ins.Base}
	m.IsNum = make([]bool, len(ins.Base))
	m.Range = make([]float64, len(ins.Base))
	for i, attr := range ins.Base {
		a := schema.Attr(attr)
		if a.IsNumberLike() {
			m.IsNum[i] = true
			m.Range[i] = a.Max - a.Min
			if m.Range[i] <= 0 {
				m.Range[i] = 1
			}
		}
	}
	for i, r := range ins.Rows {
		c := ins.Class[r]
		if c < 0 {
			continue
		}
		m.Rows = append(m.Rows, ins.Table.Row(r))
		m.Class = append(m.Class, c)
		m.Weight = append(m.Weight, ins.Weights[i])
	}
	if len(m.Rows) == 0 {
		return nil, fmt.Errorf("knn: no instances with a known class value")
	}
	return m, nil
}

// distance computes HEOM between a query row and stored instance i.
func (m *Model) distance(row []dataset.Value, i int) float64 {
	d := 0.0
	for bi, attr := range m.Base {
		q, s := row[attr], m.Rows[i][attr]
		var dd float64
		switch {
		case q.IsNull() || s.IsNull():
			dd = 1
		case m.IsNum[bi]:
			dd = math.Abs(q.Float()-s.Float()) / m.Range[bi]
			if dd > 1 {
				dd = 1
			}
		default:
			if q.NomIdx() != s.NomIdx() {
				dd = 1
			}
		}
		d += dd * dd
	}
	return math.Sqrt(d)
}

// cand is one neighbourhood candidate during selection.
type cand struct {
	dist float64
	idx  int
}

// candStackSize bounds the neighbourhood that fits in a stack-allocated
// selection buffer; larger k values fall back to a heap allocation.
const candStackSize = 32

// candSiftDown restores the max-heap property from index i down; heap[0]
// is the farthest of the current k nearest.
func candSiftDown(heap []cand, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(heap) && heap[l].dist > heap[largest].dist {
			largest = l
		}
		if r < len(heap) && heap[r].dist > heap[largest].dist {
			largest = r
		}
		if largest == i {
			return
		}
		heap[i], heap[largest] = heap[largest], heap[i]
		i = largest
	}
}

// Predict implements mlcore.Classifier: the class histogram of the k
// nearest stored instances, with the neighbourhood weight as support.
// Selection uses a bounded max-heap (O(n log k)), not a full sort — kNN is
// already the slowest family in the §5 comparison without extra help.
func (m *Model) Predict(row []dataset.Value) mlcore.Distribution {
	var d mlcore.Distribution
	m.PredictInto(row, &d)
	return d
}

// PredictInto implements mlcore.Classifier without allocating for the
// usual neighbourhood sizes: the selection buffer lives on the stack for
// k <= candStackSize.
func (m *Model) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	k := m.K
	if k > len(m.Rows) {
		k = len(m.Rows)
	}
	var stack [candStackSize]cand
	var heap []cand
	if k <= candStackSize {
		heap = stack[:0]
	} else {
		heap = make([]cand, 0, k)
	}
	for i := range m.Rows {
		dist := m.distance(row, i)
		if len(heap) < k {
			heap = append(heap, cand{dist, i})
			for j := len(heap) - 1; j > 0; {
				parent := (j - 1) / 2
				if heap[parent].dist >= heap[j].dist {
					break
				}
				heap[parent], heap[j] = heap[j], heap[parent]
				j = parent
			}
			continue
		}
		if dist < heap[0].dist {
			heap[0] = cand{dist, i}
			candSiftDown(heap, 0)
		}
	}
	d.Reset(m.Classes)
	for _, c := range heap {
		d.Add(m.Class[c.idx], m.Weight[c.idx])
	}
}
