package c45

import (
	"fmt"

	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// Warm-started re-induction. A Skeleton records a previous tree's split
// structure (attributes and thresholds, not distributions); TrainTreeWarm
// grows a fresh tree over new data but tries each hinted split first —
// evaluating a single attribute per node in one O(rows) pass instead of
// searching every attribute (numeric splits skip the O(rows log rows)
// sort entirely). Only where a hinted split has become inadmissible on
// the new data does the grower fall back to the full split search, so
// just the changed subtrees pay the re-search cost. Distributions,
// pre-pruning and the §5.4 integrated pruning are always recomputed from
// the new data, which keeps the warm tree quality-equivalent to a cold
// retrain.

// Skeleton is the structural hint extracted from a previous tree: the
// split attribute (or -1 for a leaf), the numeric threshold, and the
// child hints in branch order. It gob-serializes alongside the models
// that embed it (audittree.RuleSet).
type Skeleton struct {
	Attr      int
	IsNumeric bool
	Thresh    float64
	Children  []*Skeleton
}

// Skeleton extracts the tree's structural hint for warm re-induction.
func (t *Tree) Skeleton() *Skeleton { return skeletonOf(t.Root) }

func skeletonOf(n *Node) *Skeleton {
	if n == nil {
		return nil
	}
	s := &Skeleton{Attr: n.Attr, IsNumeric: n.IsNumeric, Thresh: n.Thresh}
	if len(n.Children) > 0 {
		s.Children = make([]*Skeleton, len(n.Children))
		for i, ch := range n.Children {
			s.Children[i] = skeletonOf(ch)
		}
	}
	return s
}

// TrainTreeWarm induces a tree like TrainTree, seeding the split search
// with a previous tree's skeleton. prev may be nil (equivalent to a cold
// TrainTree).
func (t *Trainer) TrainTreeWarm(ins *mlcore.Instances, prev *Skeleton) (*Tree, error) {
	return t.trainTree(ins, prev)
}

var _ mlcore.IncrementalClassifier = (*Tree)(nil)

// Update implements mlcore.IncrementalClassifier by warm re-induction
// over full with the receiver's own skeleton as the hint. The trainer
// must be the *c45.Trainer carrying the induction options (a tree does
// not store them); any other is refused with mlcore.ErrForeignTrainer.
// The successor is quality-equivalent to a cold retrain.
func (t *Tree) Update(trainer mlcore.Trainer, full *mlcore.Instances) (mlcore.Classifier, error) {
	tr, ok := trainer.(*Trainer)
	if !ok {
		return nil, fmt.Errorf("c45: update with a %T: %w", trainer, mlcore.ErrForeignTrainer)
	}
	return tr.TrainTreeWarm(full, t.Skeleton())
}

// evalHint re-evaluates a previously chosen split on the current
// instance set: the hinted attribute only, with the old threshold for
// numeric splits. It returns nil when the split is no longer admissible
// (the caller then falls back to the full search).
func (g *grower) evalHint(hint *Skeleton, rows []int, weights []float64) *split {
	var s *split
	if hint.IsNumeric {
		s = g.numericSplitAt(hint.Attr, hint.Thresh, rows, weights)
	} else {
		s = g.nominalSplit(hint.Attr, rows, weights)
	}
	if s == nil || s.gain <= 1e-10 {
		return nil
	}
	if g.opts.MinInst > 0 && !s.hasClassWithAtLeast(g.opts.MinInst) {
		return nil
	}
	return s
}

// numericSplitAt evaluates the binary split at one fixed threshold in a
// single unsorted pass — the warm-path replacement for numericSplit's
// sort-and-scan threshold search.
func (g *grower) numericSplitAt(attr int, thresh float64, rows []int, weights []float64) *split {
	left := make([]float64, g.ins.K)
	right := make([]float64, g.ins.K)
	parent := make([]float64, g.ins.K)
	leftW, rightW, missingW := 0.0, 0.0, 0.0
	for i, r := range rows {
		val := g.ins.Table.Get(r, attr)
		if val.IsNull() {
			missingW += weights[i]
			continue
		}
		c := g.ins.Class[r]
		w := weights[i]
		parent[c] += w
		if val.Float() <= thresh {
			left[c] += w
			leftW += w
		} else {
			right[c] += w
			rightW += w
		}
	}
	if leftW < minLeaf || rightW < minLeaf {
		return nil
	}
	knownW := leftW + rightW
	gain := stats.InfoGain(parent, [][]float64{left, right}) * knownW / (knownW + missingW)
	sizes := []float64{leftW, rightW}
	if missingW > 0 {
		sizes = append(sizes, missingW)
	}
	return &split{
		attr:      attr,
		isNumeric: true,
		thresh:    thresh,
		gain:      gain,
		gainRatio: stats.GainRatio(gain, sizes),
		branches:  [][]float64{left, right},
	}
}
