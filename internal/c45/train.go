package c45

import (
	"fmt"
	"sort"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// Options configure tree induction.
type Options struct {
	// UseGainRatio selects C4.5's gain-ratio criterion; false falls back to
	// plain ID3 information gain (§5.1.1 vs §5.1.2).
	UseGainRatio bool
	// Prune enables pessimistic-error subtree replacement after growth,
	// at C4.5's confidence factor 0.25.
	Prune bool

	// ---- §5.4 data-auditing adjustments ----

	// MinInst, when positive, enables the paper's pre-pruning: a split is
	// rejected when no resulting partition contains at least MinInst
	// (weighted) instances of a single class. Derive it from the minimum
	// error confidence with stats.MinInstForConfidence.
	MinInst float64
	// ExpErrConfPrune enables the integrated pruning strategy of Def. 9:
	// while the tree is built (bottom-up), a subtree is replaced by a leaf
	// whenever the leaf has at least the subtree's expected error
	// confidence.
	ExpErrConfPrune bool
	// MinErrConf clips the expected error confidence: contributions below
	// this threshold count as zero detection capability. §5.4 lets the
	// user "restrict his interest by giving a minimal confidence for
	// detected errors"; without the clip, a mixed leaf's many weak (and
	// never-reported) confidences would outweigh a subtree's few strong
	// ones and the integrated pruning would collapse genuine structure.
	MinErrConf float64
	// ConfLevel is the one-sided confidence level for the error-confidence
	// bounds (default 0.95).
	ConfLevel float64
}

// C4.5's standard values, which the paper's tool runs unchanged.
const (
	// minLeaf is the minimum weighted instance count each of (at least
	// two) branches of a split must receive.
	minLeaf = 2
	// cf is the pruning confidence factor: the pessimistic error is the
	// upper bound of the (1-cf) one-sided confidence interval of the leaf
	// error rate.
	cf = 0.25
)

// WithDefaults fills unset fields with C4.5's standard values.
func (o Options) WithDefaults() Options {
	if o.ConfLevel == 0 {
		o.ConfLevel = 0.95
	}
	return o
}

// Trainer induces decision trees.
type Trainer struct {
	Opts Options
}

var _ mlcore.Trainer = (*Trainer)(nil)

// Name implements mlcore.Trainer.
func (t *Trainer) Name() string {
	if t.Opts.UseGainRatio {
		return "c4.5"
	}
	return "id3"
}

// Train implements mlcore.Trainer.
func (t *Trainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	tree, err := t.TrainTree(ins)
	if err != nil {
		return nil, err
	}
	return tree, nil
}

// TrainTree induces the tree with its concrete type.
func (t *Trainer) TrainTree(ins *mlcore.Instances) (*Tree, error) {
	return t.trainTree(ins, nil)
}

// trainTree grows a tree, optionally seeded with a previous tree's
// skeleton (see warm.go).
func (t *Trainer) trainTree(ins *mlcore.Instances, prev *Skeleton) (*Tree, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	opts := t.Opts.WithDefaults()
	g := &grower{ins: ins, opts: opts, schema: ins.Table.Schema()}
	// Rows whose class is null carry no supervision; C4.5 drops them.
	var rows []int
	var weights []float64
	for i, r := range ins.Rows {
		if ins.Class[r] >= 0 {
			rows = append(rows, r)
			weights = append(weights, ins.Weights[i])
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("c45: no instances with a known class value")
	}
	root := g.grow(rows, weights, len(ins.Base), prev)
	tree := &Tree{Root: root, K: ins.K, Base: ins.Base}
	if opts.Prune {
		prunePessimistic(root)
	}
	return tree, nil
}

// grower carries induction state.
type grower struct {
	ins    *mlcore.Instances
	opts   Options
	schema *dataset.Schema
}

// distOf tallies the weighted class distribution of the rows.
func (g *grower) distOf(rows []int, weights []float64) mlcore.Distribution {
	d := mlcore.NewDistribution(g.ins.K)
	for i, r := range rows {
		d.Add(g.ins.Class[r], weights[i])
	}
	return d
}

// grow recursively builds (and, with ExpErrConfPrune, integrally prunes)
// the subtree for the given weighted instance set. hint, when non-nil,
// is the previous tree's structure at this position (see warm.go): a
// hinted split is re-evaluated alone, and only if it has become
// inadmissible does the full search run — with no hints below, since the
// old structure no longer describes this subtree.
func (g *grower) grow(rows []int, weights []float64, attrsLeft int, hint *Skeleton) *Node {
	dist := g.distOf(rows, weights)
	leaf := &Node{Attr: -1, Dist: dist}

	// Stop: pure node, too small, or no attributes left.
	if attrsLeft == 0 || dist.N() < 2*minLeaf || isPure(dist) {
		return leaf
	}
	// A leaf hint means the previous tree stopped here: keep the leaf
	// without searching for a split (the stop conditions above and the
	// integrated pruning below still apply on the recursion path).
	if hint != nil && hint.Attr < 0 {
		return leaf
	}

	var best *split
	var childHints []*Skeleton
	if hint != nil {
		if best = g.evalHint(hint, rows, weights); best != nil {
			childHints = hint.Children
		}
	}
	if best == nil {
		best = g.bestSplit(rows, weights)
		if best == nil {
			return leaf
		}
		// §5.4 pre-pruning: reject the split when no partition would contain at
		// least minInst instances of one class ("This number can be used in a
		// pre-pruning strategy to prevent a training instance set from being
		// further partitioned when there is not at least one subset with
		// minInst instances of one class").
		if g.opts.MinInst > 0 && !best.hasClassWithAtLeast(g.opts.MinInst) {
			return leaf
		}
	}

	node := &Node{Attr: best.attr, IsNumeric: best.isNumeric, Thresh: best.thresh, Dist: dist}
	childSets := best.partition(g, rows, weights)
	node.Children = make([]*Node, len(childSets))
	for i, cs := range childSets {
		var ch *Skeleton
		if i < len(childHints) {
			ch = childHints[i]
		}
		if len(cs.rows) == 0 {
			// Empty branch: C4.5 predicts the parent's majority here; we
			// keep the parent's distribution so that unseen branch values
			// answer with the parent's evidence.
			node.Children[i] = &Node{Attr: -1, Dist: dist.Clone()}
			continue
		}
		node.Children[i] = g.grow(cs.rows, cs.weights, attrsLeft-1, ch)
	}

	// §5.4 integrated pruning: replace the freshly grown subtree by a leaf
	// whenever that transformation leads to a strictly higher expected
	// error confidence (Def. 9). Strictness matters: a functional
	// dependency yields pure children (expErrorConf 0) under a mixed
	// parent (also 0), and must survive.
	if g.opts.ExpErrConfPrune {
		leafEC := expErrConfLeaf(dist, g.opts.ConfLevel, g.opts.MinErrConf)
		nodeEC := expErrConfNode(node, g.opts.ConfLevel, g.opts.MinErrConf)
		if leafEC > nodeEC+1e-15 {
			return leaf
		}
	}
	return node
}

func isPure(d mlcore.Distribution) bool {
	seen := false
	for _, c := range d.Counts {
		if c > 0 {
			if seen {
				return false
			}
			seen = true
		}
	}
	return true
}

// split describes a candidate split and its quality.
type split struct {
	attr      int
	isNumeric bool
	thresh    float64
	gain      float64
	gainRatio float64
	// branch class histograms over known-valued instances (used by the
	// minInst pre-pruning check).
	branches [][]float64
}

// hasClassWithAtLeast reports whether some branch holds at least min
// weighted instances of a single class.
func (s *split) hasClassWithAtLeast(min float64) bool {
	for _, b := range s.branches {
		for _, c := range b {
			if c >= min {
				return true
			}
		}
	}
	return false
}

// bestSplit evaluates every base attribute and returns the winner under
// the configured criterion (gain ratio filtered by mean gain for C4.5,
// plain gain for ID3), or nil if no admissible split exists.
func (g *grower) bestSplit(rows []int, weights []float64) *split {
	var candidates []*split
	for _, attr := range g.ins.Base {
		var s *split
		if g.schema.Attr(attr).IsNumberLike() {
			s = g.numericSplit(attr, rows, weights)
		} else {
			s = g.nominalSplit(attr, rows, weights)
		}
		if s != nil && s.gain > 1e-10 {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if !g.opts.UseGainRatio {
		best := candidates[0]
		for _, s := range candidates[1:] {
			if s.gain > best.gain {
				best = s
			}
		}
		return best
	}
	// C4.5: restrict to candidates with at least average gain, then pick
	// the best gain ratio (guards the ratio against tiny-split-info
	// artifacts).
	meanGain := 0.0
	for _, s := range candidates {
		meanGain += s.gain
	}
	meanGain /= float64(len(candidates))
	var best *split
	for _, s := range candidates {
		if s.gain+1e-12 < meanGain {
			continue
		}
		if best == nil || s.gainRatio > best.gainRatio {
			best = s
		}
	}
	if best == nil {
		best = candidates[0]
	}
	return best
}

// nominalSplit evaluates the multiway split on a nominal attribute.
func (g *grower) nominalSplit(attr int, rows []int, weights []float64) *split {
	nv := g.schema.Attr(attr).NumValues()
	branches := make([][]float64, nv)
	for i := range branches {
		branches[i] = make([]float64, g.ins.K)
	}
	parent := make([]float64, g.ins.K)
	branchSizes := make([]float64, nv, nv+1)
	knownW, missingW := 0.0, 0.0
	for i, r := range rows {
		v := g.ins.Table.Get(r, attr)
		w := weights[i]
		if v.IsNull() {
			missingW += w
			continue
		}
		c := g.ins.Class[r]
		branches[v.NomIdx()][c] += w
		parent[c] += w
		branchSizes[v.NomIdx()] += w
		knownW += w
	}
	if knownW <= 0 {
		return nil
	}
	// At least two branches must carry minLeaf weight.
	populated := 0
	for _, sz := range branchSizes {
		if sz >= minLeaf {
			populated++
		}
	}
	if populated < 2 {
		return nil
	}
	gain := stats.InfoGain(parent, branches) * knownW / (knownW + missingW)
	sizesWithMissing := branchSizes
	if missingW > 0 {
		sizesWithMissing = append(sizesWithMissing, missingW)
	}
	return &split{
		attr:      attr,
		gain:      gain,
		gainRatio: stats.GainRatio(gain, sizesWithMissing),
		branches:  branches,
	}
}

// numericSplit finds the best binary threshold on a numeric attribute.
func (g *grower) numericSplit(attr int, rows []int, weights []float64) *split {
	type vw struct {
		v float64
		c int
		w float64
	}
	var known []vw
	missingW := 0.0
	parent := make([]float64, g.ins.K)
	for i, r := range rows {
		val := g.ins.Table.Get(r, attr)
		if val.IsNull() {
			missingW += weights[i]
			continue
		}
		c := g.ins.Class[r]
		known = append(known, vw{v: val.Float(), c: c, w: weights[i]})
		parent[c] += weights[i]
	}
	if len(known) < 2 {
		return nil
	}
	sort.Slice(known, func(i, j int) bool { return known[i].v < known[j].v })
	knownW := 0.0
	for _, k := range known {
		knownW += k.w
	}

	left := make([]float64, g.ins.K)
	right := append([]float64(nil), parent...)
	leftW := 0.0
	bestGain, bestThresh := -1.0, 0.0
	var bestLeft, bestRight []float64
	for i := 0; i < len(known)-1; i++ {
		left[known[i].c] += known[i].w
		right[known[i].c] -= known[i].w
		leftW += known[i].w
		if known[i].v == known[i+1].v {
			continue // threshold must separate distinct values
		}
		if leftW < minLeaf || knownW-leftW < minLeaf {
			continue
		}
		gain := stats.InfoGain(parent, [][]float64{left, right})
		if gain > bestGain {
			bestGain = gain
			bestThresh = (known[i].v + known[i+1].v) / 2
			bestLeft = append(bestLeft[:0], left...)
			bestRight = append(bestRight[:0], right...)
		}
	}
	if bestGain < 0 {
		return nil
	}
	gain := bestGain * knownW / (knownW + missingW)
	leftSize, rightSize := 0.0, 0.0
	for _, c := range bestLeft {
		leftSize += c
	}
	for _, c := range bestRight {
		rightSize += c
	}
	sizes := []float64{leftSize, rightSize}
	if missingW > 0 {
		sizes = append(sizes, missingW)
	}
	return &split{
		attr:      attr,
		isNumeric: true,
		thresh:    bestThresh,
		gain:      gain,
		gainRatio: stats.GainRatio(gain, sizes),
		branches:  [][]float64{bestLeft, bestRight},
	}
}

// childSet is one branch's weighted instance set.
type childSet struct {
	rows    []int
	weights []float64
}

// partition distributes the instances over the split's branches; instances
// with a missing split value go to every branch with weight scaled by the
// branch's share of the known weight — C4.5's fractional instances
// ("this approach requires the possibility to 'distribute' a training
// instance over several branches of an inner node", §5.1.2).
func (s *split) partition(g *grower, rows []int, weights []float64) []childSet {
	nb := len(s.branches)
	if s.isNumeric {
		nb = 2
	}
	sets := make([]childSet, nb)
	shares := make([]float64, nb)
	knownW := 0.0
	for b := range s.branches {
		for _, c := range s.branches[b] {
			shares[b] += c
			knownW += c
		}
	}
	if knownW > 0 {
		for b := range shares {
			shares[b] /= knownW
		}
	}
	for i, r := range rows {
		v := g.ins.Table.Get(r, s.attr)
		w := weights[i]
		if v.IsNull() {
			for b := range sets {
				if shares[b] <= 0 {
					continue
				}
				sets[b].rows = append(sets[b].rows, r)
				sets[b].weights = append(sets[b].weights, w*shares[b])
			}
			continue
		}
		var b int
		if s.isNumeric {
			if v.Float() <= s.thresh {
				b = 0
			} else {
				b = 1
			}
		} else {
			b = v.NomIdx()
		}
		sets[b].rows = append(sets[b].rows, r)
		sets[b].weights = append(sets[b].weights, w)
	}
	return sets
}
