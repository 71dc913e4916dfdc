package c45

import (
	"fmt"
	"math"
	"slices"

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
	g := newGrower(ins, opts, rows)
	root := g.grow(rows, weights, len(ins.Base), prev)
	tree := &Tree{Root: root, K: ins.K, Base: ins.Base}
	if opts.Prune {
		prunePessimistic(root)
	}
	return tree, nil
}

// grower carries one tree's induction state. One goroutine owns it, and
// every node's split search reuses its buffers.
type grower struct {
	ins    *mlcore.Instances
	opts   Options
	schema *dataset.Schema
	// rootRows are the root's rows; every node's rows are a subset.
	rootRows []int
	// ranks[col] is the column's rank table, built the first time a full
	// split search reaches the column (see rankTableOf).
	ranks []*rankTable

	// Threshold search buffers: the node's sort keys, the known rows'
	// classes and weights in key order, and class histograms.
	keys                []uint64
	cls                 []int
	wts                 []float64
	parent, left, right []float64
	bestLeft, bestRight []float64
	// branch is partition's per-row branch (-1: missing value).
	branch []int
}

func newGrower(ins *mlcore.Instances, opts Options, rootRows []int) *grower {
	hist := func() []float64 { return make([]float64, ins.K) }
	return &grower{
		ins: ins, opts: opts, schema: ins.Table.Schema(), rootRows: rootRows,
		ranks:  make([]*rankTable, ins.Table.NumCols()),
		parent: hist(), left: hist(), right: hist(), bestLeft: hist(), bestRight: hist(),
	}
}

// rankTable orders one number-like column once per tree. rank[r] is row
// r's dense rank among the distinct values of the column over the root's
// rows (-1 for a null cell), and values holds those distinct values in
// ascending order, so a rank reads its value back as values[rank]. -0 and
// +0 share a rank. NaN ranks after every number, at rank nan =
// len(values), and has no value: NaN <= t is false for every threshold t,
// so partition and PredictInto send a NaN row right, and the threshold search
// therefore never cuts at or after a NaN.
type rankTable struct {
	rank   []int32
	values []float64
	nan    uint64
}

// rankTableOf returns the column's rank table, building it on first use.
// A warm re-induction whose hints all hold never searches and never
// builds one.
func (g *grower) rankTableOf(attr int) *rankTable {
	if rt := g.ranks[attr]; rt != nil {
		return rt
	}
	col := g.ins.Table.Column(attr)
	values := make([]float64, 0, len(g.rootRows))
	for _, r := range g.rootRows {
		if v := col[r]; !v.IsNull() && !math.IsNaN(v.Float()) {
			values = append(values, v.Float())
		}
	}
	slices.Sort(values)
	// Compact keeps one of -0 and +0; the midpoint of either zero and a
	// nonzero neighbour is the same.
	values = slices.Clip(slices.Compact(values))
	rt := &rankTable{rank: make([]int32, len(col)), values: values, nan: uint64(len(values))}
	for _, r := range g.rootRows {
		switch v := col[r]; {
		case v.IsNull():
			rt.rank[r] = -1
		case math.IsNaN(v.Float()):
			rt.rank[r] = int32(rt.nan)
		default:
			k, _ := slices.BinarySearch(values, v.Float())
			rt.rank[r] = int32(k)
		}
	}
	g.ranks[attr] = rt
	return rt
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
// The node's known rows are ordered by (rank, position) through one sort
// of packed integer keys, so rows of equal value keep their position
// order — row order, as every node's rows ascend. A threshold lies midway
// between two adjacent distinct values, never next to a NaN.
//
// Only boundary points are scored (Fayyad & Irani, "On the handling of
// continuous-valued attributes in decision tree generation", Machine
// Learning 8, 1992): a cut between two value groups that both hold rows
// of one and the same class cannot be the first maximum of the gain. Along
// a run of such groups the gain is strictly convex in the weight moved
// left unless the whole node is of that class, so the run's interior lies
// strictly below one of its two ends. The ends of the admissible interval
// are scored whatever the groups hold: the minLeaf and NaN filters can
// clip a run, and then its clipped edge is an end. The first admissible
// cut also gives a single-class node, where every cut is interior, its
// gain-0 split.
func (g *grower) numericSplit(attr int, rows []int, weights []float64) *split {
	rt := g.rankTableOf(attr)
	parent := g.parent
	clear(parent)
	keys := g.keys[:0]
	missingW := 0.0
	for i, r := range rows {
		k := rt.rank[r]
		if k < 0 {
			missingW += weights[i]
			continue
		}
		parent[g.ins.Class[r]] += weights[i]
		keys = append(keys, uint64(k)<<32|uint64(i))
	}
	g.keys = keys
	if len(keys) < 2 {
		return nil
	}
	slices.Sort(keys)
	// Gather classes and weights in key order; the known weight sums in
	// that order too.
	n := len(keys)
	g.cls, g.wts = slices.Grow(g.cls[:0], n)[:n], slices.Grow(g.wts[:0], n)[:n]
	cls, wts := g.cls, g.wts
	knownW := 0.0
	for j, key := range keys {
		pos := uint32(key)
		cls[j], wts[j] = g.ins.Class[rows[pos]], weights[pos]
		knownW += wts[j]
	}

	// The parent's entropy and total are the same at every threshold.
	parentTotal, parentH := 0.0, stats.Entropy(parent)
	for _, c := range parent {
		parentTotal += c
	}
	left, right := g.left, g.right
	clear(left)
	copy(right, parent)
	leftW := 0.0
	bestGain, bestThresh := -1.0, 0.0
	// group is the one class of the rows seen so far in row j's value
	// group, or -1 once two classes meet in it.
	group, scored := cls[0], false
	for j := 0; j < len(keys)-1; j++ {
		c := cls[j]
		left[c] += wts[j]
		right[c] -= wts[j]
		leftW += wts[j]
		if c != group {
			group = -1
		}
		rank, next := keys[j]>>32, keys[j+1]>>32
		if rank == next {
			continue // threshold must separate distinct numbers
		}
		pure := group
		group = cls[j+1]
		if next == rt.nan {
			continue // and never lies next to a NaN
		}
		if leftW < minLeaf || knownW-leftW < minLeaf {
			continue
		}
		if scored && pure >= 0 && interiorCut(keys, cls, wts, j, pure, leftW, knownW, rt.nan) {
			continue
		}
		scored = true
		gain := stats.BinaryInfoGain(parentH, parentTotal, left, right)
		if gain > bestGain {
			bestGain = gain
			bestThresh = (rt.values[rank] + rt.values[next]) / 2
			copy(g.bestLeft, left)
			copy(g.bestRight, right)
		}
	}
	if bestGain < 0 {
		return nil
	}
	gain := bestGain * knownW / (knownW + missingW)
	leftSize, rightSize := 0.0, 0.0
	for _, c := range g.bestLeft {
		leftSize += c
	}
	for _, c := range g.bestRight {
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
		branches:  [][]float64{slices.Clone(g.bestLeft), slices.Clone(g.bestRight)},
	}
}

// interiorCut reports whether the admissible cut after row j, whose value
// group holds class c only, can be skipped: the next group holds class c
// only as well, and a later admissible cut follows. That cut closes the
// next group; leftW is summed over the group in the scan's own order, so
// the minLeaf test sees the scan's bits. Only one group is read, so a
// search reads each row at most twice.
func interiorCut(keys []uint64, cls []int, wts []float64, j, c int, leftW, knownW float64, nan uint64) bool {
	next := keys[j+1] >> 32
	e := j + 1
	for ; e < len(keys) && keys[e]>>32 == next; e++ {
		if cls[e] != c {
			return false
		}
		leftW += wts[e]
	}
	return e < len(keys) && keys[e]>>32 != nan && knownW-leftW >= minLeaf
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
// instance over several branches of an inner node", §5.1.2). A counting
// pass sizes every branch first, so each child's slices are allocated
// once, at their final size.
func (s *split) partition(g *grower, rows []int, weights []float64) []childSet {
	nb := len(s.branches)
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
	branch := slices.Grow(g.branch[:0], len(rows))[:len(rows)]
	g.branch = branch
	sizes := make([]int, nb)
	missing := 0
	for i, r := range rows {
		v := g.ins.Table.Get(r, s.attr)
		switch {
		case v.IsNull():
			branch[i] = -1
			missing++
			continue
		case !s.isNumeric:
			branch[i] = v.NomIdx()
		case v.Float() <= s.thresh:
			branch[i] = 0
		default:
			branch[i] = 1
		}
		sizes[branch[i]]++
	}
	sets := make([]childSet, nb)
	for b := range sets {
		if shares[b] > 0 {
			sizes[b] += missing
		}
		if sizes[b] > 0 {
			sets[b] = childSet{rows: make([]int, 0, sizes[b]), weights: make([]float64, 0, sizes[b])}
		}
	}
	for i, r := range rows {
		if b := branch[i]; b >= 0 {
			sets[b].rows = append(sets[b].rows, r)
			sets[b].weights = append(sets[b].weights, weights[i])
			continue
		}
		for b := range sets {
			if shares[b] > 0 {
				sets[b].rows = append(sets[b].rows, r)
				sets[b].weights = append(sets[b].weights, weights[i]*shares[b])
			}
		}
	}
	return sets
}
