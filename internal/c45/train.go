package c45

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
	n := 0
	for _, r := range ins.Rows {
		if ins.Class[r] >= 0 {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("c45: no instances with a known class value")
	}
	g := newGrower(ins, opts)
	// The root's rows sit at the bottom of the grower's stacks.
	rows, weights := g.rows.alloc(n)[:0], g.weights.alloc(n)[:0]
	for i, r := range ins.Rows {
		if ins.Class[r] >= 0 {
			rows = append(rows, r)
			weights = append(weights, ins.Weights[i])
		}
	}
	root := g.grow(g.rootSet(rows, weights), len(ins.Base), prev)
	g.free()
	tree := &Tree{Root: root, K: ins.K, Base: ins.Base}
	if opts.Prune {
		prunePessimistic(root)
	}
	return tree, nil
}

// grower carries one tree's induction state. One goroutine owns it, and
// every node's split search reuses its buffers: a node allocates only its
// output, the Node with its Dist counts and Children slice.
type grower struct {
	ins    *mlcore.Instances
	opts   Options
	schema *dataset.Schema
	// ranks holds the rank tables and nominal code vectors of the call's
	// table, shared by every tree of the call. Only a full split search
	// asks for a rank table, so a warm re-induction whose hints all hold
	// builds none.
	ranks *mlcore.RankCache
	// numeric lists the number-like base columns, and list[col] is a
	// column's index in numeric (-1 for the others): a searching node's
	// key list for column col is heads[at+list[col]].
	numeric []int
	list    []int

	// splits holds one split per base column, with its histograms, and
	// slot[col] is a column's index in splits (-1 for the others). Every
	// node reuses them: a node consumes its winning split
	// (hasClassWithAtLeast, partition) before any child searches.
	// candidates is bestSplit's list of admissible splits.
	splits     []split
	slot       []int
	candidates []*split

	// The stacks and the buffers sized by the node's rows.
	*stacks
	// Class histograms of the threshold search.
	parent, left, right []float64
	bestLeft, bestRight []float64

	// searched, when set, sees the rows and key lists of every node that
	// runs the full search, before the search; inherited tells whether the
	// lists came from the parent. Tests check the lists with it.
	searched func(rows []int, lists [][]uint64, inherited bool)
}

// stacks holds a tree's stacks and the buffers sized by a node's rows.
// None of it outlives the tree's induction, and every reader writes what
// it reads first, so the trees of a process reuse them through stackPool.
type stacks struct {
	// Presorted key lists, one per numeric column for a node that runs
	// the full search: heads holds the lists, keys their keys. The
	// children's rows, weights and instance sets come from stacks too. All
	// are stacks; a node releases what it pushed when its subtree is done.
	heads   [][]uint64
	keys    stackArena[uint64]
	rows    stackArena[int]
	weights stackArena[float64]
	sets    stackArena[instSet]

	// The threshold search's known rows' classes and weights in key order.
	cls []int
	wts []float64
	// partition's per-row branch (-1: missing value) and position in that
	// branch's child (for a missing row, the number of missing rows before
	// it), and, per missing row, each receiving child's count of known rows
	// before it. carryLists reads them.
	branch []int
	pos    []int
	before []int
	// recv is partition's receiving branches, shares and sizes its
	// per-branch share of the known weight and row count; outs and carries
	// are carryLists' per-branch lists and flags.
	recv    []int
	shares  []float64
	sizes   []int
	outs    [][]uint64
	carries []bool
}

var stackPool = sync.Pool{New: func() any { return new(stacks) }}

// free hands the grower's stacks back to stackPool once its tree is done;
// the instance sets are cleared, as they point at the tree's distributions.
// A tree whose induction panicked keeps its stacks.
func (g *grower) free() {
	g.release(arenaMark{})
	for _, c := range g.sets.chunks {
		clear(c)
	}
	stackPool.Put(g.stacks)
	g.stacks = nil
}

func newGrower(ins *mlcore.Instances, opts Options) *grower {
	hist := func() []float64 { return make([]float64, ins.K) }
	g := &grower{
		ins: ins, opts: opts, schema: ins.Table.Schema(), ranks: ins.RankCache(),
		stacks: stackPool.Get().(*stacks),
		list:   make([]int, ins.Table.NumCols()),
		slot:   make([]int, ins.Table.NumCols()),
		parent: hist(), left: hist(), right: hist(), bestLeft: hist(), bestRight: hist(),
	}
	for i := range g.list {
		g.list[i], g.slot[i] = -1, -1
	}
	// Each base column's split has one histogram per branch and a size
	// per branch plus the missing weight, carved from shared backing.
	nbranches := 0
	for _, attr := range ins.Base {
		if g.slot[attr] >= 0 {
			continue
		}
		g.slot[attr] = len(g.splits)
		nb := 2
		if a := g.schema.Attr(attr); a.IsNumberLike() {
			g.list[attr] = len(g.numeric)
			g.numeric = append(g.numeric, attr)
		} else {
			nb = a.NumValues()
		}
		g.splits = append(g.splits, split{attr: attr, isNumeric: g.list[attr] >= 0, branches: make([][]float64, nb)})
		nbranches += nb
	}
	hists, sizes := make([]float64, nbranches*ins.K), make([]float64, nbranches+len(g.splits))
	for i := range g.splits {
		s := &g.splits[i]
		nb := len(s.branches)
		s.hist, hists = hists[:nb*ins.K:nb*ins.K], hists[nb*ins.K:]
		for b := range s.branches {
			s.branches[b] = s.hist[b*ins.K : (b+1)*ins.K : (b+1)*ins.K]
		}
		s.sizes, sizes = sizes[:nb+1:nb+1], sizes[nb+1:]
	}
	return g
}

// appendSortedKeys appends the node's sort key rank<<32 | position for
// each row with a known value of the column, and sorts what it appended:
// the (rank, position) order of the threshold search. Position order is
// row order, as every node's rows ascend.
func (g *grower) appendSortedKeys(dst []uint64, attr int, rows []int) []uint64 {
	rt := g.ranks.Column(attr)
	n := len(dst)
	for i, r := range rows {
		if k := rt.Rank[r]; k >= 0 {
			dst = append(dst, uint64(k)<<32|uint64(i))
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// sortLists pushes a key list per numeric column for a node that searches
// without lists from its parent — a cold tree's root, or the first
// searched node below hints that held — and returns their index in heads.
func (g *grower) sortLists(rows []int) int {
	at := len(g.heads)
	block := g.keys.alloc(len(g.numeric) * len(rows))[:0]
	for _, attr := range g.numeric {
		n := len(block)
		block = g.appendSortedKeys(block, attr, rows)
		g.heads = append(g.heads, block[n:len(block):len(block)])
	}
	g.keys.trim(block)
	return at
}

// stackArena hands out slices from a stack of chunks. A chunk never
// moves, so a slice stays valid until released, and released memory is
// handed out again without being cleared: its users write every element
// they read. A new chunk is at least as large as all earlier ones
// together, so a tree allocates few chunks, each sized from what the tree
// has needed.
type stackArena[T any] struct {
	chunks [][]T
	// cur is the chunk slices come from, off its first free element.
	cur, off int
}

// alloc returns a slice of length and capacity n.
func (a *stackArena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			a.off += n
			return c[a.off-n : a.off : a.off]
		}
	}
	size := n
	for _, c := range a.chunks {
		size += len(c)
	}
	a.chunks = append(a.chunks, make([]T, size))
	a.off = n
	return a.chunks[a.cur][:n:n]
}

// trim returns the unused tail of s, the last slice allocated, to the
// arena.
func (a *stackArena[T]) trim(s []T) {
	a.off -= cap(s) - len(s)
}

// stackMark is the top of one stackArena.
type stackMark struct{ cur, off int }

func (a *stackArena[T]) mark() stackMark { return stackMark{a.cur, a.off} }

// release pops everything allocated since m. With poisonReleased set, it
// first overwrites the popped elements with poison.
func (a *stackArena[T]) release(m stackMark, poison T) {
	if poisonReleased {
		for c := m.cur; c <= a.cur && c < len(a.chunks); c++ {
			lo, hi := 0, len(a.chunks[c])
			if c == m.cur {
				lo = m.off
			}
			if c == a.cur {
				hi = a.off
			}
			for i := lo; i < hi; i++ {
				a.chunks[c][i] = poison
			}
		}
	}
	a.cur, a.off = m.cur, m.off
}

// poisonReleased makes every release overwrite the memory it frees: rows
// with -1, weights with NaN, keys with all ones and instance sets with
// zero sets. Tests set it, so that a read of a released region fails.
var poisonReleased bool

// arenaMark is the top of the grower's stacks.
type arenaMark struct {
	keys, rows, weights, sets stackMark
	heads                     int
}

func (g *grower) mark() arenaMark {
	return arenaMark{g.keys.mark(), g.rows.mark(), g.weights.mark(), g.sets.mark(), len(g.heads)}
}

func (g *grower) release(m arenaMark) {
	g.keys.release(m.keys, math.MaxUint64)
	g.rows.release(m.rows, -1)
	g.weights.release(m.weights, math.NaN())
	g.sets.release(m.sets, instSet{})
	g.heads = g.heads[:m.heads]
}

// instSet is one node's weighted instance set.
type instSet struct {
	rows    []int
	weights []float64
	dist    mlcore.Distribution
	// lists is the index in heads of the key lists the parent handed
	// down, or -1.
	lists int
}

// rootSet is the instance set of a tree's root.
func (g *grower) rootSet(rows []int, weights []float64) instSet {
	d := mlcore.NewDistribution(g.ins.K)
	for i, r := range rows {
		d.Add(g.ins.Class[r], weights[i])
	}
	return instSet{rows: rows, weights: weights, dist: d, lists: -1}
}

// stops reports whether a node stays a leaf whatever its hint: it is
// pure, too small, or has no attributes left.
func stops(dist mlcore.Distribution, attrsLeft int) bool {
	return attrsLeft == 0 || dist.N() < 2*minLeaf || isPure(dist)
}

// grow recursively builds (and, with ExpErrConfPrune, integrally prunes)
// the subtree for the given weighted instance set. hint, when non-nil,
// is the previous tree's structure at this position (see warm.go): a
// hinted split is re-evaluated alone, and only if it has become
// inadmissible does the full search run — with no hints below, since the
// old structure no longer describes this subtree.
//
// A node that runs the full search reads each numeric column's rows in
// key order from a presorted list: its parent's, carried down by
// partition, or, where the parent did not search, one sorted here. A
// node whose hint holds needs no list and builds none.
func (g *grower) grow(n instSet, attrsLeft int, hint *Skeleton) *Node {
	rows, weights, dist := n.rows, n.weights, n.dist

	if stops(dist, attrsLeft) {
		return leafOf(dist)
	}
	// A leaf hint means the previous tree stopped here: keep the leaf
	// without searching for a split (the stop conditions above and the
	// integrated pruning below still apply on the recursion path).
	if hint != nil && hint.Attr < 0 {
		return leafOf(dist)
	}

	defer g.release(g.mark())
	var best *split
	var childHints []*Skeleton
	if hint != nil {
		if best = g.evalHint(hint, rows, weights); best != nil {
			childHints = hint.Children
		}
	}
	searched := best == nil
	if searched {
		inherited := n.lists >= 0
		if !inherited {
			n.lists = g.sortLists(rows)
		}
		if g.searched != nil {
			g.searched(rows, g.heads[n.lists:n.lists+len(g.numeric)], inherited)
		}
		best = g.bestSplit(rows, weights, n.lists)
		if best == nil {
			return leafOf(dist)
		}
		// §5.4 pre-pruning: reject the split when no partition would contain at
		// least minInst instances of one class ("This number can be used in a
		// pre-pruning strategy to prevent a training instance set from being
		// further partitioned when there is not at least one subset with
		// minInst instances of one class").
		if g.opts.MinInst > 0 && !best.hasClassWithAtLeast(g.opts.MinInst) {
			return leafOf(dist)
		}
	}

	node := &Node{Attr: best.attr, IsNumeric: best.isNumeric, Thresh: best.thresh, Dist: dist}
	childSets, recv := best.partition(g, rows, weights)
	if searched {
		// The children of a searched node have no hints, so each one that
		// does not stop searches in turn.
		g.carryLists(n.lists, recv, childSets, attrsLeft-1)
	}
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
		node.Children[i] = g.grow(cs, attrsLeft-1, ch)
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
			return leafOf(dist)
		}
	}
	return node
}

func leafOf(dist mlcore.Distribution) *Node { return &Node{Attr: -1, Dist: dist} }

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

// split describes a candidate split and its quality. The grower owns one
// per base column, and each search of the column overwrites it.
type split struct {
	attr      int
	isNumeric bool
	thresh    float64
	gain      float64
	gainRatio float64
	// branch class histograms over known-valued instances (used by the
	// minInst pre-pruning check), rows of hist.
	branches [][]float64
	hist     []float64
	// sizes holds the branch weights and then the missing weight, for the
	// split information.
	sizes []float64
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
// plain gain for ID3), or nil if no admissible split exists. lists
// indexes the node's key lists in heads.
func (g *grower) bestSplit(rows []int, weights []float64, lists int) *split {
	candidates := g.candidates[:0]
	for _, attr := range g.ins.Base {
		var s *split
		if j := g.list[attr]; j >= 0 {
			s = g.numericSplit(attr, rows, weights, g.heads[lists+j])
		} else {
			s = g.nominalSplit(attr, rows, weights)
		}
		if s != nil && s.gain > 1e-10 {
			candidates = append(candidates, s)
		}
	}
	g.candidates = candidates
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

// nominalSplit evaluates the multiway split on a nominal attribute. It
// reads the column's code vector, and sums in row order.
func (g *grower) nominalSplit(attr int, rows []int, weights []float64) *split {
	s := &g.splits[g.slot[attr]]
	codes := g.ranks.Codes(attr)
	k, nv, hist := g.ins.K, len(s.branches), s.hist
	clear(hist)
	parent := g.parent
	clear(parent)
	sizes := s.sizes[:nv]
	clear(sizes)
	knownW, missingW := 0.0, 0.0
	for i, r := range rows {
		v, w := codes[r], weights[i]
		if v < 0 {
			missingW += w
			continue
		}
		c := g.ins.Class[r]
		hist[int(v)*k+c] += w
		parent[c] += w
		sizes[v] += w
		knownW += w
	}
	if knownW <= 0 {
		return nil
	}
	// At least two branches must carry minLeaf weight.
	populated := 0
	for _, sz := range sizes {
		if sz >= minLeaf {
			populated++
		}
	}
	if populated < 2 {
		return nil
	}
	s.gain = stats.InfoGain(parent, s.branches) * knownW / (knownW + missingW)
	if missingW > 0 {
		sizes = append(sizes, missingW)
	}
	s.gainRatio = stats.GainRatio(s.gain, sizes)
	return s
}

// numericSplit finds the best binary threshold on a numeric attribute.
// keys is the node's key list for the column: rank<<32 | position for each
// known row, ascending, so rows of equal value keep their position order —
// row order, as every node's rows ascend. The parent histogram and the
// missing weight sum in row order, the known weight and the scan in key
// order. A threshold lies midway between two adjacent distinct values of
// the node, never next to a NaN: NaN ranks last, and NaN <= t is false for
// every threshold t, so partition and PredictInto send a NaN row right.
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
func (g *grower) numericSplit(attr int, rows []int, weights []float64, keys []uint64) *split {
	rt := g.ranks.Column(attr)
	parent := g.parent
	clear(parent)
	missingW := 0.0
	for i, r := range rows {
		if rt.Rank[r] < 0 {
			missingW += weights[i]
			continue
		}
		parent[g.ins.Class[r]] += weights[i]
	}
	if len(keys) < 2 {
		return nil
	}
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
		if next == rt.NaN {
			continue // and never lies next to a NaN
		}
		if leftW < minLeaf || knownW-leftW < minLeaf {
			continue
		}
		if scored && pure >= 0 && interiorCut(keys, cls, wts, j, pure, leftW, knownW, rt.NaN) {
			continue
		}
		scored = true
		gain := stats.BinaryInfoGain(parentH, parentTotal, left, right)
		if gain > bestGain {
			bestGain = gain
			bestThresh = (rt.Values[rank] + rt.Values[next]) / 2
			copy(g.bestLeft, left)
			copy(g.bestRight, right)
		}
	}
	if bestGain < 0 {
		return nil
	}
	s := &g.splits[g.slot[attr]]
	copy(s.branches[0], g.bestLeft)
	copy(s.branches[1], g.bestRight)
	s.thresh = bestThresh
	s.gain = bestGain * knownW / (knownW + missingW)
	leftSize, rightSize := 0.0, 0.0
	for _, c := range g.bestLeft {
		leftSize += c
	}
	for _, c := range g.bestRight {
		rightSize += c
	}
	s.setGainRatio(leftSize, rightSize, missingW)
	return s
}

// setGainRatio sets a binary split's gain ratio from its branch and
// missing weights.
func (s *split) setGainRatio(leftW, rightW, missingW float64) {
	sizes := s.sizes[:2]
	sizes[0], sizes[1] = leftW, rightW
	if missingW > 0 {
		sizes = append(sizes, missingW)
	}
	s.gainRatio = stats.GainRatio(s.gain, sizes)
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

// partition distributes the instances over the split's branches; instances
// with a missing split value go to every branch with weight scaled by the
// branch's share of the known weight — C4.5's fractional instances
// ("this approach requires the possibility to 'distribute' a training
// instance over several branches of an inner node", §5.1.2). A counting
// pass sizes every branch first, so each child's rows and weights are
// taken once, at their final size, from the grower's stacks; it also
// records where each row lands, for carryLists. The scatter pass fills
// the children and sums each child's distribution in its row order. recv
// lists the branches that receive the missing rows.
func (s *split) partition(g *grower, rows []int, weights []float64) (sets []instSet, recv []int) {
	nb := len(s.branches)
	shares := slices.Grow(g.shares[:0], nb)[:nb]
	clear(shares)
	g.shares = shares
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
	recv = g.recv[:0]
	for b, sh := range shares {
		if sh > 0 {
			recv = append(recv, b)
		}
	}
	g.recv = recv
	branch := slices.Grow(g.branch[:0], len(rows))[:len(rows)]
	pos := slices.Grow(g.pos[:0], len(rows))[:len(rows)]
	before := g.before[:0]
	sizes := slices.Grow(g.sizes[:0], nb)[:nb]
	clear(sizes)
	g.sizes = sizes
	// A nominal split reads the column's codes, a numeric one its cells:
	// a hinted numeric split must not build a rank table.
	var codes []int32
	var cells []dataset.Value
	if s.isNumeric {
		cells = g.ins.Table.Column(s.attr)
	} else {
		codes = g.ranks.Codes(s.attr)
	}
	missing := 0
	for i, r := range rows {
		b := -1
		switch {
		case !s.isNumeric:
			b = int(codes[r])
		case cells[r].IsNull():
		case cells[r].Float() <= s.thresh:
			b = 0
		default:
			b = 1
		}
		if b < 0 {
			branch[i], pos[i] = -1, missing
			for _, b := range recv {
				before = append(before, sizes[b])
			}
			missing++
			continue
		}
		// A known row follows every missing row before it in a child
		// that receives them.
		branch[i], pos[i] = b, sizes[b]
		if shares[b] > 0 {
			pos[i] += missing
		}
		sizes[b]++
	}
	g.branch, g.pos, g.before = branch, pos, before
	sets = g.sets.alloc(nb)
	for b := range sets {
		if shares[b] > 0 {
			sizes[b] += missing
		}
		sets[b] = instSet{lists: -1}
		if sizes[b] > 0 {
			sets[b].rows, sets[b].weights = g.rows.alloc(sizes[b])[:0], g.weights.alloc(sizes[b])[:0]
			sets[b].dist = mlcore.NewDistribution(g.ins.K)
		}
	}
	for i, r := range rows {
		c := g.ins.Class[r]
		if b := branch[i]; b >= 0 {
			sets[b].rows = append(sets[b].rows, r)
			sets[b].weights = append(sets[b].weights, weights[i])
			sets[b].dist.Add(c, weights[i])
			continue
		}
		for _, b := range recv {
			w := weights[i] * shares[b]
			sets[b].rows = append(sets[b].rows, r)
			sets[b].weights = append(sets[b].weights, w)
			sets[b].dist.Add(c, w)
		}
	}
	return sets, recv
}

// carryLists hands the searched node's key lists down to each child that
// will search, in one pass over each list (SPRINT's attribute-list split:
// Shafer, Agrawal & Mehta, VLDB 1996). A known row's key goes to its
// branch, a missing row's to every receiving branch, each with the row's
// position in that child. Positions in a child ascend with the parent's,
// so every child list comes out in (rank, position) order, sorted.
func (g *grower) carryLists(lists int, recv []int, sets []instSet, attrsLeft int) {
	nl := len(g.numeric)
	carries := slices.Grow(g.carries[:0], len(sets))[:len(sets)]
	outs := slices.Grow(g.outs[:0], len(sets))[:len(sets)]
	g.carries, g.outs = carries, outs
	carried := false
	for b := range sets {
		carries[b] = len(sets[b].rows) > 0 && !stops(sets[b].dist, attrsLeft)
		if carries[b] {
			sets[b].lists = len(g.heads)
			g.heads = slices.Grow(g.heads, nl)[:len(g.heads)+nl]
			carried = true
		}
	}
	if !carried {
		return
	}
	nr := len(recv)
	for j := 0; j < nl; j++ {
		for b := range sets {
			if carries[b] {
				outs[b] = g.keys.alloc(len(sets[b].rows))[:0]
			}
		}
		for _, key := range g.heads[lists+j] {
			i, rank := uint32(key), key&^math.MaxUint32
			if b := g.branch[i]; b >= 0 {
				if carries[b] {
					outs[b] = append(outs[b], rank|uint64(g.pos[i]))
				}
				continue
			}
			m := g.pos[i]
			for k, b := range recv {
				if carries[b] {
					outs[b] = append(outs[b], rank|uint64(g.before[m*nr+k]+m))
				}
			}
		}
		for b := range sets {
			if carries[b] {
				g.heads[sets[b].lists+j] = outs[b]
			}
		}
	}
}
