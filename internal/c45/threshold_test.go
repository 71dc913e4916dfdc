package c45

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// oracleNumericSplit is the threshold search as it was before the rank
// table: collect the node's known rows, sort them by value, and scan with
// stats.InfoGain. The sort is stable, so rows of equal value keep their
// position order — the (value, position) order numericSplit defines. NaN
// rows sort after every number, as the rank table ranks them, and no cut
// lies before one.
func oracleNumericSplit(g *grower, attr int, rows []int, weights []float64) *split {
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
	// < alone is no strict weak order once a NaN appears.
	sort.SliceStable(known, func(i, j int) bool {
		a, b := known[i].v, known[j].v
		return a < b || !math.IsNaN(a) && math.IsNaN(b)
	})
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
		if known[i].v == known[i+1].v || math.IsNaN(known[i+1].v) {
			continue
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

// requireSameSplit fails unless both splits are nil or agree bit for bit.
func requireSameSplit(t *testing.T, trial int, got, want *split) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("trial %d: split %+v, want %+v", trial, got, want)
	}
	if got == nil {
		return
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.attr != want.attr || got.isNumeric != want.isNumeric || !same(got.thresh, want.thresh) ||
		!same(got.gain, want.gain) || !same(got.gainRatio, want.gainRatio) || len(got.branches) != len(want.branches) {
		t.Fatalf("trial %d: split %+v, want %+v", trial, got, want)
	}
	for b := range want.branches {
		if !slices.EqualFunc(got.branches[b], want.branches[b], same) {
			t.Fatalf("trial %d: branch %d histogram %v, want %v", trial, b, got.branches[b], want.branches[b])
		}
	}
}

// randomThresholdTable draws a one-numeric-column table over a small pool
// of values — heavy ties, both zeros, NaN, huge magnitudes — with nulls,
// and a class per row from k classes (a single one on some trials).
func randomThresholdTable(rng *rand.Rand, n, k int) (*dataset.Table, []int) {
	pool := []float64{-1e308, -2.5, math.Copysign(0, -1), 0, math.NaN(), 0.1, 0.2, 0.3, 1, 7, 7.5, 1e308}
	pool = pool[rng.Intn(len(pool)):]
	if len(pool) > 1 {
		pool = pool[:1+rng.Intn(len(pool))]
	}
	nullP := rng.Float64() * 0.3
	singleClass := rng.Intn(5) == 0
	tab := dataset.NewTable(dataset.MustSchema(dataset.NewNumeric("x", -1e308, 1e308)))
	class := make([]int, n)
	for r := 0; r < n; r++ {
		v := dataset.Num(pool[rng.Intn(len(pool))])
		if rng.Float64() < nullP {
			v = dataset.Null()
		}
		tab.AppendRow([]dataset.Value{v})
		if !singleClass {
			class[r] = rng.Intn(k)
		}
	}
	return tab, class
}

// randomNode picks a node's rows from the table — ascending as partition
// leaves them, or shuffled to exercise position order on its own — and
// weights: whole, or the fractions a missing-value split hands down,
// with totals that land on the minLeaf edges.
func randomNode(rng *rand.Rand, n int) ([]int, []float64) {
	var rows []int
	keep := rng.Float64()
	for r := 0; r < n; r++ {
		if rng.Float64() < keep {
			rows = append(rows, r)
		}
	}
	if rng.Intn(4) == 0 {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	shares := []float64{1, 1, 0.5, 1.5, 7.0 / 13, 6.0 / 13, 1.0 / 3, 0.1}
	fractional := rng.Intn(2) == 0
	weights := make([]float64, len(rows))
	for i := range weights {
		weights[i] = 1
		if fractional {
			weights[i] = shares[rng.Intn(len(shares))]
		}
	}
	return rows, weights
}

// TestNumericSplitMatchesSortOracle: the rank-keyed threshold search
// returns the same attribute, threshold, gain, gain ratio and branch
// histograms, bit for bit, as the collect + stable sort + InfoGain scan,
// on random nodes of one grower (so its buffers and rank table are reused
// across searches).
func TestNumericSplitMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	found := 0
	for trial := 0; trial < 3000; trial++ {
		n, k := rng.Intn(40), 1+rng.Intn(4)
		if rng.Intn(4) == 0 {
			n = 200 + rng.Intn(200)
		}
		tab, class := randomThresholdTable(rng, n, k)
		ins := mlcore.NewInstances(tab, []int{0}, k, func(r int) int { return class[r] })
		g := newGrower(ins, Options{})
		for node := 0; node < 4; node++ {
			rows, weights := randomNode(rng, n)
			got := g.numericSplit(0, rows, weights, g.appendSortedKeys(nil, 0, rows))
			requireSameSplit(t, trial, got, oracleNumericSplit(g, 0, rows, weights))
			if got != nil {
				found++
			}
		}
	}
	if found < 1000 {
		t.Fatalf("only %d of 12000 searches found a threshold; the inputs are too thin", found)
	}
}

// fullScanNumericSplit is numericSplit before boundary points: the same
// rank-keyed sort and scan, scoring every admissible cut.
func fullScanNumericSplit(g *grower, attr int, rows []int, weights []float64) *split {
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
	keys := g.appendSortedKeys(nil, attr, rows)
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
	for j := 0; j < len(keys)-1; j++ {
		left[cls[j]] += wts[j]
		right[cls[j]] -= wts[j]
		leftW += wts[j]
		rank, next := keys[j]>>32, keys[j+1]>>32
		if rank == next || next == rt.NaN {
			continue // threshold must separate distinct numbers
		}
		if leftW < minLeaf || knownW-leftW < minLeaf {
			continue
		}
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

// stepTable draws a one-numeric-column table over up to 200 distinct
// values whose class is a noisy step function of the value, so long
// single-class runs of value groups occur, with nulls and NaN cells.
func stepTable(rng *rand.Rand, n, k int) (*dataset.Table, []int) {
	distinct := 1 + rng.Intn(200)
	steps := make([]int, 1+rng.Intn(6))
	for i := range steps {
		steps[i] = rng.Intn(distinct)
	}
	slices.Sort(steps)
	noise := []float64{0, 0, 0.02, 0.1, 0.3}[rng.Intn(5)]
	nullP, nanP := rng.Float64()*0.2, []float64{0, 0, 0.05, 0.3}[rng.Intn(4)]
	tab := dataset.NewTable(dataset.MustSchema(dataset.NewNumeric("x", -1e308, 1e308)))
	class := make([]int, n)
	for r := 0; r < n; r++ {
		d := rng.Intn(distinct)
		v := dataset.Num(float64(d) / 4)
		switch p := rng.Float64(); {
		case p < nullP:
			v = dataset.Null()
		case p < nullP+nanP:
			v = dataset.Num(math.NaN())
		}
		tab.AppendRow([]dataset.Value{v})
		step, _ := slices.BinarySearch(steps, d)
		class[r] = step % k
		if rng.Float64() < noise {
			class[r] = rng.Intn(k)
		}
	}
	return tab, class
}

// TestNumericSplitBoundaryMatchesFullScan: scoring only boundary points and
// the two ends of the admissible interval gives the split of the scan that
// scores every cut, bit for bit, on random nodes of reused growers.
func TestNumericSplitBoundaryMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	found := 0
	const trials, nodes = 10000, 4
	for trial := 0; trial < trials; trial++ {
		n, k := rng.Intn(60), 1+rng.Intn(4)
		if rng.Intn(3) == 0 {
			n = 100 + rng.Intn(300)
		}
		tab, class := stepTable(rng, n, k)
		ins := mlcore.NewInstances(tab, []int{0}, k, func(r int) int { return class[r] })
		g := newGrower(ins, Options{})
		for node := 0; node < nodes; node++ {
			rows, weights := randomNode(rng, n)
			got := g.numericSplit(0, rows, weights, g.appendSortedKeys(nil, 0, rows))
			requireSameSplit(t, trial, got, fullScanNumericSplit(g, 0, rows, weights))
			if got != nil {
				found++
			}
		}
	}
	if found < trials*nodes/2 {
		t.Fatalf("only %d of %d searches found a threshold; the inputs are too thin", found, trials*nodes)
	}
}

// nanTable draws a table whose numeric columns hold NaN cells among
// numbers and nulls; the class follows the first column's numbers.
func nanTable(rng *rand.Rand, n int) *dataset.Table {
	s := dataset.MustSchema(
		dataset.NewNumeric("x", 0, 10),
		dataset.NewNumeric("y", 0, 10),
		dataset.NewNominal("class", "c0", "c1", "c2"),
	)
	tab := dataset.NewTable(s)
	cell := func() (dataset.Value, float64) {
		switch p := rng.Float64(); {
		case p < 0.15:
			return dataset.Num(math.NaN()), math.NaN()
		case p < 0.2:
			return dataset.Null(), math.NaN()
		default:
			v := float64(rng.Intn(11))
			return dataset.Num(v), v
		}
	}
	for r := 0; r < n; r++ {
		x, xv := cell()
		y, _ := cell()
		c := rng.Intn(3)
		if xv < 4 && rng.Intn(5) > 0 {
			c = 0
		}
		tab.AppendRow([]dataset.Value{x, y, dataset.Nom(c)})
	}
	return tab
}

func requireNoNaNThresh(t *testing.T, n *Node) {
	t.Helper()
	if n.IsNumeric && math.IsNaN(n.Thresh) {
		t.Fatalf("node on attribute %d has a NaN threshold", n.Attr)
	}
	for _, ch := range n.Children {
		requireNoNaNThresh(t, ch)
	}
}

// TestNumericSplitNaNRule: a NaN cell ranks after every number and never
// forms a threshold, so no tree holds a NaN threshold, and a split's
// branch histograms are exactly what partition then assigns: NaN rows go
// right, as NaN <= t is false. partition sizes every child exactly.
func TestNumericSplitNaNRule(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		tab := nanTable(rng, 200)
		ins := buildInstances(t, tab, []int{0, 1})
		for _, opts := range []Options{{UseGainRatio: true}, {}} {
			tree, err := (&Trainer{Opts: opts}).TrainTree(ins)
			if err != nil {
				t.Fatal(err)
			}
			requireNoNaNThresh(t, tree.Root)
		}

		g := newGrower(ins, Options{})
		rows, weights := randomNode(rng, tab.NumRows())
		for i := range weights {
			weights[i] = 1 // whole weights: the histograms sum exactly in any order
		}
		for _, attr := range ins.Base {
			s := g.numericSplit(attr, rows, weights, g.appendSortedKeys(nil, attr, rows))
			if s == nil {
				continue
			}
			if math.IsNaN(s.thresh) {
				t.Fatalf("trial %d: NaN threshold on attribute %d", trial, attr)
			}
			sets, _ := s.partition(g, rows, weights)
			for b, set := range sets {
				if len(set.rows) != cap(set.rows) || len(set.weights) != cap(set.weights) {
					t.Fatalf("trial %d: branch %d sized %d/%d, holds %d", trial, b, cap(set.rows), cap(set.weights), len(set.rows))
				}
				hist := make([]float64, ins.K)
				for i, r := range set.rows {
					if !tab.Get(r, attr).IsNull() {
						hist[ins.Class[r]] += set.weights[i]
					}
				}
				if !slices.Equal(hist, s.branches[b]) {
					t.Fatalf("trial %d: partition put %v in branch %d, the search counted %v", trial, hist, b, s.branches[b])
				}
			}
		}
	}
}

// TestWarmReinductionBuildsNoRankTable: when every hint holds — the same
// instances re-induced from their own tree's skeleton — no full search
// runs, so no column is ranked, and the tree comes out the same.
func TestWarmReinductionBuildsNoRankTable(t *testing.T) {
	tab := conjTable(t, 400, 3)
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	opts := Options{UseGainRatio: true}.WithDefaults()
	ins.Ranks = mlcore.NewRankCache(tab)
	cold := newGrower(ins, opts)
	root := cold.grow(cold.rootSet(ins.Rows, ins.Weights), len(ins.Base), nil)
	if ins.Ranks.Built() == 0 {
		t.Fatal("the cold search ranked no column; the fixture has no numeric split candidate")
	}
	ins.Ranks = mlcore.NewRankCache(tab)
	warm := newGrower(ins, opts)
	again := warm.grow(warm.rootSet(ins.Rows, ins.Weights), len(ins.Base), skeletonOf(root))
	if n := ins.Ranks.Built(); n != 0 {
		t.Fatalf("warm re-induction ranked %d columns", n)
	}
	if a, b := (&Tree{Root: root}).Size(), (&Tree{Root: again}).Size(); a != b {
		t.Fatalf("warm tree has %d nodes, cold %d", b, a)
	}
}
