package c45

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// xorSchema: class = f(a, b) with a noise attribute.
func treeSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("a", "a0", "a1"),
		dataset.NewNominal("b", "b0", "b1"),
		dataset.NewNominal("noise", "n0", "n1", "n2"),
		dataset.NewNumeric("x", 0, 100),
		dataset.NewNominal("class", "c0", "c1"),
	)
}

// buildInstances builds Instances with the last column as class.
func buildInstances(t testing.TB, tab *dataset.Table, base []int) *mlcore.Instances {
	t.Helper()
	classCol := tab.NumCols() - 1
	k := tab.Schema().Attr(classCol).NumValues()
	return mlcore.NewInstances(tab, base, k, func(r int) int {
		v := tab.Get(r, classCol)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
}

// conjTable: class = a AND b (learnable greedily, unlike XOR whose inputs
// have zero marginal information gain), noise/numeric attributes random.
func conjTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	s := treeSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		cls := 0
		if a == 1 && b == 1 {
			cls = 1
		}
		tab.AppendRow([]dataset.Value{
			dataset.Nom(a), dataset.Nom(b), dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(rng.Intn(101))), dataset.Nom(cls),
		})
	}
	return tab
}

func TestLearnsConjunction(t *testing.T) {
	tab := conjTable(t, 400, 1)
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	tr := &Trainer{Opts: Options{UseGainRatio: true, Prune: true}}
	tree, err := tr.TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Every training record must classify correctly (the target is
	// noise-free and greedily learnable).
	correct := 0
	for r := 0; r < tab.NumRows(); r++ {
		var d mlcore.Distribution
		tree.PredictInto(tab.Row(r), &d)
		best, _ := d.Best()
		if best == tab.Get(r, 4).NomIdx() {
			correct++
		}
	}
	if acc := float64(correct) / float64(tab.NumRows()); acc < 0.99 {
		t.Fatalf("conjunction training accuracy = %g", acc)
	}
}

func TestLearnsNumericThreshold(t *testing.T) {
	s := treeSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 100
		cls := 0
		if x > 42 {
			cls = 1
		}
		tab.AppendRow([]dataset.Value{
			dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(x), dataset.Nom(cls),
		})
	}
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() || !tree.Root.IsNumeric || tree.Root.Attr != 3 {
		t.Fatalf("root should split numerically on x, got %+v", tree.Root)
	}
	if math.Abs(tree.Root.Thresh-42) > 3 {
		t.Fatalf("threshold = %g, want ~42", tree.Root.Thresh)
	}
	// Probe predictions around the boundary.
	probe := func(x float64) int {
		var d mlcore.Distribution
		tree.PredictInto([]dataset.Value{dataset.Nom(0), dataset.Nom(0), dataset.Nom(0), dataset.Num(x), dataset.Null()}, &d)
		best, _ := d.Best()
		return best
	}
	if probe(10) != 0 || probe(90) != 1 {
		t.Fatalf("boundary predictions wrong: f(10)=%d f(90)=%d", probe(10), probe(90))
	}
}

func TestGainRatioAvoidsManyValuedBias(t *testing.T) {
	// §5.1.2: "The ID3 information gain measure systematically favors
	// attributes with many values over those with fewer values."
	// Construction: a 20-valued code attribute whose parity determines the
	// class exactly (gain 1.0, but split info log2(20) ≈ 4.3), a binary
	// attribute agreeing with the class on 92.5% of records (gain ≈ 0.62,
	// split info 1.0), and a junk attribute diluting the mean-gain filter.
	codes := make([]string, 20)
	for i := range codes {
		codes[i] = fmt.Sprintf("v%02d", i)
	}
	s := dataset.MustSchema(
		dataset.NewNominal("code", codes...),
		dataset.NewNominal("bin", "s0", "s1"),
		dataset.NewNominal("junk", "j0", "j1", "j2"),
		dataset.NewNominal("class", "c0", "c1"),
	)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(3))
	flipped := 0
	for i := 0; i < 400; i++ {
		code := i % 20
		cls := code % 2
		bin := cls
		// Flip bin for exactly 30 records (15 per class).
		if flipped < 30 && i%13 == 0 {
			bin = 1 - bin
			flipped++
		}
		tab.AppendRow([]dataset.Value{
			dataset.Nom(code), dataset.Nom(bin), dataset.Nom(rng.Intn(3)), dataset.Nom(cls),
		})
	}
	ins := buildInstances(t, tab, []int{0, 1, 2})

	id3Tree, err := (&Trainer{Opts: Options{UseGainRatio: false}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	c45Tree, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if id3Tree.Root.Attr != 0 {
		t.Fatalf("ID3 should greedily split on the many-valued code attribute, got %d", id3Tree.Root.Attr)
	}
	if c45Tree.Root.Attr != 1 {
		t.Fatalf("C4.5 should split on the binary attribute, got %d", c45Tree.Root.Attr)
	}
}

func TestMissingValuesFractionalWeights(t *testing.T) {
	s := treeSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		a := rng.Intn(2)
		av := dataset.Nom(a)
		if rng.Float64() < 0.2 {
			av = dataset.Null() // 20% missing on the split attribute
		}
		tab.AppendRow([]dataset.Value{
			av, dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(50), dataset.Nom(a),
		})
	}
	ins := buildInstances(t, tab, []int{0, 1, 2})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() || tree.Root.Attr != 0 {
		t.Fatalf("tree should split on attribute a despite missing values")
	}
	// Children distributions must sum to the parent's (fractional weights
	// conserve mass).
	var childTotal float64
	for _, ch := range tree.Root.Children {
		childTotal += ch.Dist.N()
	}
	if math.Abs(childTotal-tree.Root.Dist.N()) > 1e-6 {
		t.Fatalf("mass not conserved: children %g vs parent %g", childTotal, tree.Root.Dist.N())
	}
	// Prediction with a missing split value returns the node aggregate.
	var d mlcore.Distribution
	tree.PredictInto([]dataset.Value{dataset.Null(), dataset.Nom(0), dataset.Nom(0), dataset.Num(1), dataset.Null()}, &d)
	if math.Abs(d.N()-tree.Root.Dist.N()) > 1e-6 {
		t.Fatalf("missing-value prediction should carry the node's support")
	}
}

func TestNullClassRowsAreDropped(t *testing.T) {
	tab := conjTable(t, 100, 5)
	// Null out half the class labels.
	for r := 0; r < 50; r++ {
		tab.Set(r, 4, dataset.Null())
	}
	ins := buildInstances(t, tab, []int{0, 1})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree.Root.Dist.N()-50) > 1e-9 {
		t.Fatalf("root support = %g, want 50 (null-class rows dropped)", tree.Root.Dist.N())
	}
}

func TestAllNullClassFails(t *testing.T) {
	tab := conjTable(t, 10, 6)
	for r := 0; r < 10; r++ {
		tab.Set(r, 4, dataset.Null())
	}
	ins := buildInstances(t, tab, []int{0, 1})
	if _, err := (&Trainer{Opts: Options{}}).TrainTree(ins); err == nil {
		t.Fatalf("training on all-null classes must fail")
	}
}

func TestPruningShrinksNoiseTree(t *testing.T) {
	// Class is 90/10 random noise; an unpruned tree fragments on the noise
	// attributes, the pruned tree should collapse (the paper's motivation
	// for pruning).
	s := treeSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		cls := 0
		if rng.Float64() < 0.1 {
			cls = 1
		}
		tab.AppendRow([]dataset.Value{
			dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(rng.Intn(101))), dataset.Nom(cls),
		})
	}
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	unpruned, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := (&Trainer{Opts: Options{UseGainRatio: true, Prune: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Size() >= unpruned.Size() {
		t.Fatalf("pruning did not shrink the tree: %d >= %d", pruned.Size(), unpruned.Size())
	}
}

func TestMinInstPrePruning(t *testing.T) {
	tab := conjTable(t, 100, 8)
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	// minInst larger than the data: everything collapses to a single leaf
	// (§5.4 pre-pruning).
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true, MinInst: 1000}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Fatalf("minInst=1000 on 100 records must yield a single leaf")
	}
	// Reasonable minInst keeps the structure.
	tree2, err := (&Trainer{Opts: Options{UseGainRatio: true, MinInst: 5}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Root.IsLeaf() {
		t.Fatalf("minInst=5 should not kill the XOR structure")
	}
}

func TestExpErrConfPruneKeepsFunctionalDependency(t *testing.T) {
	// class == a (functional): pure children under a mixed parent, both
	// sides of Def. 9 are zero — the split must survive (strict
	// inequality).
	s := treeSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		a := rng.Intn(2)
		tab.AppendRow([]dataset.Value{
			dataset.Nom(a), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(50), dataset.Nom(a),
		})
	}
	ins := buildInstances(t, tab, []int{0, 1, 2})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true, ExpErrConfPrune: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatalf("expErrConf pruning must not collapse a functional dependency")
	}
}

func TestExpErrConfPruneCollapsesNoise(t *testing.T) {
	// Class is skewed noise: splitting cannot increase error-detection
	// capability, so the integrated pruning should give a much smaller tree
	// than unpruned growth.
	s := treeSchema(t)
	tab := dataset.NewTable(s)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 800; i++ {
		cls := 0
		if rng.Float64() < 0.05 {
			cls = 1
		}
		tab.AppendRow([]dataset.Value{
			dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(rng.Intn(101))), dataset.Nom(cls),
		})
	}
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	plain, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	adjusted, err := (&Trainer{Opts: Options{UseGainRatio: true, ExpErrConfPrune: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if adjusted.Size() >= plain.Size() {
		t.Fatalf("expErrConf pruning should shrink a noise tree: %d >= %d", adjusted.Size(), plain.Size())
	}
}

func TestPredictionDistributionIsNormalized(t *testing.T) {
	tab := conjTable(t, 300, 11)
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true, Prune: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		rowVals := []dataset.Value{
			dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(rng.Intn(101))), dataset.Null(),
		}
		if rng.Float64() < 0.3 {
			rowVals[rng.Intn(4)] = dataset.Null()
		}
		var d mlcore.Distribution
		tree.PredictInto(rowVals, &d)
		sum := 0.0
		for c := 0; c < d.K(); c++ {
			p := d.P(c)
			if p < 0 || p > 1 {
				t.Fatalf("P out of range: %g", p)
			}
			sum += p
		}
		if d.N() > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %g", sum)
		}
		if d.N() < 0 {
			t.Fatalf("negative support")
		}
	}
}

func TestTreeMetricsAndRender(t *testing.T) {
	tab := conjTable(t, 200, 13)
	ins := buildInstances(t, tab, []int{0, 1})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() < 3 || tree.Leaves() < 2 || tree.Depth() < 1 {
		t.Fatalf("metrics: size=%d leaves=%d depth=%d", tree.Size(), tree.Leaves(), tree.Depth())
	}
	if tree.Leaves() >= tree.Size() {
		t.Fatalf("leaves must be fewer than nodes")
	}
}

func TestPessimisticErrorMonotoneInN(t *testing.T) {
	// Same observed error rate, more data -> smaller pessimistic error.
	small := mlcore.NewDistribution(2)
	small.Add(0, 9)
	small.Add(1, 1)
	big := mlcore.NewDistribution(2)
	big.Add(0, 900)
	big.Add(1, 100)
	if pessErrorLeaf(small) <= pessErrorLeaf(big) {
		t.Fatalf("pessimistic error must shrink with sample size")
	}
	if pe := pessErrorLeaf(big); pe <= 0.1 {
		t.Fatalf("pessimistic error must exceed the observed rate, got %g", pe)
	}
}

func TestExpErrorConfDefinition(t *testing.T) {
	// Hand-check Def. 9 on a small leaf.
	d := mlcore.NewDistribution(3)
	d.Add(0, 90)
	d.Add(1, 10)
	conf := 0.95
	want := (10.0 / 100.0) * stats.ErrorConfidence(0.9, 0.1, 100, conf)
	if got := ExpErrorConfLeaf(d, conf, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpErrorConfLeaf = %g, want %g", got, want)
	}
	// Pure leaf: zero.
	pure := mlcore.NewDistribution(2)
	pure.Add(1, 50)
	if ExpErrorConfLeaf(pure, conf, 0) != 0 {
		t.Fatalf("pure leaf must have zero expected error confidence")
	}
	// Clipping: a threshold above the achievable confidence zeroes the
	// contribution.
	if ExpErrorConfLeaf(d, conf, 0.99) != 0 {
		t.Fatalf("clipped expected error confidence must be zero")
	}
}

func TestEmptyBranchFallsBackToParent(t *testing.T) {
	// Value b1 never occurs in training for one branch; predictions for it
	// must answer with the parent's evidence.
	s := dataset.MustSchema(
		dataset.NewNominal("f", "f0", "f1", "f2"),
		dataset.NewNominal("class", "c0", "c1"),
	)
	tab := dataset.NewTable(s)
	for i := 0; i < 100; i++ {
		f := i % 2 // f2 never occurs
		tab.AppendRow([]dataset.Value{dataset.Nom(f), dataset.Nom(f)})
	}
	ins := buildInstances(t, tab, []int{0})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatalf("expected a split on f")
	}
	var d mlcore.Distribution
	tree.PredictInto([]dataset.Value{dataset.Nom(2), dataset.Null()}, &d)
	if d.N() != tree.Root.Dist.N() {
		t.Fatalf("unseen branch should answer with parent evidence (n=%g, want %g)", d.N(), tree.Root.Dist.N())
	}
}

// TestPredictIntoDoesNotAlias: PredictInto hands back a copy of the
// answering node's distribution, so overwriting the answer leaves the
// tree, and the next answer for the same row, unchanged.
func TestPredictIntoDoesNotAlias(t *testing.T) {
	tab := conjTable(t, 400, 61)
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	tree, err := (&Trainer{Opts: Options{UseGainRatio: true, Prune: true}}).TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	var d, again mlcore.Distribution
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 500; i++ {
		row := []dataset.Value{
			dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(rng.Intn(101))), dataset.Null(),
		}
		if rng.Intn(4) == 0 {
			row[rng.Intn(4)] = dataset.Null()
		}
		tree.PredictInto(row, &d)
		want := d.Clone()
		for c := range d.Counts {
			d.Counts[c] = -1
		}
		tree.PredictInto(row, &again)
		if want.Total != again.Total || !slices.Equal(want.Counts, again.Counts) {
			t.Fatalf("row %v: PredictInto aliases the tree's distribution: %+v after overwrite, want %+v", row, again, want)
		}
	}
}
