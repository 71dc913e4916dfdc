package c45

import (
	"math/rand"
	"runtime"
	"testing"

	"dataaudit/internal/dataset"
)

// Per node, induction allocates its output only: the Node, the counts of
// its children's distributions and its Children slice (an empty branch
// clones its parent's counts). The per-tree constant covers the grower's
// buffers, the stacks' chunks, the rank tables and code vectors of a
// tree given no cache, and the root's rows.
const (
	allocsPerNode = 3
	allocsPerTree = 150
)

// splitKinds counts a tree's numeric and nominal splits.
func splitKinds(n *Node) (numeric, nominal int) {
	if n.IsLeaf() {
		return 0, 0
	}
	if n.IsNumeric {
		numeric++
	} else {
		nominal++
	}
	for _, ch := range n.Children {
		a, b := splitKinds(ch)
		numeric, nominal = numeric+a, nominal+b
	}
	return numeric, nominal
}

// TestTrainTreeAllocationsPerNode: one TrainTree, cold and as a warm
// regrow whose hints partly fail, allocates at most a small constant per
// node of the tree it returns plus a per-tree constant, however many base
// attributes each node searches.
func TestTrainTreeAllocationsPerNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(49))
	tab := presortTable(rng, 3000)
	// Nulls in every base column, whatever presortTable drew.
	for r := 0; r < tab.NumRows(); r += 13 {
		tab.Set(r, r%4, dataset.Null())
	}
	tr := &Trainer{Opts: Options{UseGainRatio: true}}
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	cold, err := tr.TrainTree(ins)
	if err != nil {
		t.Fatal(err)
	}
	if numeric, nominal := splitKinds(cold.Root); numeric < 5 || nominal < 5 || cold.Size() < 50 {
		t.Fatalf("the cold tree has %d numeric and %d nominal splits in %d nodes; the fixture is too thin", numeric, nominal, cold.Size())
	}
	check := func(kind string, size int, allocs float64) {
		t.Helper()
		if bound := float64(allocsPerNode*size + allocsPerTree); allocs > bound {
			t.Errorf("%s TrainTree of a %d-node tree allocates %.0f times, over %.0f", kind, size, allocs, bound)
		}
	}
	check("cold", cold.Size(), testing.AllocsPerRun(5, func() {
		if _, err := tr.TrainTree(ins); err != nil {
			t.Fatal(err)
		}
	}))

	// Relabel some rows: some hints hold, others fail and search.
	relabelled := tab.Clone()
	for r := 0; r < relabelled.NumRows(); r += 7 {
		relabelled.Set(r, 4, dataset.Nom(rng.Intn(3)))
	}
	warmIns, hint := buildInstances(t, relabelled, []int{0, 1, 2, 3}), cold.Skeleton()
	warm, err := tr.TrainTreeWarm(warmIns, hint)
	if err != nil {
		t.Fatal(err)
	}
	check("warm", warm.Size(), testing.AllocsPerRun(5, func() {
		if _, err := tr.TrainTreeWarm(warmIns, hint); err != nil {
			t.Fatal(err)
		}
	}))
}
