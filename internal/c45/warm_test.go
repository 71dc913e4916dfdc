package c45_test

import (
	"testing"

	"dataaudit/internal/c45"
	"dataaudit/internal/mlcore/conform"
)

// TestWarmConformanceC45 and TestWarmConformanceID3 hold the
// warm-started tree Update to the IncrementalClassifier contract:
// copy-on-write, deterministic, and prediction-agreeing with a cold
// retrain on the new training set.
func TestWarmConformanceC45(t *testing.T) {
	base, full := conform.Fixture(t, 400, 60, 40, 5)
	conform.Run(t, conform.Config{
		Trainer:  &c45.Trainer{Opts: c45.Options{UseGainRatio: true, Prune: true}},
		MinAgree: 0.9,
	}, base, full)
}

func TestWarmConformanceID3(t *testing.T) {
	base, full := conform.Fixture(t, 400, 60, 40, 6)
	conform.Run(t, conform.Config{
		Trainer:  &c45.Trainer{},
		MinAgree: 0.9,
	}, base, full)
}

// TestWarmStartReusesSkeleton checks the warm path actually follows the
// hint: regrowing on the *same* data with the tree's own skeleton keeps
// the structure identical (every previous split stays admissible).
func TestWarmStartReusesSkeleton(t *testing.T) {
	base, _ := conform.Fixture(t, 400, 0, 1, 7)
	tr := &c45.Trainer{Opts: c45.Options{UseGainRatio: true}}
	cold, err := tr.TrainTree(base)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := tr.TrainTreeWarm(base, cold.Skeleton())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Size() != warm.Size() || cold.Leaves() != warm.Leaves() || cold.Depth() != warm.Depth() {
		t.Fatalf("warm regrow on identical data changed the structure: cold size=%d/leaves=%d/depth=%d, warm %d/%d/%d",
			cold.Size(), cold.Leaves(), cold.Depth(), warm.Size(), warm.Leaves(), warm.Depth())
	}
}

// TestReleasedStacksPoisoned reruns the presorted-list and warm-start
// checks with every released stack region overwritten — rows with -1,
// weights with NaN, keys with all ones — so that a node that reads rows,
// weights or keys a finished subtree has released fails them.
func TestReleasedStacksPoisoned(t *testing.T) {
	c45.SetPoisonReleased(true)
	defer c45.SetPoisonReleased(false)
	t.Run("PresortedListsMatchNodeSort", c45.PresortedListsMatchNodeSort)
	t.Run("WarmStartReusesSkeleton", TestWarmStartReusesSkeleton)
}
