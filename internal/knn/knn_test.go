package knn

import (
	"math"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

func knnSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("f1", "x", "y"),
		dataset.NewNumeric("f2", 0, 100),
		dataset.NewNominal("class", "c0", "c1"),
	)
}

func knnInstances(t testing.TB, tab *dataset.Table) *mlcore.Instances {
	t.Helper()
	return mlcore.NewInstances(tab, []int{0, 1}, 2, func(r int) int {
		v := tab.Get(r, 2)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
}

func clustersTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(knnSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		x := 20.0
		if c == 1 {
			x = 80
		}
		x += rng.NormFloat64() * 6
		if x < 0 {
			x = 0
		}
		if x > 100 {
			x = 100
		}
		tab.AppendRow([]dataset.Value{dataset.Nom(c), dataset.Num(x), dataset.Nom(c)})
	}
	return tab
}

func TestKNNLearnsClusters(t *testing.T) {
	tab := clustersTable(t, 600, 41)
	model, err := (&Trainer{Opts: Options{K: 5}}).Train(knnInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	probe := func(f1 int, x float64) int {
		var d mlcore.Distribution
		model.PredictInto([]dataset.Value{dataset.Nom(f1), dataset.Num(x), dataset.Null()}, &d)
		best, _ := d.Best()
		return best
	}
	if probe(0, 15) != 0 || probe(1, 85) != 1 {
		t.Fatalf("cluster predictions wrong")
	}
}

func TestKNNSupportIsNeighbourhood(t *testing.T) {
	tab := clustersTable(t, 100, 42)
	model, err := (&Trainer{Opts: Options{K: 7}}).Train(knnInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	model.PredictInto(tab.Row(0), &d)
	if math.Abs(d.N()-7) > 1e-9 {
		t.Fatalf("support = %g, want 7", d.N())
	}
}

func TestKNNKLargerThanData(t *testing.T) {
	tab := clustersTable(t, 3, 43)
	model, err := (&Trainer{Opts: Options{K: 10}}).Train(knnInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	model.PredictInto(tab.Row(0), &d)
	if math.Abs(d.N()-3) > 1e-9 {
		t.Fatalf("support = %g, want all 3", d.N())
	}
}

func TestKNNNegativeKFails(t *testing.T) {
	tab := clustersTable(t, 10, 46)
	if _, err := (&Trainer{Opts: Options{K: -1}}).Train(knnInstances(t, tab)); err == nil {
		t.Fatalf("a negative neighbourhood size must fail")
	}
}

func TestKNNNullDistance(t *testing.T) {
	// A null query value must push instances away but not crash; identical
	// non-null features dominate.
	tab := clustersTable(t, 200, 44)
	model, err := (&Trainer{Opts: Options{K: 3}}).Train(knnInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	model.PredictInto([]dataset.Value{dataset.Null(), dataset.Num(80), dataset.Null()}, &d)
	best, _ := d.Best()
	if best != 1 {
		t.Fatalf("numeric feature should still identify the cluster, got class %d", best)
	}
}

func TestKNNNoLabelsFails(t *testing.T) {
	tab := clustersTable(t, 10, 45)
	for r := 0; r < 10; r++ {
		tab.Set(r, 2, dataset.Null())
	}
	if _, err := (&Trainer{}).Train(knnInstances(t, tab)); err == nil {
		t.Fatalf("training without labels must fail")
	}
}

// TestPredictIntoReusedBuffer: a buffer that earlier predictions left
// dirty gets the same answer as a fresh one.
func TestPredictIntoReusedBuffer(t *testing.T) {
	tab := clustersTable(t, 400, 47)
	model, err := (&Trainer{Opts: Options{K: 5}}).Train(knnInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 500; i++ {
		row := []dataset.Value{dataset.Nom(rng.Intn(2)), dataset.Num(rng.Float64() * 100), dataset.Null()}
		if rng.Intn(5) == 0 {
			row[0] = dataset.Null()
		}
		if rng.Intn(5) == 0 {
			row[1] = dataset.Null()
		}
		var want mlcore.Distribution
		model.PredictInto(row, &want)
		model.PredictInto(row, &d)
		if want.Total != d.Total || !slicesEqual(want.Counts, d.Counts) {
			t.Fatalf("row %v: fresh buffer %+v, reused buffer %+v", row, want, d)
		}
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
