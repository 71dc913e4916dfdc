package ruleind

import (
	"math/rand"
	"slices"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

func riSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("a", "a0", "a1", "a2"),
		dataset.NewNominal("b", "b0", "b1"),
		dataset.NewNumeric("x", 0, 100),
		dataset.NewNominal("class", "c0", "c1", "c2"),
	)
}

func riInstances(t testing.TB, tab *dataset.Table) *mlcore.Instances {
	t.Helper()
	return mlcore.NewInstances(tab, []int{0, 1, 2}, 3, func(r int) int {
		v := tab.Get(r, 3)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
}

// aDrivenTable: class == a (the 1R-winning attribute), b and x random.
func aDrivenTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(riSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a := rng.Intn(3)
		tab.AppendRow([]dataset.Value{
			dataset.Nom(a), dataset.Nom(rng.Intn(2)), dataset.Num(rng.Float64() * 100), dataset.Nom(a),
		})
	}
	return tab
}

func TestOneRPicksBestAttribute(t *testing.T) {
	tab := aDrivenTable(t, 600, 51)
	model, err := (&OneRTrainer{}).Train(riInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	m := model.(*OneRModel)
	if m.AttrPos != 0 {
		t.Fatalf("1R should pick attribute a (pos 0), got %d", m.AttrPos)
	}
	correct := 0
	for r := 0; r < tab.NumRows(); r++ {
		var d mlcore.Distribution
		model.PredictInto(tab.Row(r), &d)
		best, _ := d.Best()
		if best == tab.Get(r, 3).NomIdx() {
			correct++
		}
	}
	if acc := float64(correct) / float64(tab.NumRows()); acc < 0.99 {
		t.Fatalf("1R accuracy = %g", acc)
	}
}

func TestOneRNumericAttribute(t *testing.T) {
	// Class determined by x's range: 1R must discretize and win with x.
	tab := dataset.NewTable(riSchema(t))
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 600; i++ {
		x := rng.Float64() * 100
		c := 0
		if x > 33 {
			c = 1
		}
		if x > 66 {
			c = 2
		}
		tab.AppendRow([]dataset.Value{dataset.Nom(rng.Intn(3)), dataset.Nom(rng.Intn(2)), dataset.Num(x), dataset.Nom(c)})
	}
	model, err := (&OneRTrainer{}).Train(riInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	m := model.(*OneRModel)
	if m.AttrPos != 2 {
		t.Fatalf("1R should pick the numeric attribute, got pos %d", m.AttrPos)
	}
	correct := 0
	for r := 0; r < tab.NumRows(); r++ {
		var d mlcore.Distribution
		model.PredictInto(tab.Row(r), &d)
		best, _ := d.Best()
		if best == tab.Get(r, 3).NomIdx() {
			correct++
		}
	}
	if acc := float64(correct) / float64(tab.NumRows()); acc < 0.9 {
		t.Fatalf("1R numeric accuracy = %g", acc)
	}
}

func TestOneRNullFeatureBucket(t *testing.T) {
	tab := aDrivenTable(t, 100, 53)
	for r := 0; r < 30; r++ {
		tab.Set(r, 0, dataset.Null())
	}
	model, err := (&OneRTrainer{}).Train(riInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	model.PredictInto([]dataset.Value{dataset.Null(), dataset.Nom(0), dataset.Num(5), dataset.Null()}, &d)
	if d.K() != 3 {
		t.Fatalf("bad distribution")
	}
}

func TestPrismLearnsConjunction(t *testing.T) {
	// class c1 iff a=a1 ∧ b=b1, else c0 — exactly a PRISM-shaped target.
	tab := dataset.NewTable(riSchema(t))
	rng := rand.New(rand.NewSource(54))
	for i := 0; i < 800; i++ {
		a, b := rng.Intn(3), rng.Intn(2)
		c := 0
		if a == 1 && b == 1 {
			c = 1
		}
		tab.AppendRow([]dataset.Value{dataset.Nom(a), dataset.Nom(b), dataset.Num(50), dataset.Nom(c)})
	}
	model, err := (&PrismTrainer{}).Train(riInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for r := 0; r < tab.NumRows(); r++ {
		var d mlcore.Distribution
		model.PredictInto(tab.Row(r), &d)
		best, _ := d.Best()
		if best == tab.Get(r, 3).NomIdx() {
			correct++
		}
	}
	if acc := float64(correct) / float64(tab.NumRows()); acc < 0.99 {
		t.Fatalf("PRISM accuracy = %g", acc)
	}
	pm := model.(*PrismModel)
	if len(pm.Rules) == 0 {
		t.Fatalf("no rules induced")
	}
}

func TestPrismFallbackToDefault(t *testing.T) {
	tab := aDrivenTable(t, 200, 55)
	model, err := (&PrismTrainer{}).Train(riInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	// An all-null row matches no rule: default distribution with support.
	var d mlcore.Distribution
	model.PredictInto([]dataset.Value{dataset.Null(), dataset.Null(), dataset.Null(), dataset.Null()}, &d)
	if d.N() <= 0 {
		t.Fatalf("default prediction must carry support")
	}
}

func TestTrainersFailWithoutLabels(t *testing.T) {
	tab := aDrivenTable(t, 10, 56)
	for r := 0; r < 10; r++ {
		tab.Set(r, 3, dataset.Null())
	}
	ins := riInstances(t, tab)
	if _, err := (&OneRTrainer{}).Train(ins); err == nil {
		t.Fatalf("1R must fail without labels")
	}
	if _, err := (&PrismTrainer{}).Train(ins); err == nil {
		t.Fatalf("PRISM must fail without labels")
	}
}

// TestPredictIntoDoesNotAlias: PredictInto hands back a copy of the
// matched distribution, so overwriting the answer leaves the model, and
// the next answer for the same row, unchanged.
func TestPredictIntoDoesNotAlias(t *testing.T) {
	tab := aDrivenTable(t, 600, 57)
	ins := riInstances(t, tab)
	for _, tc := range []struct {
		name string
		tr   mlcore.Trainer
	}{{"1r", &OneRTrainer{}}, {"prism", &PrismTrainer{}}} {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.tr.Train(ins)
			if err != nil {
				t.Fatal(err)
			}
			var d, again mlcore.Distribution
			rng := rand.New(rand.NewSource(58))
			for i := 0; i < 500; i++ {
				row := []dataset.Value{
					dataset.Nom(rng.Intn(3)), dataset.Nom(rng.Intn(2)),
					dataset.Num(rng.Float64() * 100), dataset.Null(),
				}
				if rng.Intn(5) == 0 {
					row[rng.Intn(3)] = dataset.Null()
				}
				model.PredictInto(row, &d)
				want := d.Clone()
				for c := range d.Counts {
					d.Counts[c] = -1
				}
				model.PredictInto(row, &again)
				if want.Total != again.Total || !slices.Equal(want.Counts, again.Counts) {
					t.Fatalf("row %v: PredictInto aliases the model's distribution: %+v after overwrite, want %+v", row, again, want)
				}
			}
		})
	}
}
