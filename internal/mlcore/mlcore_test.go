package mlcore

import (
	"math"
	"testing"
	"testing/quick"

	"dataaudit/internal/dataset"
)

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution(3)
	if d.K() != 3 || d.N() != 0 {
		t.Fatalf("fresh distribution wrong: %+v", d)
	}
	d.Add(0, 2)
	d.Add(1, 6)
	d.Add(2, 2)
	if d.N() != 10 {
		t.Fatalf("N = %g", d.N())
	}
	if p := d.P(1); p != 0.6 {
		t.Fatalf("P(1) = %g", p)
	}
	best, pBest := d.Best()
	if best != 1 || pBest != 0.6 {
		t.Fatalf("Best = %d, %g", best, pBest)
	}
}

func TestDistributionEmptyP(t *testing.T) {
	d := NewDistribution(2)
	if d.P(0) != 0 {
		t.Fatalf("empty distribution must have zero probabilities")
	}
	best, p := d.Best()
	if best != 0 || p != 0 {
		t.Fatalf("empty Best = %d, %g", best, p)
	}
}

func TestDistributionTieBreaksLow(t *testing.T) {
	d := NewDistribution(3)
	d.Add(1, 5)
	d.Add(2, 5)
	if best, _ := d.Best(); best != 1 {
		t.Fatalf("ties must break to the lower index, got %d", best)
	}
}

func TestDistributionClone(t *testing.T) {
	a := NewDistribution(2)
	a.Add(0, 3)
	b := a.Clone()
	b.Add(1, 7)
	if a.N() != 3 || a.Counts[1] != 0 {
		t.Fatalf("Clone aliases storage")
	}
}

func TestDistributionProbabilitiesNormalizedProperty(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDistribution(len(raw))
		for c, w := range raw {
			d.Add(c, float64(w))
		}
		if d.N() == 0 {
			return true
		}
		sum := 0.0
		for c := 0; c < d.K(); c++ {
			sum += d.P(c)
		}
		return math.Abs(sum-1) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func testInstances(t *testing.T) (*dataset.Table, *Instances) {
	t.Helper()
	s := dataset.MustSchema(
		dataset.NewNominal("f", "x", "y"),
		dataset.NewNominal("class", "c0", "c1"),
	)
	tab := dataset.NewTable(s)
	for i := 0; i < 10; i++ {
		cls := dataset.Nom(i % 2)
		if i == 9 {
			cls = dataset.Null()
		}
		tab.AppendRow([]dataset.Value{dataset.Nom(i % 2), cls})
	}
	ins := NewInstances(tab, []int{0}, 2, func(r int) int {
		v := tab.Get(r, 1)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
	return tab, ins
}

func TestInstancesBasics(t *testing.T) {
	_, ins := testInstances(t)
	if len(ins.Class) != 10 {
		t.Fatalf("classes = %d", len(ins.Class))
	}
	d := NewDistribution(ins.K)
	for _, c := range ins.Class {
		if c >= 0 {
			d.Add(int(c), 1)
		}
	}
	// Rows 0..8 labelled, row 9 null: 5 of c0 (0,2,4,6,8), 4 of c1.
	if d.Counts[0] != 5 || d.Counts[1] != 4 {
		t.Fatalf("class distribution = %+v", d)
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestInstancesValidateCatchesErrors(t *testing.T) {
	tab, ins := testInstances(t)
	bad := &Instances{Table: tab, Base: []int{0}, K: 2, Class: ins.Class[:9]}
	if bad.Validate() == nil {
		t.Fatalf("a class vector shorter than the table must fail")
	}
	bad2 := &Instances{Table: tab, Base: []int{99}, K: 2, Class: ins.Class}
	if bad2.Validate() == nil {
		t.Fatalf("out-of-range base must fail")
	}
	high := append([]int32(nil), ins.Class...)
	high[3] = 2
	bad3 := &Instances{Table: tab, Base: []int{0}, K: 2, Class: high}
	if bad3.Validate() == nil {
		t.Fatalf("a class index of K must fail")
	}
	bad4 := &Instances{Table: tab, Base: []int{0}, K: 0, Class: ins.Class}
	if bad4.Validate() == nil {
		t.Fatalf("zero classes must fail")
	}
	low := append([]int32(nil), ins.Class...)
	low[0] = -2
	bad5 := &Instances{Table: tab, Base: []int{0}, K: 2, Class: low}
	if bad5.Validate() == nil {
		t.Fatalf("a class index below -1 must fail")
	}
}
