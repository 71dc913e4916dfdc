package bayesnet

import (
	"math"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

func netSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("weather", "sunny", "rainy"),
		dataset.NewNominal("sprinkler", "on", "off"),
		dataset.NewNominal("grass", "wet", "dry"),
		dataset.NewNumeric("unrelated", 0, 1),
	)
}

// sprinklerNet builds the classic sprinkler network:
// weather -> sprinkler, (weather, sprinkler) -> grass.
func sprinklerNet(t *testing.T) *Network {
	t.Helper()
	s := netSchema(t)
	nodes := []*Node{
		{Attr: 0, CPT: []*stats.Categorical{stats.MustCategorical(0.7, 0.3)}},
		{Attr: 1, Parents: []int{0}, CPT: []*stats.Categorical{
			stats.MustCategorical(0.2, 0.8), // sunny
			stats.MustCategorical(0.05, 0.95),
		}},
		{Attr: 2, Parents: []int{0, 1}, CPT: []*stats.Categorical{
			stats.MustCategorical(0.9, 0.1),   // sunny, on
			stats.MustCategorical(0.05, 0.95), // sunny, off
			stats.MustCategorical(0.99, 0.01), // rainy, on
			stats.MustCategorical(0.85, 0.15), // rainy, off
		}},
	}
	net, err := New(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestValidationErrors(t *testing.T) {
	s := netSchema(t)
	uni := []*stats.Categorical{stats.MustCategorical(1, 1)}
	cases := []struct {
		name  string
		nodes []*Node
	}{
		{"attr out of range", []*Node{{Attr: 99, CPT: uni}}},
		{"non-nominal attr", []*Node{{Attr: 3, CPT: uni}}},
		{"duplicate attr", []*Node{{Attr: 0, CPT: uni}, {Attr: 0, CPT: uni}}},
		{"self parent", []*Node{{Attr: 0, Parents: []int{0}, CPT: uni}}},
		{"parent out of range", []*Node{{Attr: 0, Parents: []int{5}, CPT: uni}}},
		{"wrong CPT rows", []*Node{{Attr: 0, Parents: nil, CPT: []*stats.Categorical{}}}},
		{"wrong row arity", []*Node{{Attr: 0, CPT: []*stats.Categorical{stats.MustCategorical(1, 1, 1)}}}},
		{"nil row", []*Node{{Attr: 0, CPT: []*stats.Categorical{nil}}}},
		{"cycle", []*Node{
			{Attr: 0, Parents: []int{1}, CPT: make2rows()},
			{Attr: 1, Parents: []int{0}, CPT: make2rows()},
		}},
	}
	for _, c := range cases {
		if _, err := New(s, c.nodes); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func make2rows() []*stats.Categorical {
	return []*stats.Categorical{stats.MustCategorical(1, 1), stats.MustCategorical(1, 1)}
}

func TestSamplingMarginals(t *testing.T) {
	net := sprinklerNet(t)
	rng := rand.New(rand.NewSource(41))
	const n = 200000
	row := make([]dataset.Value, 4)
	sunny, grassWetGivenRainyOff := 0, 0
	rainyOff := 0
	for i := 0; i < n; i++ {
		net.Sample(rng, row)
		if row[0].NomIdx() == 0 {
			sunny++
		}
		if row[0].NomIdx() == 1 && row[1].NomIdx() == 1 {
			rainyOff++
			if row[2].NomIdx() == 0 {
				grassWetGivenRainyOff++
			}
		}
	}
	if p := float64(sunny) / n; math.Abs(p-0.7) > 0.01 {
		t.Fatalf("P(sunny) = %g, want ~0.7", p)
	}
	if p := float64(grassWetGivenRainyOff) / float64(rainyOff); math.Abs(p-0.85) > 0.02 {
		t.Fatalf("P(wet | rainy, off) = %g, want ~0.85", p)
	}
}

func TestSampleOnlyTouchesCoveredAttrs(t *testing.T) {
	net := sprinklerNet(t)
	row := make([]dataset.Value, 4)
	row[3] = dataset.Num(0.5)
	net.Sample(rand.New(rand.NewSource(42)), row)
	if row[3].Float() != 0.5 {
		t.Fatalf("sampling touched an uncovered attribute")
	}
	for i := 0; i < 3; i++ {
		if row[i].IsNull() {
			t.Fatalf("covered attribute %d not sampled", i)
		}
	}
}

func TestTopologicalOrderRespected(t *testing.T) {
	// Nodes intentionally listed child-first; sampling must still work.
	s := netSchema(t)
	nodes := []*Node{
		{Attr: 2, Parents: []int{1}, CPT: make2rows()},
		{Attr: 1, Parents: []int{2 /* index of node modelling weather */}, CPT: make2rows()},
		{Attr: 0, CPT: []*stats.Categorical{stats.MustCategorical(1, 1)}},
	}
	net, err := New(s, nodes)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]dataset.Value, 4)
	net.Sample(rand.New(rand.NewSource(43)), row) // must not panic
}
