package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestEntropyKnownValues(t *testing.T) {
	cases := []struct {
		counts []float64
		want   float64
	}{
		{[]float64{1, 1}, 1},
		{[]float64{1, 1, 1, 1}, 2},
		{[]float64{10, 0}, 0},
		{[]float64{}, 0},
		{[]float64{0, 0}, 0},
		{[]float64{3, 1}, 0.811278},
	}
	for _, c := range cases {
		if got := Entropy(c.counts); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("Entropy(%v) = %g, want %g", c.counts, got, c.want)
		}
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		k := 1 + rng.Intn(10)
		counts := make([]float64, k)
		for j := range counts {
			counts[j] = rng.Float64() * 100
		}
		h := Entropy(counts)
		if h < 0 || h > math.Log2(float64(k))+1e-9 {
			t.Fatalf("entropy %g outside [0, log2(%d)]", h, k)
		}
	}
}

func TestInfoGainPerfectSplit(t *testing.T) {
	parent := []float64{5, 5}
	children := [][]float64{{5, 0}, {0, 5}}
	if g := InfoGain(parent, children); math.Abs(g-1) > 1e-9 {
		t.Fatalf("perfect split gain = %g, want 1", g)
	}
}

func TestInfoGainUselessSplit(t *testing.T) {
	parent := []float64{6, 6}
	children := [][]float64{{3, 3}, {3, 3}}
	if g := InfoGain(parent, children); math.Abs(g) > 1e-9 {
		t.Fatalf("useless split gain = %g, want 0", g)
	}
}

func TestInfoGainNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		k := 2 + rng.Intn(4)
		branches := 2 + rng.Intn(4)
		children := make([][]float64, branches)
		parent := make([]float64, k)
		for b := range children {
			children[b] = make([]float64, k)
			for j := range children[b] {
				v := float64(rng.Intn(20))
				children[b][j] = v
				parent[j] += v
			}
		}
		if g := InfoGain(parent, children); g < -1e-9 {
			t.Fatalf("info gain negative: %g", g)
		}
	}
}

func TestInfoGainEmptyParent(t *testing.T) {
	if g := InfoGain([]float64{0, 0}, nil); g != 0 {
		t.Fatalf("empty parent gain = %g", g)
	}
}

func TestGainRatio(t *testing.T) {
	// Balanced binary split: splitInfo = 1, so ratio == gain.
	sizes := []float64{5, 5}
	if gr := GainRatio(0.5, sizes); math.Abs(gr-0.5) > 1e-9 {
		t.Fatalf("GainRatio = %g, want 0.5", gr)
	}
	// Degenerate split: everything in one branch -> ratio forced to 0.
	if gr := GainRatio(0.5, []float64{10, 0}); gr != 0 {
		t.Fatalf("degenerate split ratio = %g, want 0", gr)
	}
}

func TestSplitInfoMatchesEntropy(t *testing.T) {
	sizes := []float64{2, 6}
	if SplitInfo(sizes) != Entropy(sizes) {
		t.Fatalf("SplitInfo must equal Entropy of branch sizes")
	}
}

// TestInfoGainKnownValue: Quinlan's weather data split on Wind — 9 yes /
// 5 no into weak (6/2) and strong (3/3) — gains 0.048 bits.
func TestInfoGainKnownValue(t *testing.T) {
	g := InfoGain([]float64{9, 5}, [][]float64{{6, 2}, {3, 3}})
	if math.Abs(g-0.048127) > 1e-6 {
		t.Fatalf("InfoGain = %g, want 0.048127", g)
	}
	// Gain ratio over branch sizes 8 and 6 plus 2 missing instances.
	if gr, want := GainRatio(g, []float64{8, 6, 2}), g/Entropy([]float64{8, 6, 2}); gr != want {
		t.Fatalf("GainRatio = %g, want %g", gr, want)
	}
}

// TestBinaryInfoGainMatchesInfoGain: the two-branch helper evaluates
// InfoGain's expression bit for bit — fractional counts, empty classes,
// an empty branch and an empty parent included.
func TestBinaryInfoGainMatchesInfoGain(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	fractions := []float64{0, 0, 1, 0.5, 7.0 / 13, 1.0 / 3, 0.1, 12345.678}
	for i := 0; i < 20000; i++ {
		k := 1 + rng.Intn(6)
		left, right, parent := make([]float64, k), make([]float64, k), make([]float64, k)
		emptyLeft, emptyRight := rng.Intn(10) == 0, rng.Intn(10) == 0
		for j := range parent {
			if !emptyLeft {
				left[j] = fractions[rng.Intn(len(fractions))] * float64(rng.Intn(20))
			}
			if !emptyRight {
				right[j] = fractions[rng.Intn(len(fractions))] * float64(rng.Intn(20))
			}
			parent[j] = left[j] + right[j]
		}
		parentTotal := 0.0
		for _, c := range parent {
			parentTotal += c
		}
		got := BinaryInfoGain(Entropy(parent), parentTotal, left, right)
		want := InfoGain(parent, [][]float64{left, right})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BinaryInfoGain(%v | %v) = %v, InfoGain = %v", left, right, got, want)
		}
	}
}
