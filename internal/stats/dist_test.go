package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func sampleMany(d Dist, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

func TestUniformSampling(t *testing.T) {
	u := Uniform{Lo: 2, Hi: 10}
	xs := sampleMany(u, 20000, 1)
	for _, x := range xs {
		if x < 2 || x > 10 {
			t.Fatalf("uniform sample %g out of range", x)
		}
	}
	if m := Mean(xs); math.Abs(m-6) > 0.1 {
		t.Fatalf("uniform mean = %g, want ~6", m)
	}
	if u.Mean() != 6 {
		t.Fatalf("Mean() = %g", u.Mean())
	}
}

func TestNormalSampling(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 2}
	xs := sampleMany(n, 50000, 2)
	if m := Mean(xs); math.Abs(m-5) > 0.05 {
		t.Fatalf("normal mean = %g, want ~5", m)
	}
	if s := math.Sqrt(Variance(xs)); math.Abs(s-2) > 0.05 {
		t.Fatalf("normal sd = %g, want ~2", s)
	}
}

func TestExponentialSampling(t *testing.T) {
	e := Exponential{Rate: 0.5, Shift: 3}
	xs := sampleMany(e, 50000, 3)
	if m := Mean(xs); math.Abs(m-5) > 0.1 {
		t.Fatalf("exp mean = %g, want ~5", m)
	}
	for _, x := range xs {
		if x < 3 {
			t.Fatalf("shifted exponential produced %g < shift", x)
		}
	}
}

func TestTruncatedStaysInRange(t *testing.T) {
	d := Truncated{D: Normal{Mu: 0, Sigma: 100}, Lo: -1, Hi: 1}
	for _, x := range sampleMany(d, 5000, 4) {
		if x < -1 || x > 1 {
			t.Fatalf("truncated sample %g escaped", x)
		}
	}
}

func TestTruncatedDegenerateTerminates(t *testing.T) {
	// A distribution that can never hit the window must still terminate
	// (clamp fallback).
	d := Truncated{D: Normal{Mu: 1000, Sigma: 0.001}, Lo: 0, Hi: 1}
	x := d.Sample(rand.New(rand.NewSource(5)))
	if x != 1 {
		t.Fatalf("clamp fallback expected 1, got %g", x)
	}
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{Uniform{0, 1}, Normal{0, 1}, Exponential{1, 0}, Truncated{Uniform{0, 1}, 0, 1}} {
		if d.String() == "" {
			t.Fatalf("empty String() for %T", d)
		}
	}
}

func TestCategoricalValidation(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Fatalf("empty weights must fail")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Fatalf("negative weight must fail")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Fatalf("all-zero weights must fail")
	}
	if _, err := NewCategorical([]float64{1, math.NaN()}); err == nil {
		t.Fatalf("NaN weight must fail")
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c := MustCategorical(1, 2, 7)
	rng := rand.New(rand.NewSource(6))
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(rng)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %g, want ~%g", i, got, want)
		}
		if math.Abs(c.P(i)-want) > 1e-12 {
			t.Fatalf("P(%d) = %g", i, c.P(i))
		}
	}
}

func TestCategoricalNeverPicksZeroWeight(t *testing.T) {
	c := MustCategorical(0, 1, 0, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		got := c.Sample(rng)
		if got == 0 || got == 2 {
			t.Fatalf("sampled zero-weight category %d", got)
		}
	}
}

func TestUniformAndZipfCategorical(t *testing.T) {
	u := UniformCategorical(4)
	for i := 0; i < 4; i++ {
		if math.Abs(u.P(i)-0.25) > 1e-12 {
			t.Fatalf("uniform categorical P(%d) = %g", i, u.P(i))
		}
	}
	z := ZipfCategorical(5, 1)
	if z.Len() != 5 {
		t.Fatalf("Len = %d", z.Len())
	}
	for i := 1; i < 5; i++ {
		if z.P(i) >= z.P(i-1) {
			t.Fatalf("zipf weights must decrease: P(%d)=%g >= P(%d)=%g", i, z.P(i), i-1, z.P(i-1))
		}
	}
	if !strings.HasPrefix(z.String(), "categorical") {
		t.Fatalf("String = %q", z.String())
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatalf("Clamp broken")
	}
}
