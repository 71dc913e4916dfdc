package stats

import (
	"math/rand"
	"testing"
)

func TestDiscretizerErrors(t *testing.T) {
	if _, err := NewEqualFrequency(nil, 3); err == nil {
		t.Fatalf("empty input must fail")
	}
	if _, err := NewEqualFrequency([]float64{1}, 0); err == nil {
		t.Fatalf("zero bins must fail")
	}
}

func TestDiscretizerSingleBin(t *testing.T) {
	d, err := NewEqualFrequency([]float64{3, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBins() != 1 {
		t.Fatalf("NumBins = %d", d.NumBins())
	}
	if d.Bin(-100) != 0 || d.Bin(100) != 0 {
		t.Fatalf("single bin must swallow everything")
	}
	if d.Rep(0) != 2 {
		t.Fatalf("median rep = %g, want 2", d.Rep(0))
	}
}

func TestDiscretizerEqualFrequency(t *testing.T) {
	values := make([]float64, 1000)
	rng := rand.New(rand.NewSource(31))
	for i := range values {
		values[i] = rng.Float64() * 100
	}
	d, err := NewEqualFrequency(values, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBins() != 4 {
		t.Fatalf("NumBins = %d, want 4", d.NumBins())
	}
	counts := make([]int, 4)
	for _, v := range values {
		counts[d.Bin(v)]++
	}
	for b, c := range counts {
		if c < 200 || c > 300 {
			t.Fatalf("bin %d has %d values; equal-frequency violated: %v", b, c, counts)
		}
	}
}

func TestDiscretizerMonotoneBins(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	d, err := NewEqualFrequency(values, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, v := range values {
		b := d.Bin(v)
		if b < prev {
			t.Fatalf("bins must be monotone in the value")
		}
		prev = b
	}
}

func TestDiscretizerHeavyTies(t *testing.T) {
	// 90% of the data is the single value 5: cuts collapse, fewer bins result.
	values := make([]float64, 100)
	for i := range values {
		if i < 90 {
			values[i] = 5
		} else {
			values[i] = float64(i)
		}
	}
	d, err := NewEqualFrequency(values, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBins() > 4 || d.NumBins() < 1 {
		t.Fatalf("NumBins = %d", d.NumBins())
	}
	// All the tied values land in one bin.
	b := d.Bin(5)
	for i := 0; i < 90; i++ {
		if d.Bin(values[i]) != b {
			t.Fatalf("tied values scattered across bins")
		}
	}
}

func TestDiscretizerRepsAreWithinBins(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	values := make([]float64, 500)
	for i := range values {
		values[i] = rng.NormFloat64() * 50
	}
	d, err := NewEqualFrequency(values, 6)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < d.NumBins(); b++ {
		if got := d.Bin(d.Rep(b)); got != b {
			t.Fatalf("representative of bin %d maps to bin %d", b, got)
		}
	}
}

func TestDiscretizerLabels(t *testing.T) {
	d, err := NewEqualFrequency([]float64{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	labels := d.Labels(func(f float64) string { return "X" })
	if len(labels) != d.NumBins() {
		t.Fatalf("labels = %v", labels)
	}
	if labels[0] != "(-inf,X]" || labels[len(labels)-1] != "(X,+inf)" {
		t.Fatalf("label format: %v", labels)
	}
	d1, _ := NewEqualFrequency([]float64{1, 1, 1}, 3)
	if got := d1.Labels(func(float64) string { return "" }); len(got) != 1 || got[0] != "(-inf,+inf)" {
		t.Fatalf("degenerate labels: %v", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); r < 0.9999 {
		t.Fatalf("perfect correlation r = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); r > -0.9999 {
		t.Fatalf("perfect anti-correlation r = %g", r)
	}
	if r := Pearson(xs, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Fatalf("constant series r = %g, want 0", r)
	}
	if r := Pearson(xs, ys[:3]); r != 0 {
		t.Fatalf("length mismatch should give 0")
	}
}

func TestGaussianPDF(t *testing.T) {
	p := GaussianPDF(0, 0, 1)
	if p < 0.398 || p > 0.399 {
		t.Fatalf("standard normal density at 0 = %g", p)
	}
	if GaussianPDF(0, 0, 0) <= 0 {
		t.Fatalf("degenerate sigma must still give positive density")
	}
	if GaussianPDF(5, 0, 1) >= GaussianPDF(0, 0, 1) {
		t.Fatalf("density must decay away from mean")
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %g", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %g", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatalf("degenerate inputs")
	}
}
