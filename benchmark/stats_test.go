package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMinSamplesLeavesTenBeyond(t *testing.T) {
	for p, want := range map[float64]int{75: 40, 90: 100, 95: 200, 99: 1000, 99.9: 10000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%g) = %d, want %d", p, got, want)
		}
	}
}

func TestTailRefusesAPercentileTenSamplesDoNotDecide(t *testing.T) {
	cases := []struct {
		n        int
		want     float64
		wantUsed float64
	}{
		{200, 95, 95},   // exactly ten samples beyond p95
		{199, 95, 90},   // one short: p95 refused, p90 is the highest supported
		{100, 95, 90},   // exactly ten beyond p90
		{99, 95, 75},    //
		{39, 95, 50},    // not even p75: the median
		{1000, 99, 99},  //
		{999, 99, 95},   //
		{5000, 95, 95},  // never reports more than was asked
		{10000, 99, 99}, //
	}
	for _, c := range cases {
		xs := ramp(c.n)
		v, used := tail(xs, c.want)
		if used != c.wantUsed {
			t.Errorf("n=%d want p%g: used p%g, want p%g", c.n, c.want, used, c.wantUsed)
		}
		if beyond := c.n - int(v); used != 50 && beyond < tailBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond it, want >= %d", c.n, used, v, beyond, tailBeyond)
		}
	}
}

func TestPercentileIsNearestRankOfRawSamples(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	if got := percentile(xs, 50); got != 30 {
		t.Errorf("p50 = %g, want 30", got)
	}
	if got := percentile(xs, 90); got != 50 {
		t.Errorf("p90 = %g, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
}
