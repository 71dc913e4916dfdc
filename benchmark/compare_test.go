package main

import (
	"math"
	"testing"
)

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(ramp(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	if got := quartileSpread([]float64{13, 10, 12, 11}); math.Abs(got-2.5/11.5) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, 2.5/11.5)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "audit_p50_ms", Better: "lower", Bound: bound(0.10)}
	higher := metricSpec{Name: "rows_per_s", Better: "higher", Bound: bound(0.10)}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, []float64{108, 109, 108, 107, 108}, "same"},
		{"slower than the bound", lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, "same"},
		{"throughput down", higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{"throughput up", higher, steady, []float64{120, 121, 119, 120, 120}, "same"},
		{"too noisy to call", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{"noisy but disjoint and better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "same"},
		{"single runs", lower, []float64{100}, []float64{120}, "worse"},
	}
	for _, c := range cases {
		if _, got := verdictOn(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
