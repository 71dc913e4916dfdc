package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of two equally long
// series, or 0 when either series is constant. The evaluation harness uses
// it to verify the paper's §6.1 claim that "the quality of correction is
// highly correlated to sensitivity".
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// GaussianPDF evaluates the normal density with the given mean and standard
// deviation at x; used by the naive-Bayes baseline for numeric attributes.
// A zero sigma degenerates to a narrow spike approximation.
func GaussianPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		sigma = 1e-9
	}
	d := (x - mu) / sigma
	return math.Exp(-0.5*d*d) / (sigma * math.Sqrt(2*math.Pi))
}
