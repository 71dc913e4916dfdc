package stats

import "math"

// This file implements the confidence-interval bounds the paper builds both
// its pruning criterion and its error-confidence measure on:
//
//	"rightBound(p, n) denotes the right bound of the confidence interval
//	 for the true probability of occurrence given the observed probability
//	 p and a sample size of n. The confidence level of this interval can
//	 be parameterized." (§5.1.2)
//
// We use one-sided Wilson score bounds, the standard choice for binomial
// proportions that remains well-behaved at p = 0 and p = 1 (exactly the
// regimes data auditing cares about: near-pure leaves and rare deviations).

// NormalQuantile returns the p-quantile of the standard normal
// distribution, computed with Peter Acklam's rational approximation
// (relative error < 1.15e-9; more than enough for confidence bounds).
// It panics for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}

// wilson returns the center and half-width of the Wilson score interval for
// observed proportion p out of n trials at critical value z.
func wilson(p, n, z float64) (center, half float64) {
	if n <= 0 {
		// With no evidence at all, the interval is maximally wide.
		return 0.5, 0.5
	}
	z2 := z * z
	denom := 1 + z2/n
	center = (p + z2/(2*n)) / denom
	half = z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	return center, half
}

// LeftBound returns the lower one-sided Wilson bound on the true occurrence
// probability, given observed proportion p over a sample of size n, at the
// given one-sided confidence level (e.g. 0.95). This is the paper's
// leftBound(p, n).
func LeftBound(p, n, confidence float64) float64 {
	z := NormalQuantile(confidence)
	c, h := wilson(p, n, z)
	return math.Max(0, c-h)
}

// RightBound returns the upper one-sided Wilson bound; the paper's
// rightBound(p, n). C4.5's pessimistic error is RightBound(errorRate, n, 1-CF)
// with C4.5's confidence factor CF = 0.25.
func RightBound(p, n, confidence float64) float64 {
	z := NormalQuantile(confidence)
	c, h := wilson(p, n, z)
	return math.Min(1, c+h)
}

// ErrorConfidence is the paper's Definition 7: the error confidence with
// respect to one classifier, given the predicted class probability pHat,
// the observed class probability pObs, the supporting sample size n, and
// the confidence level of the interval:
//
//	errorConf(P, c) := max(0, leftBound(P(ĉ), n) − rightBound(P(c), n))
func ErrorConfidence(pHat, pObs, n, confidence float64) float64 {
	return math.Max(0, LeftBound(pHat, n, confidence)-RightBound(pObs, n, confidence))
}

// MinInstForConfidence computes the paper's minInst (§5.4): the minimal
// number of instances of one class that must occur in a leaf for that leaf
// to be able to flag an error with at least minConf error confidence. The
// best case is a pure leaf (observed majority probability 1, deviating
// class probability 0), so minInst is the smallest n with
// ErrorConfidence(1, 0, n, confidence) >= minConf.
//
// It returns at least 1. For unattainable minConf values (>= 1) it returns
// a large sentinel (1<<31 - 1), which effectively disables splitting.
func MinInstForConfidence(minConf, confidence float64) int {
	const sentinel = 1<<31 - 1
	if minConf <= 0 {
		return 1
	}
	if minConf >= 1 {
		return sentinel
	}
	// ErrorConfidence(1,0,n) is monotonically increasing in n; binary-search
	// the threshold. Upper limit 1e9 is far beyond any realistic leaf.
	lo, hi := 1, 1_000_000_000
	if ErrorConfidence(1, 0, float64(hi), confidence) < minConf {
		return sentinel
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ErrorConfidence(1, 0, float64(mid), confidence) >= minConf {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
