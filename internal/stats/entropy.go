package stats

import "math"

// Entropy returns the Shannon entropy (base 2) of a histogram of
// non-negative class counts; the paper's entr(S) (§5.1.1). Zero counts
// contribute nothing; an empty or all-zero histogram has entropy 0.
func Entropy(counts []float64) float64 {
	return entropyOf(counts, sum(counts))
}

// sum adds the counts in index order, the order every total here uses.
func sum(counts []float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	return total
}

// entropyOf is Entropy for counts whose sum the caller already has.
func entropyOf(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// InfoGain computes the expected entropy loss of partitioning a parent
// histogram into the given child histograms; the paper's info-gain(S, A).
// Children must partition the parent (this is not checked; callers in
// internal/c45 guarantee it by construction).
func InfoGain(parent []float64, children [][]float64) float64 {
	parentTotal := sum(parent)
	if parentTotal <= 0 {
		return 0
	}
	expected := 0.0
	for _, child := range children {
		if childTotal := sum(child); childTotal > 0 {
			expected += childTotal / parentTotal * entropyOf(child, childTotal)
		}
	}
	return entropyOf(parent, parentTotal) - expected
}

// BinaryInfoGain is InfoGain(parent, [][]float64{left, right}) for a
// parent whose entropy and total the caller has computed once:
// parentEntropy = Entropy(parent) and parentTotal = the sum of parent's
// counts in index order. A threshold search evaluates many two-way splits
// of one parent; this evaluates InfoGain's floating-point expression
// step for step without its per-call slice or parent entropy, so the two
// agree bit for bit.
func BinaryInfoGain(parentEntropy, parentTotal float64, left, right []float64) float64 {
	if parentTotal <= 0 {
		return 0
	}
	expected := 0.0
	if lt := sum(left); lt > 0 {
		expected += lt / parentTotal * entropyOf(left, lt)
	}
	if rt := sum(right); rt > 0 {
		expected += rt / parentTotal * entropyOf(right, rt)
	}
	return parentEntropy - expected
}

// SplitInfo computes C4.5's split information for branch sizes; the paper's
// split-info(S, A) (§5.1.2). sizes are the (weighted) branch cardinalities.
func SplitInfo(sizes []float64) float64 {
	return Entropy(sizes)
}

// GainRatio divides information gain by split information, C4.5's remedy
// against the many-valued-attribute bias of plain information gain. When
// split information is ~0 (a degenerate split), it returns 0.
func GainRatio(gain float64, sizes []float64) float64 {
	si := SplitInfo(sizes)
	if si < 1e-12 {
		return 0
	}
	return gain / si
}
