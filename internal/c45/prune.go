package c45

import (
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// This file implements the two pruning criteria of the paper:
//
//  1. C4.5's pessimistic classification error (§5.1.2): the observed leaf
//     error rate is replaced by the right bound of its confidence interval
//     ("rightBound(p, n) denotes the right bound of the confidence interval
//     for the true probability of occurrence"), and a subtree is replaced
//     by a leaf when that does not increase the pessimistic error.
//
//  2. The expected error confidence (Definition 9, §5.4), which judges a
//     node by how much error-detection capability it provides rather than
//     by its misclassification rate, and is used by the integrated pruning
//     strategy during growth (see grower.grow).

// pessErrorLeaf is the paper's pessError for a leaf:
// rightBound(1 - |S_C=c|/|S|, |S|) with c the majority class.
func pessErrorLeaf(d mlcore.Distribution) float64 {
	if d.N() <= 0 {
		return 1
	}
	_, pMaj := d.Best()
	return stats.RightBound(1-pMaj, d.N(), 1-cf)
}

// pessErrorNode is the weighted average over the children for inner nodes.
func pessErrorNode(n *Node) float64 {
	if n.IsLeaf() {
		return pessErrorLeaf(n.Dist)
	}
	if n.Dist.N() <= 0 {
		return 1
	}
	sum := 0.0
	for _, ch := range n.Children {
		sum += ch.Dist.N() / n.Dist.N() * pessErrorNode(ch)
	}
	return sum
}

// prunePessimistic performs bottom-up subtree replacement: a subtree
// becomes a leaf when the leaf's pessimistic error does not exceed the
// subtree's.
func prunePessimistic(n *Node) {
	if n.IsLeaf() {
		return
	}
	for _, ch := range n.Children {
		prunePessimistic(ch)
	}
	if pessErrorLeaf(n.Dist) <= pessErrorNode(n)+1e-12 {
		n.Attr = -1
		n.IsNumeric = false
		n.Thresh = 0
		n.Children = nil
	}
}

// expErrConfLeaf is Definition 9 for a leaf: the training-distribution
// expectation of the error confidence the leaf would assign to its own
// instances,
//
//	expErrorConf(k) := Σ_c |S_C=c|/|S| · errorConf(P, c),
//
// with confidences below minConf clipped to zero (only confidences the
// user would ever see count as detection capability; pass minConf = 0 for
// the unclipped Definition 9).
func expErrConfLeaf(d mlcore.Distribution, confLevel, minConf float64) float64 {
	n := d.N()
	if n <= 0 {
		return 0
	}
	cHat, pHat := d.Best()
	sum := 0.0
	for c := range d.Counts {
		pc := d.P(c)
		if pc == 0 || c == cHat {
			continue // errorConf is zero for the predicted class itself
		}
		ec := stats.ErrorConfidence(pHat, pc, n, confLevel)
		if ec >= minConf {
			sum += pc * ec
		}
	}
	return sum
}

// expErrConfNode is Definition 9 for an inner node: the instance-weighted
// average of the children's expected error confidences.
func expErrConfNode(n *Node, confLevel, minConf float64) float64 {
	if n.IsLeaf() {
		return expErrConfLeaf(n.Dist, confLevel, minConf)
	}
	if n.Dist.N() <= 0 {
		return 0
	}
	sum := 0.0
	for _, ch := range n.Children {
		sum += ch.Dist.N() / n.Dist.N() * expErrConfNode(ch, confLevel, minConf)
	}
	return sum
}

// ExpErrorConfLeaf exposes the leaf form of Definition 9.
func ExpErrorConfLeaf(d mlcore.Distribution, confLevel, minConf float64) float64 {
	return expErrConfLeaf(d, confLevel, minConf)
}
