// Package c45 implements decision-tree induction and classification
// following ID3 [21] and C4.5 [22] as described in §5.1 of the paper:
// information gain and gain ratio split selection, binary splits on
// numerical attributes, training with missing values through fractional
// instance weights, and pessimistic-error pruning by subtree replacement.
//
// The §5.4 data-auditing adjustments — minInst pre-pruning and integrated
// pruning by expected error confidence — are implemented here as Options
// hooks and packaged into a ready-made trainer by internal/audittree.
package c45

import (
	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// Node is one decision-tree node. Fields are exported so trees serialize
// with encoding/gob (asynchronous auditing, §2.2).
type Node struct {
	// Attr is the split attribute column, or -1 for a leaf.
	Attr int
	// IsNumeric marks a binary threshold split (Children[0]: value <=
	// Thresh, Children[1]: value > Thresh); otherwise the split is nominal
	// with one child per domain value.
	IsNumeric bool
	// Thresh is the numeric split threshold.
	Thresh float64
	// Children are the subtrees (nil for leaves).
	Children []*Node
	// Dist is the weighted training class distribution at this node. By
	// construction the children's distributions sum to the parent's, so a
	// missing value can be answered with the node's own distribution —
	// exactly the fractional-descent aggregate of C4.5.
	Dist mlcore.Distribution
}

// IsLeaf reports whether the node has no split.
func (n *Node) IsLeaf() bool { return n.Attr < 0 }

// Tree is an induced decision-tree classifier for one class attribute.
type Tree struct {
	Root *Node
	// K is the number of class values.
	K int
	// Base lists the base attribute columns the tree may test.
	Base []int
}

var _ mlcore.Classifier = (*Tree)(nil)

// PredictInto implements mlcore.Classifier: it descends to the leaf
// selected by the row's base attribute values and copies that leaf's
// class distribution (with its training support as Total) into the
// caller's buffer. Missing values stop at the current node and answer
// with its aggregate distribution.
func (t *Tree) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	d.CopyFrom(t.descend(row).Dist)
}

// descend walks to the node that answers the row: the selected leaf, or
// the interior node at which a missing or out-of-domain value stops the
// descent (its aggregate distribution is the fractional-descent answer).
func (t *Tree) descend(row []dataset.Value) *Node {
	n := t.Root
	for !n.IsLeaf() {
		v := row[n.Attr]
		if v.IsNull() {
			return n
		}
		if n.IsNumeric {
			if v.Float() <= n.Thresh {
				n = n.Children[0]
			} else {
				n = n.Children[1]
			}
		} else {
			idx := v.NomIdx()
			if idx >= len(n.Children) {
				return n // out-of-domain code: fall back to the node
			}
			n = n.Children[idx]
		}
	}
	return n
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return nodeCount(t.Root) }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return leafCount(t.Root) }

// Depth returns the longest root-to-leaf path length (a single leaf has
// depth 0).
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeCount(n *Node) int {
	if n == nil {
		return 0
	}
	c := 1
	for _, ch := range n.Children {
		c += nodeCount(ch)
	}
	return c
}

func leafCount(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	c := 0
	for _, ch := range n.Children {
		c += leafCount(ch)
	}
	return c
}

func nodeDepth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	max := 0
	for _, ch := range n.Children {
		if d := nodeDepth(ch); d > max {
			max = d
		}
	}
	return max + 1
}
