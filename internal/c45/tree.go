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
	"fmt"
	"strconv"

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

var _ mlcore.Checker = (*Tree)(nil)

// Check implements mlcore.Checker: the tree counts k classes, its base
// columns are columns of schema other than class, and every split node
// tests such a column as its type, with one child per domain value of a
// nominal column and two for a number-like one. An error names the path
// of the node from the root by branch indices.
func (t *Tree) Check(schema *dataset.Schema, class, k int) error {
	if t.K != k {
		return fmt.Errorf("c45: tree over %d classes, want %d", t.K, k)
	}
	for _, b := range t.Base {
		if err := mlcore.CheckAttr(schema, class, b); err != nil {
			return fmt.Errorf("c45: base: %w", err)
		}
	}
	return checkNode(t.Root, schema, class, k, make([]int, 0, 32))
}

// checkNode checks the subtree at n, which the branch indices path lead
// to from the root. Siblings share path's backing array, so a walk
// allocates nothing above its capacity.
func checkNode(n *Node, schema *dataset.Schema, class, k int, path []int) error {
	if n == nil {
		return fmt.Errorf("c45: node %s is missing", nodePath(path))
	}
	if err := mlcore.CheckDist(n.Dist, k); err != nil {
		return fmt.Errorf("c45: node %s: %w", nodePath(path), err)
	}
	if n.IsLeaf() {
		return nil
	}
	if err := checkSplit(schema, class, n.Attr, n.IsNumeric, len(n.Children)); err != nil {
		return fmt.Errorf("c45: node %s: %w", nodePath(path), err)
	}
	for i, ch := range n.Children {
		if err := checkNode(ch, schema, class, k, append(path, i)); err != nil {
			return err
		}
	}
	return nil
}

// nodePath renders branch indices from the root as "root/i/j".
func nodePath(path []int) string {
	b := []byte("root")
	for _, i := range path {
		b = strconv.AppendInt(append(b, '/'), int64(i), 10)
	}
	return string(b)
}

// checkSplit rejects a split on attr that is not a base column of the
// split's kind, or whose child count does not fit the column.
func checkSplit(schema *dataset.Schema, class, attr int, numeric bool, children int) error {
	if err := mlcore.CheckAttr(schema, class, attr); err != nil {
		return err
	}
	a := schema.Attr(attr)
	want := a.NumValues()
	switch {
	case numeric != a.IsNumberLike():
		return fmt.Errorf("attribute %d (%s): split of the wrong kind", attr, a.Name)
	case numeric:
		want = 2
	}
	if children != want {
		return fmt.Errorf("attribute %d (%s): %d children, want %d", attr, a.Name, children, want)
	}
	return nil
}

// Check reports whether a decoded skeleton can seed a warm induction over
// a table of schema for class attribute class: every split names a
// column other than class, of the split's kind, with a child count that
// fits it. A nil skeleton seeds nothing and passes.
func (s *Skeleton) Check(schema *dataset.Schema, class int) error {
	return checkSkeleton(s, schema, class, make([]int, 0, 32))
}

func checkSkeleton(s *Skeleton, schema *dataset.Schema, class int, path []int) error {
	if s == nil || s.Attr < 0 {
		return nil
	}
	if err := checkSplit(schema, class, s.Attr, s.IsNumeric, len(s.Children)); err != nil {
		return fmt.Errorf("c45: hint node %s: %w", nodePath(path), err)
	}
	for i, ch := range s.Children {
		if err := checkSkeleton(ch, schema, class, append(path, i)); err != nil {
			return err
		}
	}
	return nil
}
