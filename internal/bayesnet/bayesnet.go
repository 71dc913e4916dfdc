// Package bayesnet implements discrete Bayesian networks used by the
// test-data generator for "the intuitive specification of multivariate
// start distributions based on the graphical representation of stochastic
// dependencies among attributes" (§4.1.4 of the paper).
//
// A Network covers a subset of the nominal attributes of a schema. Each
// node carries a conditional probability table (CPT) over its attribute's
// domain, indexed by the joint configuration of its parents. Sampling is
// ancestral: nodes are visited in topological order, each drawing from the
// CPT row selected by its already-sampled parents.
package bayesnet

import (
	"fmt"
	"math/rand"

	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

// Node is one vertex of the network.
type Node struct {
	// Attr is the column index of the nominal attribute this node models.
	Attr int
	// Parents are node indices (into Network.Nodes) of this node's parents.
	Parents []int
	// CPT has one Categorical row per joint parent configuration. Rows are
	// indexed by mixed-radix encoding: with parents p1..pk having domain
	// sizes n1..nk, configuration (v1..vk) maps to ((v1*n2+v2)*n3+v3)...
	CPT []*stats.Categorical
}

// Network is a DAG of nodes over a schema.
type Network struct {
	Schema *dataset.Schema
	Nodes  []*Node

	order []int // topological order of node indices, computed by Validate
}

// New builds a network and validates it.
func New(schema *dataset.Schema, nodes []*Node) (*Network, error) {
	n := &Network{Schema: schema, Nodes: nodes}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// numConfigs returns the number of joint parent configurations of node i.
func (n *Network) numConfigs(i int) int {
	c := 1
	for _, p := range n.Nodes[i].Parents {
		c *= n.Schema.Attr(n.Nodes[p].Attr).NumValues()
	}
	return c
}

// configIndex computes the CPT row index for the sampled parent values of
// node i (values indexed per node position).
func (n *Network) configIndex(i int, sampled []int) int {
	idx := 0
	for _, p := range n.Nodes[i].Parents {
		size := n.Schema.Attr(n.Nodes[p].Attr).NumValues()
		idx = idx*size + sampled[p]
	}
	return idx
}

// Validate checks that the graph is a DAG over nominal attributes, that no
// attribute is modelled twice, and that every CPT has the right shape. It
// also caches the topological order used by Sample.
func (n *Network) Validate() error {
	seen := make(map[int]bool)
	for i, node := range n.Nodes {
		if node.Attr < 0 || node.Attr >= n.Schema.Len() {
			return fmt.Errorf("bayesnet: node %d references attribute %d outside the schema", i, node.Attr)
		}
		attr := n.Schema.Attr(node.Attr)
		if attr.Type != dataset.NominalType {
			return fmt.Errorf("bayesnet: node %d models non-nominal attribute %s", i, attr.Name)
		}
		if seen[node.Attr] {
			return fmt.Errorf("bayesnet: attribute %s modelled by more than one node", attr.Name)
		}
		seen[node.Attr] = true
		for _, p := range node.Parents {
			if p < 0 || p >= len(n.Nodes) {
				return fmt.Errorf("bayesnet: node %d has out-of-range parent %d", i, p)
			}
			if p == i {
				return fmt.Errorf("bayesnet: node %d is its own parent", i)
			}
		}
		want := n.numConfigs(i)
		if len(node.CPT) != want {
			return fmt.Errorf("bayesnet: node %d (attr %s) has %d CPT rows, want %d", i, attr.Name, len(node.CPT), want)
		}
		for r, row := range node.CPT {
			if row == nil {
				return fmt.Errorf("bayesnet: node %d CPT row %d is nil", i, r)
			}
			if row.Len() != attr.NumValues() {
				return fmt.Errorf("bayesnet: node %d CPT row %d has %d categories, want %d", i, r, row.Len(), attr.NumValues())
			}
		}
	}
	order, err := n.topoSort()
	if err != nil {
		return err
	}
	n.order = order
	return nil
}

// topoSort returns a topological order of node indices or an error if the
// graph has a cycle.
func (n *Network) topoSort() ([]int, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(n.Nodes))
	order := make([]int, 0, len(n.Nodes))
	var visit func(i int) error
	visit = func(i int) error {
		switch color[i] {
		case gray:
			return fmt.Errorf("bayesnet: dependency cycle through node %d", i)
		case black:
			return nil
		}
		color[i] = gray
		for _, p := range n.Nodes[i].Parents {
			if err := visit(p); err != nil {
				return err
			}
		}
		color[i] = black
		order = append(order, i)
		return nil
	}
	for i := range n.Nodes {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Sample draws one joint configuration and writes it into row (a full
// schema-width row; only the attributes covered by the network are
// touched). It returns the per-node sampled domain indices.
func (n *Network) Sample(rng *rand.Rand, row []dataset.Value) []int {
	sampled := make([]int, len(n.Nodes))
	for _, i := range n.order {
		node := n.Nodes[i]
		rowIdx := n.configIndex(i, sampled)
		v := node.CPT[rowIdx].Sample(rng)
		sampled[i] = v
		row[node.Attr] = dataset.Nom(v)
	}
	return sampled
}
