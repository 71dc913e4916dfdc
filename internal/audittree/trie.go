package audittree

import (
	"math"

	"dataaudit/internal/dataset"
)

// The compiled rule matcher. ExtractRules unfolds the decision tree into
// root-to-leaf rules, so a linear first-match scan re-evaluates the same
// root conditions once per rule — O(rules × conds) per prediction. But the
// rules of one tree are disjoint prefix paths: grouping them by their
// condition prefixes reassembles the tree, and matching becomes a single
// O(depth) descent to exactly the rule the linear scan (Rule.Matches, the
// tests' oracle) would find. Rule sets that do not have tree shape (e.g.
// hand-assembled ones where one rule's antecedent is a prefix of
// another's) fail compilation; RuleSet.Compile reports that.

// trieNode is one node of the compiled matcher.
type trieNode struct {
	// rule is the index of the rule terminating here, or -1. Terminal
	// nodes have no children (a tree leaf has no descendants).
	rule int
	// attr is the column the children test; isNumeric and thresh describe
	// a binary threshold split (le: value <= thresh, gt: value > thresh),
	// otherwise nom holds one child per tested domain value (nil entries
	// match no rule).
	attr      int
	isNumeric bool
	thresh    float64
	nom       []*trieNode
	le, gt    *trieNode
}

// match descends to the matching rule's index, or -1. The condition
// semantics mirror Cond.Matches exactly: a null value fails every test,
// and a non-nominal value fails a nominal test.
func (n *trieNode) match(row []dataset.Value) int {
	for n != nil {
		if n.rule >= 0 {
			return n.rule
		}
		v := row[n.attr]
		if v.IsNull() {
			return -1
		}
		if n.isNumeric {
			f := v.Float()
			if math.IsNaN(f) {
				// NaN fails both threshold tests in Cond.Matches, so no
				// rule through this node can match.
				return -1
			}
			if f <= n.thresh {
				n = n.le
			} else {
				n = n.gt
			}
			continue
		}
		if !v.IsNominal() {
			return -1
		}
		idx := v.NomIdx()
		if idx >= len(n.nom) {
			return -1
		}
		n = n.nom[idx]
	}
	return -1
}

// compileRules builds the trie, or returns nil when the rule set does not
// conform to the disjoint-prefix shape tree extraction guarantees.
func compileRules(rules []Rule) *trieNode {
	idxs := make([]int, len(rules))
	for i := range idxs {
		idxs[i] = i
	}
	return compileGroup(rules, idxs, 0)
}

// compileGroup builds the subtrie for the rules sharing a condition
// prefix of the given depth.
func compileGroup(rules []Rule, idxs []int, depth int) *trieNode {
	node := &trieNode{rule: -1}
	var rest []int
	for _, i := range idxs {
		if len(rules[i].Conds) == depth {
			if node.rule >= 0 {
				return nil // duplicate path: linear order would matter
			}
			node.rule = i
		} else {
			rest = append(rest, i)
		}
	}
	if node.rule >= 0 {
		if len(rest) > 0 {
			return nil // one rule is a prefix of another: order matters
		}
		return node
	}
	if len(rest) == 0 {
		return node // dead branch: matches nothing
	}

	// Every continuing rule must test the same attribute here (the
	// children of one tree split), and numeric tests must share the
	// threshold.
	first := rules[rest[0]].Conds[depth]
	node.attr, node.isNumeric, node.thresh = first.Attr, first.IsNumeric, first.Thresh
	maxVal := -1
	for _, i := range rest {
		c := rules[i].Conds[depth]
		if c.Attr != node.attr || c.IsNumeric != node.isNumeric {
			return nil
		}
		if node.isNumeric {
			if c.Thresh != node.thresh {
				return nil
			}
		} else if c.Val > maxVal {
			maxVal = c.Val
		}
	}

	if node.isNumeric {
		var le, gt []int
		for _, i := range rest {
			if rules[i].Conds[depth].Gt {
				gt = append(gt, i)
			} else {
				le = append(le, i)
			}
		}
		if len(le) > 0 {
			if node.le = compileGroup(rules, le, depth+1); node.le == nil {
				return nil
			}
		}
		if len(gt) > 0 {
			if node.gt = compileGroup(rules, gt, depth+1); node.gt == nil {
				return nil
			}
		}
		return node
	}

	byVal := make([][]int, maxVal+1)
	for _, i := range rest {
		v := rules[i].Conds[depth].Val
		byVal[v] = append(byVal[v], i)
	}
	node.nom = make([]*trieNode, maxVal+1)
	for v, group := range byVal {
		if len(group) == 0 {
			continue
		}
		if node.nom[v] = compileGroup(rules, group, depth+1); node.nom[v] == nil {
			return nil
		}
	}
	return node
}
