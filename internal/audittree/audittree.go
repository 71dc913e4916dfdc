// Package audittree packages the paper's §5.4 adjustments of C4.5 for the
// data-auditing context into a ready-made trainer:
//
//   - pre-pruning via the minimal instance count minInst derived from the
//     user's minimum error confidence,
//   - integrated pruning by expected error confidence (Definition 9)
//     replacing C4.5's pessimistic-error criterion,
//   - transformation of the decision tree into an equivalent rule set with
//     deletion of the rules that cannot contribute to error detection.
//
// The resulting rule sets "build the structure model of the data. In
// database terminology it can be seen as a set of integrity constraints
// that must hold with a given probability" (§5.4).
package audittree

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dataaudit/internal/c45"
	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// FilterMode selects which extracted rules are deleted.
type FilterMode uint8

const (
	// FilterPaper deletes rules with an expected error confidence of zero
	// and rules whose best achievable error confidence stays below the
	// minimum confidence — the full §5.4 behaviour.
	FilterPaper FilterMode = iota
	// FilterReachableOnly keeps zero-expErrorConf rules (pure leaves) as
	// long as they could flag a deviation in unseen data; useful when the
	// structure model is induced offline and applied to new loads (§2.2).
	FilterReachableOnly
	// FilterNone keeps every rule.
	FilterNone
)

// ParseFilterMode reads a filter mode by name: "paper" (or ""),
// "reachable-only" (or its short form "reachable") and "none".
func ParseFilterMode(name string) (FilterMode, error) {
	switch name {
	case "", "paper":
		return FilterPaper, nil
	case "reachable-only", "reachable":
		return FilterReachableOnly, nil
	case "none":
		return FilterNone, nil
	}
	return 0, fmt.Errorf("unknown filter mode %q (want paper, reachable-only or none)", name)
}

// Options configure the adjusted inducer.
type Options struct {
	// MinConfidence is the user's minimal error confidence for detected
	// errors (the paper's evaluation fixes 0.8).
	MinConfidence float64
	// ConfLevel is the one-sided confidence level for all interval bounds
	// (default 0.95).
	ConfLevel float64
	// Filter selects the rule-deletion mode (default FilterPaper).
	Filter FilterMode
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.ConfLevel == 0 {
		o.ConfLevel = 0.95
	}
	return o
}

// Trainer induces audit-adjusted trees and converts them to rule sets.
type Trainer struct {
	Opts Options
}

var _ mlcore.Trainer = (*Trainer)(nil)

// Train implements mlcore.Trainer: it induces the adjusted tree and returns
// the filtered rule set (the structure model used for deviation detection).
func (t *Trainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	rs, err := t.TrainRuleSet(ins)
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// inner builds the §5.4-adjusted C4.5 trainer.
func (t *Trainer) inner() *c45.Trainer {
	opts := t.Opts.WithDefaults()
	minInst := stats.MinInstForConfidence(opts.MinConfidence, opts.ConfLevel)
	return &c45.Trainer{Opts: c45.Options{
		UseGainRatio:    true,
		MinInst:         float64(minInst),
		ExpErrConfPrune: true,
		MinErrConf:      opts.MinConfidence,
		ConfLevel:       opts.ConfLevel,
	}}
}

// TrainRuleSet induces the tree and extracts the filtered rule set.
func (t *Trainer) TrainRuleSet(ins *mlcore.Instances) (*RuleSet, error) {
	return t.TrainRuleSetWarm(ins, nil)
}

// TrainRuleSetWarm induces the tree warm-started from a previous tree's
// skeleton (nil is a cold TrainRuleSet) and extracts the filtered rule
// set. The induced tree's own skeleton is stored on the rule set so the
// next re-induction can warm-start in turn.
func (t *Trainer) TrainRuleSetWarm(ins *mlcore.Instances, prev *c45.Skeleton) (*RuleSet, error) {
	tree, err := t.inner().TrainTreeWarm(ins, prev)
	if err != nil {
		return nil, err
	}
	rs := ExtractRules(tree, t.Opts.WithDefaults())
	rs.Hint = tree.Skeleton()
	return rs, nil
}

// Cond is one test on a root-to-leaf path.
type Cond struct {
	// Attr is the tested column.
	Attr int
	// IsNumeric distinguishes threshold tests from nominal equality.
	IsNumeric bool
	// Val is the required nominal domain index.
	Val int
	// Thresh and Gt encode the numeric test: value > Thresh when Gt,
	// value <= Thresh otherwise.
	Thresh float64
	Gt     bool
}

// Matches evaluates the condition on a row; a null value never matches
// (a rule whose antecedent cannot be evaluated is not applicable).
func (c Cond) Matches(row []dataset.Value) bool {
	v := row[c.Attr]
	if v.IsNull() {
		return false
	}
	if c.IsNumeric {
		if c.Gt {
			return v.Float() > c.Thresh
		}
		return v.Float() <= c.Thresh
	}
	return v.IsNominal() && v.NomIdx() == c.Val
}

// Render pretty-prints the condition.
func (c Cond) Render(s *dataset.Schema) string {
	a := s.Attr(c.Attr)
	if c.IsNumeric {
		op := "<="
		if c.Gt {
			op = ">"
		}
		return fmt.Sprintf("%s %s %s", a.Name, op, a.Format(dataset.Num(c.Thresh)))
	}
	return fmt.Sprintf("%s = %s", a.Name, a.Domain[c.Val])
}

// Rule is one root-to-leaf path with the leaf's class distribution.
type Rule struct {
	Conds []Cond
	// Dist is the leaf's weighted class distribution; its Total is the n
	// of Definition 7.
	Dist mlcore.Distribution
	// ExpErrConf caches Definition 9 for the leaf.
	ExpErrConf float64
	// MaxErrConf caches the best error confidence the rule could assign
	// (observed class probability 0).
	MaxErrConf float64
}

// Matches reports whether every condition holds on the row.
func (r *Rule) Matches(row []dataset.Value) bool {
	for _, c := range r.Conds {
		if !c.Matches(row) {
			return false
		}
	}
	return true
}

// Render pretty-prints the rule in the paper's §6.2 style
// ("KBM = 01 ∧ GBM = 901 → BRV = 501").
func (r *Rule) Render(s *dataset.Schema, classLabel func(int) string) string {
	parts := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		parts[i] = c.Render(s)
	}
	best, _ := r.Dist.Best()
	lhs := strings.Join(parts, " ∧ ")
	if lhs == "" {
		lhs = "⊤"
	}
	return fmt.Sprintf("%s → %s  [n=%.0f]", lhs, classLabel(best), r.Dist.N())
}

// RuleSet is the structure model for one class attribute: the filtered
// rules extracted from the audit-adjusted tree. It implements
// mlcore.Classifier so it can drive deviation detection directly; rows
// matching no retained rule answer with an empty distribution (no evidence,
// no error flagged) — this is what causes the paper's Figure-3 jump at
// 6000 records ("As these rule are deleted, they cannot be used for error
// detection").
type RuleSet struct {
	Rules []Rule
	// K is the number of class values.
	K int
	// Dropped counts the rules deleted by filtering (for reports).
	Dropped int
	// Hint is the skeleton of the tree the rules were extracted from; it
	// seeds the next warm re-induction and gob-serializes with the model.
	// Rule sets decoded from before the field existed carry nil (Update
	// then falls back to a cold retrain).
	Hint *c45.Skeleton

	// compileOnce builds the trie matcher lazily (see Compile). Both fields
	// are unexported: gob ignores them and a decoded RuleSet recompiles.
	compileOnce sync.Once
	trie        *trieNode
}

var _ mlcore.Classifier = (*RuleSet)(nil)
var _ mlcore.IncrementalClassifier = (*RuleSet)(nil)

// Update implements mlcore.IncrementalClassifier by warm re-induction:
// the tree is regrown over full seeded with the stored skeleton (only
// subtrees whose split became inadmissible re-search), then rules are
// re-extracted and re-filtered. The trainer must be the
// *audittree.Trainer carrying the filter options; any other is refused
// with mlcore.ErrForeignTrainer. The successor is quality-equivalent to
// a cold retrain.
func (rs *RuleSet) Update(trainer mlcore.Trainer, full *mlcore.Instances) (mlcore.Classifier, error) {
	tr, ok := trainer.(*Trainer)
	if !ok {
		return nil, fmt.Errorf("audittree: update with a %T: %w", trainer, mlcore.ErrForeignTrainer)
	}
	return tr.TrainRuleSetWarm(full, rs.Hint)
}

// Compile builds the trie matcher. Rules extracted from a tree are
// disjoint prefix paths, which the trie descends to the unique match in
// O(depth); a rule set without that shape (one rule's antecedent a prefix
// of another's, say) has no trie and is an error. Matching compiles on
// first use; audit.Decode calls Compile so that a model file holding such
// a rule set fails to load instead.
func (rs *RuleSet) Compile() error {
	rs.compileOnce.Do(func() { rs.trie = compileRules(rs.Rules) })
	if rs.trie == nil {
		return fmt.Errorf("audittree: rule set does not have tree shape")
	}
	return nil
}

var _ mlcore.Checker = (*RuleSet)(nil)

// Check implements mlcore.Checker: every rule tests columns of schema
// other than class, each as its type and a nominal one against a value of
// its domain; the rules compile (see Compile); every rule counts k
// classes; and the stored hint fits the schema too.
func (rs *RuleSet) Check(schema *dataset.Schema, class, k int) error {
	for i, r := range rs.Rules {
		for _, c := range r.Conds {
			if err := mlcore.CheckAttr(schema, class, c.Attr); err != nil {
				return fmt.Errorf("audittree: rule %d: %w", i, err)
			}
			a := schema.Attr(c.Attr)
			if c.IsNumeric != a.IsNumberLike() || !c.IsNumeric && (c.Val < 0 || c.Val >= a.NumValues()) {
				return fmt.Errorf("audittree: rule %d: test of attribute %d (%s) does not fit it", i, c.Attr, a.Name)
			}
		}
	}
	if err := rs.Compile(); err != nil {
		return err
	}
	if rs.K != k {
		return fmt.Errorf("audittree: rule set over %d classes, want %d", rs.K, k)
	}
	for i, r := range rs.Rules {
		if err := mlcore.CheckDist(r.Dist, k); err != nil {
			return fmt.Errorf("audittree: rule %d: %w", i, err)
		}
	}
	if err := rs.Hint.Check(schema, class); err != nil {
		return fmt.Errorf("audittree: %w", err)
	}
	return nil
}

// root returns the compiled trie. Every rule set a process can hold came
// out of ExtractRules or through audit.Decode, so a shapeless one here is
// a bug.
func (rs *RuleSet) root() *trieNode {
	if err := rs.Compile(); err != nil {
		panic(err)
	}
	return rs.trie
}

// match returns the rule matching the row, or nil.
func (rs *RuleSet) match(row []dataset.Value) *Rule {
	if i := rs.root().match(row); i >= 0 {
		return &rs.Rules[i]
	}
	return nil
}

// PredictInto implements mlcore.Classifier without allocating: the
// matched rule's distribution is copied into the caller's scratch buffer;
// rows matching no retained rule answer with an empty distribution.
func (rs *RuleSet) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	if r := rs.match(row); r != nil {
		d.CopyFrom(r.Dist)
		return
	}
	d.Reset(rs.K)
}

// ExtractRules walks the tree and converts every root-to-leaf path into a
// rule, then deletes rules according to the filter mode. Rules are ordered
// by descending support so that reports list the strongest dependencies
// first (tree paths are disjoint, so order does not affect PredictInto).
func ExtractRules(tree *c45.Tree, opts Options) *RuleSet {
	opts = opts.WithDefaults()
	rs := &RuleSet{K: tree.K}
	var walk func(n *c45.Node, conds []Cond)
	walk = func(n *c45.Node, conds []Cond) {
		if n.IsLeaf() {
			rule := Rule{
				Conds:      append([]Cond(nil), conds...),
				Dist:       n.Dist,
				ExpErrConf: c45.ExpErrorConfLeaf(n.Dist, opts.ConfLevel, opts.MinConfidence),
			}
			_, pHat := n.Dist.Best()
			rule.MaxErrConf = stats.ErrorConfidence(pHat, 0, n.Dist.N(), opts.ConfLevel)
			if keepRule(&rule, opts) {
				rs.Rules = append(rs.Rules, rule)
			} else {
				rs.Dropped++
			}
			return
		}
		if n.IsNumeric {
			walk(n.Children[0], append(conds, Cond{Attr: n.Attr, IsNumeric: true, Thresh: n.Thresh}))
			walk(n.Children[1], append(conds, Cond{Attr: n.Attr, IsNumeric: true, Thresh: n.Thresh, Gt: true}))
			return
		}
		for val, ch := range n.Children {
			walk(ch, append(conds, Cond{Attr: n.Attr, Val: val}))
		}
	}
	walk(tree.Root, nil)
	sort.SliceStable(rs.Rules, func(i, j int) bool {
		return rs.Rules[i].Dist.N() > rs.Rules[j].Dist.N()
	})
	return rs
}

func keepRule(r *Rule, opts Options) bool {
	switch opts.Filter {
	case FilterNone:
		return true
	case FilterReachableOnly:
		return r.MaxErrConf >= opts.MinConfidence
	default: // FilterPaper
		return r.ExpErrConf > 0 && r.MaxErrConf >= opts.MinConfidence
	}
}
