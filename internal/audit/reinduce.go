// Partial re-induction: rebuild the structure model for a subset of the
// audited attributes instead of the whole relation. This is the audit-layer
// half of the incremental-induction stack — the per-family warm starts
// live behind mlcore.IncrementalClassifier; ReinduceAttrs routes each
// requested attribute to the cheapest sound path and shares the untouched
// AttrModels with the predecessor.

package audit

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// ReinduceMode selects how a re-induced attribute's classifier is rebuilt.
type ReinduceMode string

const (
	// ReinduceIncremental freezes the attribute's discretizer bins and
	// routes through the family's IncrementalClassifier.Update (warm start
	// for trees and rule sets, frozen feature view for 1R), falling back
	// to a frozen-bin retrain when the family has no incremental path.
	// The default.
	ReinduceIncremental ReinduceMode = "incremental"
	// ReinduceFull re-induces the attribute from scratch, re-deriving the
	// discretizer from the new table — identical to what Induce would
	// produce for that attribute. Not a second path to the incremental
	// result: new bins make a different model.
	ReinduceFull ReinduceMode = "full"
)

// ReinduceOptions configure a partial re-induction.
type ReinduceOptions struct {
	// Mode defaults to ReinduceIncremental.
	Mode ReinduceMode
	// Prev has no effect. It once named the previous training table for a
	// row-level delta, which gave the same model as re-inducing from the
	// new table alone; it stays only until the benchmark harness stops
	// setting it.
	Prev *dataset.Table
}

// ReinduceAttrs returns a successor model in which the classifiers for the
// given class attributes (column indices) are re-induced from tab while
// every other AttrModel is shared, pointer-for-pointer, with the receiver.
// The receiver is never mutated — live scorers may keep serving it.
//
// The successor's quality baseline is NOT recomputed here: scoring is cheap
// (the columnar kernels run at ~tens of ns/row) and callers that maintain a
// QualityProfile re-derive it from the successor over their sample; the
// partiality lives in induction, where the cost is.
func (m *Model) ReinduceAttrs(tab *dataset.Table, attrs []int, ropts ReinduceOptions) (*Model, error) {
	opts := m.Opts.WithDefaults()
	if err := compatibleSchema(m.Schema, tab.Schema()); err != nil {
		return nil, fmt.Errorf("audit: reinduce: %w", err)
	}
	mode := ropts.Mode
	if mode == "" {
		mode = ReinduceIncremental
	}
	if mode != ReinduceIncremental && mode != ReinduceFull {
		return nil, fmt.Errorf("audit: reinduce: unknown mode %q", mode)
	}

	// Resolve every attribute's slot before any work starts: an unknown
	// or repeated attribute fails the call without training anything. A
	// repeat would race on one slot.
	pos := make([]int, len(attrs))
	for i, class := range attrs {
		if class < 0 || class >= m.Schema.Len() {
			return nil, fmt.Errorf("audit: reinduce: attribute index %d out of range", class)
		}
		pos[i] = slices.IndexFunc(m.Attrs, func(am *AttrModel) bool { return am.Class == class })
		switch {
		case pos[i] < 0:
			return nil, fmt.Errorf("audit: reinduce: attribute %s is not modelled", m.Schema.Attr(class).Name)
		case slices.Contains(pos[:i], pos[i]):
			return nil, fmt.Errorf("audit: reinduce: attribute %s listed twice", m.Schema.Attr(class).Name)
		}
	}

	start := time.Now()
	n := &Model{
		Schema:    m.Schema,
		Attrs:     append([]*AttrModel(nil), m.Attrs...),
		Opts:      m.Opts,
		TrainRows: tab.NumRows(),
	}

	// Each attribute writes only its own slot of n.Attrs, and reads only
	// its predecessor in m.Attrs, so the attributes re-induce concurrently.
	if i, err := forEachAttr(len(attrs), func(i int, scratch *[]float64) error {
		var am *AttrModel
		var err error
		if mode == ReinduceFull {
			am, err = induceAttr(tab, attrs[i], opts, scratch)
			if err == nil && am == nil {
				err = errors.New("no training signal in the new table")
			}
		} else {
			am, err = reinduceIncremental(m.Attrs[pos[i]], tab, opts)
		}
		n.Attrs[pos[i]] = am
		return err
	}); err != nil {
		return nil, fmt.Errorf("audit: reinduce attribute %s: %w", m.Schema.Attr(attrs[i]).Name, err)
	}
	n.InduceTime = time.Since(start)
	return n, nil
}

// reinduceIncremental rebuilds one attribute's classifier with frozen
// discretizer bins, class count and labels, preferring the family's
// incremental Update and falling back to a frozen-bin retrain when the
// family has none or the trainer is of another family.
func reinduceIncremental(prev *AttrModel, tab *dataset.Table, opts Options) (*AttrModel, error) {
	am := &AttrModel{
		Class:  prev.Class,
		Base:   prev.Base,
		K:      prev.K,
		Disc:   prev.Disc,
		Labels: prev.Labels,
	}
	full := mlcore.NewInstances(tab, am.Base, am.K, func(r int) int {
		return am.ClassIndex(tab.Get(r, am.Class))
	})
	trainer, err := trainerFor(opts)
	if err != nil {
		return nil, err
	}
	if ic, ok := prev.Classifier.(mlcore.IncrementalClassifier); ok {
		clf, err := ic.Update(trainer, full)
		if err == nil {
			am.Classifier = clf
			return am, nil
		}
		if !errors.Is(err, mlcore.ErrForeignTrainer) {
			return nil, err
		}
	}
	clf, err := trainer.Train(full)
	if err != nil {
		return nil, err
	}
	am.Classifier = clf
	return am, nil
}

// compatibleSchema checks that the new training table still describes the
// relation the model was induced on.
func compatibleSchema(want, got *dataset.Schema) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("schema width changed: model has %d attributes, table has %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Attr(i), got.Attr(i)
		if w.Name != g.Name || w.Type != g.Type {
			return fmt.Errorf("attribute %d changed: model has %s (%v), table has %s (%v)", i, w.Name, w.Type, g.Name, g.Type)
		}
	}
	return nil
}
