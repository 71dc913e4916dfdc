// Partial re-induction: rebuild the structure model for a subset of the
// audited attributes instead of the whole relation. This is the audit-layer
// half of the incremental-induction stack — the per-family delta updates
// live behind mlcore.IncrementalClassifier; ReinduceAttrs routes each
// requested attribute to the cheapest sound path and shares the untouched
// AttrModels with the predecessor.

package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// for trees and rule sets, tally refresh for the count families),
	// falling back to a frozen-bin retrain when the family has no
	// incremental path. The default.
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
	// Prev, when non-nil, is the previous training table. Incremental mode
	// then hands the families a row-level delta (multiset difference of the
	// two tables) so count-maintained classifiers apply only the changed
	// rows. When nil — e.g. consecutive reservoir samples that share no
	// rows — the delta degenerates to a full replacement and the families
	// rebuild from the new table, still reusing their frozen state.
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
	// repeat would apply the row delta twice and race on one slot.
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

	// The row-level delta is shared by every re-induced attribute, so
	// compute it once up front.
	var addedTab, removedTab *dataset.Table
	if mode == ReinduceIncremental && ropts.Prev != nil {
		addedTab, removedTab = tableDiff(ropts.Prev, tab)
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
			am, err = reinduceIncremental(m.Attrs[pos[i]], tab, addedTab, removedTab, opts)
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
// incremental Update and falling back to a frozen-bin retrain.
func reinduceIncremental(prev *AttrModel, tab, addedTab, removedTab *dataset.Table, opts Options) (*AttrModel, error) {
	am := &AttrModel{
		Class:  prev.Class,
		Base:   prev.Base,
		K:      prev.K,
		Disc:   prev.Disc,
		Labels: prev.Labels,
	}
	insOver := func(t *dataset.Table) *mlcore.Instances {
		return mlcore.NewInstances(t, am.Base, am.K, func(r int) int {
			return am.ClassIndex(t.Get(r, am.Class))
		})
	}
	full := insOver(tab)
	d := mlcore.UpdateDelta{Full: full}
	if addedTab != nil {
		d.Added = insOver(addedTab)
		d.Removed = insOver(removedTab)
	}

	trainer, err := trainerFor(opts)
	if err != nil {
		return nil, err
	}
	if ic, ok := prev.Classifier.(mlcore.IncrementalClassifier); ok {
		if clf, err := ic.Update(trainer, d); err == nil {
			am.Classifier = clf
			return am, nil
		}
		// An unsound incremental path (e.g. a gob-decoded model predating
		// its raw tallies) falls through to a frozen-bin retrain.
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

// tableDiff computes the multiset row difference between two tables over
// the same schema: added holds rows of cur not matched in prev, removed the
// rows of prev not matched in cur, each in table order. Matching is by
// value (record IDs are ignored — reservoir samples renumber rows), with
// null, nominal and numeric values keyed distinctly so e.g. Nom(1) never
// collides with Num(1).
func tableDiff(prev, cur *dataset.Table) (added, removed *dataset.Table) {
	// Each distinct row key gets a slot; counts[slot] is how many of
	// prev's rows with that key are still unmatched. Looking a key up as
	// slots[string(key)] does not allocate, so only a new key costs one.
	slots := make(map[string]int32, prev.NumRows())
	var counts []int
	prevSlots := make([]int32, prev.NumRows())
	row := make([]dataset.Value, prev.NumCols())
	var key []byte
	for r := 0; r < prev.NumRows(); r++ {
		key = appendRowKey(key[:0], prev.RowInto(r, row))
		slot, ok := slots[string(key)]
		if !ok {
			slot = int32(len(counts))
			slots[string(key)] = slot
			counts = append(counts, 0)
		}
		prevSlots[r] = slot
		counts[slot]++
	}
	added = dataset.NewTable(cur.Schema())
	for r := 0; r < cur.NumRows(); r++ {
		key = appendRowKey(key[:0], cur.RowInto(r, row))
		if slot, ok := slots[string(key)]; ok && counts[slot] > 0 {
			counts[slot]--
		} else {
			added.AppendRow(row)
		}
	}
	removed = dataset.NewTable(prev.Schema())
	for r, slot := range prevSlots {
		if counts[slot] > 0 {
			counts[slot]--
			removed.AppendRow(prev.RowInto(r, row))
		}
	}
	return added, removed
}

// Row key cell tags. The tag fixes the payload width that follows it, so
// keys of rows over one schema compare equal exactly when every cell does.
const (
	keyNull    = 0
	keyNominal = 1
	keyNumber  = 2
)

// canonicalNaN is the one bit pattern every NaN is keyed as, so all NaNs
// match each other; every other float keys as its own bits, so -0 and +0
// stay distinct.
var canonicalNaN = math.Float64bits(math.NaN())

// appendRowKey appends the binary multiset key of a row to b: per cell a
// tag byte, then the 4-byte nominal index or the 8-byte float bits.
func appendRowKey(b []byte, row []dataset.Value) []byte {
	for _, v := range row {
		switch {
		case v.IsNull():
			b = append(b, keyNull)
		case v.IsNominal():
			b = append(b, keyNominal)
			b = binary.LittleEndian.AppendUint32(b, uint32(v.NomIdx()))
		default:
			f := v.Float()
			bits := math.Float64bits(f)
			if math.IsNaN(f) {
				bits = canonicalNaN
			}
			b = append(b, keyNumber)
			b = binary.LittleEndian.AppendUint64(b, bits)
		}
	}
	return b
}
