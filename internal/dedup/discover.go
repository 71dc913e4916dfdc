package dedup

import (
	"fmt"
	"math"
	"sort"

	"dataaudit/internal/assoc"
	"dataaudit/internal/dataset"
)

// Key discovery: which attributes make a good blocking key? A candidate
// key should identify records, so two properties matter:
//
//  1. It should not be functionally determined by other attributes.
//     The dormant Apriori machinery of internal/assoc finds exactly
//     these dependencies: a high-confidence single-consequent rule
//     X → y says y carries (almost) no identifying power beyond X, so
//     attributes appearing as rule consequents are excluded first.
//  2. Among the rest, higher selectivity (more distinct values per row)
//     identifies better, so candidates are ranked by distinct ratio.
//
// The discovery runs on a bounded sample (5000 rows): rule
// confidence and distinct ratios are both stable under sampling at the
// scales involved, and Apriori's counting pass is quadratic-ish in the
// frequent sets.

// Key discovery bounds.
const (
	// maxKeyAttrs caps the discovered key size.
	maxKeyAttrs = 3
	// sampleRows caps the rows used for key discovery.
	sampleRows = 5000
)

// DiscoverKey picks up to three blocking-key attributes from the
// accumulated rows, excluding attributes determined by high-confidence
// association rules and ranking the rest by selectivity.
func (d *Detector) DiscoverKey() ([]int, error) {
	if d.rows == 0 {
		return nil, fmt.Errorf("dedup: cannot discover a key on an empty detector")
	}
	sample := d.sampleTable(sampleRows)

	determined := make(map[int]bool)
	model, err := assoc.Mine(sample, assoc.Options{})
	if err != nil {
		return nil, fmt.Errorf("dedup: key discovery mining: %w", err)
	}
	for _, rule := range model.Rules {
		determined[rule.Consequent.Attr] = true
	}

	type candidate struct {
		attr     int
		distinct float64 // distinct ratio over non-null sample cells
	}
	rank := func(excludeDetermined bool) []candidate {
		var cands []candidate
		for c := 0; c < d.schema.Len(); c++ {
			if excludeDetermined && determined[c] {
				continue
			}
			cands = append(cands, candidate{attr: c, distinct: d.distinctRatio(sample, c)})
		}
		// Selectivity descending, column index as the deterministic tie
		// break.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].distinct != cands[j].distinct {
				return cands[i].distinct > cands[j].distinct
			}
			return cands[i].attr < cands[j].attr
		})
		return cands
	}

	cands := rank(true)
	if len(cands) == 0 {
		// Degenerate: every attribute is determined by some rule. Fall
		// back to pure selectivity over all attributes.
		cands = rank(false)
	}
	if len(cands) > maxKeyAttrs {
		cands = cands[:maxKeyAttrs]
	}
	key := make([]int, len(cands))
	for i, c := range cands {
		key[i] = c.attr
	}
	sort.Ints(key)
	return key, nil
}

// sampleTable materializes the first n accumulated rows as a Table for
// the mining pass.
func (d *Detector) sampleTable(n int) *dataset.Table {
	if n > d.rows {
		n = d.rows
	}
	tab := dataset.NewTable(d.schema)
	row := make([]dataset.Value, d.schema.Len())
	for r := 0; r < n; r++ {
		for c := range d.cols {
			col := &d.cols[c]
			switch {
			case col.numLike && math.IsNaN(col.num[r]):
				row[c] = dataset.Null()
			case col.numLike:
				row[c] = dataset.Num(col.num[r])
			case col.nom[r] < 0:
				row[c] = dataset.Null()
			default:
				row[c] = dataset.Nom(int(col.nom[r]))
			}
		}
		tab.AppendRow(row)
	}
	return tab
}

// distinctRatio is the sample's distinct non-null values per non-null
// cell for one attribute.
func (d *Detector) distinctRatio(sample *dataset.Table, c int) float64 {
	n := sample.NumRows()
	seen := make(map[uint64]bool)
	nonNull := 0
	for r := 0; r < n; r++ {
		v := sample.Get(r, c)
		if v.IsNull() {
			continue
		}
		nonNull++
		seen[dataset.HashValue(v)] = true
	}
	if nonNull == 0 {
		return 0
	}
	return float64(len(seen)) / float64(nonNull)
}
