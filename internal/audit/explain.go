package audit

import (
	"sort"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// This file supports the interactive error correction of §5.3: "the
// predicted distributions of all classifiers that indicate a data error
// can be useful in finding the true reason for a possible error. This is
// because a difference between an observed and predicted value sometimes
// lays in erroneous base attribute values."
//
// RootCause analysis operationalizes that remark: for a suspicious record,
// each audited attribute is hypothetically replaced by its classifier's
// suggestion and the record is re-checked; a substitution that clears (or
// strongly reduces) the overall error confidence identifies the cell whose
// correction explains the whole record.

// RootCause is one substitution hypothesis for a suspicious record.
type RootCause struct {
	// Attr is the column hypothesized to carry the actual error.
	Attr int
	// Substitution is the value that was tried in its place.
	Substitution dataset.Value
	// Residual is the record's overall error confidence after the
	// substitution (Definition 8 on the modified record).
	Residual float64
	// Clears reports whether the substitution brings the record below the
	// minimum confidence — the single-error explanation succeeded.
	Clears bool
}

// ExplainRow ranks single-cell substitution hypotheses for a suspicious
// record, best (lowest residual) first. It returns nil for records that
// are not suspicious in the first place.
func (m *Model) ExplainRow(row []dataset.Value) []RootCause {
	rep := m.CheckRow(row)
	if !rep.Suspicious {
		return nil
	}
	scratch := make([]dataset.Value, len(row))
	var out []RootCause
	var dist mlcore.Distribution
	for _, am := range m.Attrs {
		// The hypothesis value is what this attribute's own classifier
		// would predict from the rest of the record.
		am.Classifier.PredictInto(row, &dist)
		if dist.N() <= 0 {
			continue
		}
		best, _ := dist.Best()
		sub := am.SuggestedValue(best)
		if sub.Equal(row[am.Class]) {
			continue // no change, no hypothesis
		}
		copy(scratch, row)
		scratch[am.Class] = sub
		after := m.CheckRow(scratch)
		out = append(out, RootCause{
			Attr:         am.Class,
			Substitution: sub,
			Residual:     after.ErrorConf,
			Clears:       !after.Suspicious,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Residual < out[j].Residual })
	return out
}

// DescribeRootCause renders a hypothesis for quality-engineer output.
func (m *Model) DescribeRootCause(rc *RootCause) string {
	attr := m.Schema.Attr(rc.Attr)
	verdict := "does not fully explain the record"
	if rc.Clears {
		verdict = "explains the record"
	}
	return attr.Name + " := " + attr.Format(rc.Substitution) +
		" (" + verdict + ")"
}
