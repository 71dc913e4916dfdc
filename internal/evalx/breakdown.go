package evalx

import (
	"fmt"
	"sort"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
)

// KindBreakdown reports detection quality per corruption kind. It
// quantifies the paper's §6.1 argument that "data auditing tools can
// principally only detect errors that are deviations from regularities,
// which is not the case for all error types": wrong values on
// rule-constrained attributes are detectable, duplicates of consistent
// records are not.
type KindBreakdown struct {
	Kind     pollute.Kind
	Total    int // records whose corruption includes this kind
	Detected int
}

// Rate is the per-kind sensitivity.
func (k KindBreakdown) Rate() float64 {
	if k.Total == 0 {
		return 0
	}
	return float64(k.Detected) / float64(k.Total)
}

// EvaluateByKind joins the audit verdicts with the pollution log per
// corruption kind over the rows of dirty, the audited table. A record
// corrupted by several polluters counts towards each of its kinds (the
// tool flags records, not causes).
func EvaluateByKind(dirty *dataset.Table, log *pollute.Log, res *audit.Result) []KindBreakdown {
	// Kinds per record.
	kinds := make(map[int64]map[pollute.Kind]bool)
	for _, e := range log.Events {
		if e.Kind == pollute.Delete {
			continue // absent from the dirty table
		}
		if kinds[e.RecordID] == nil {
			kinds[e.RecordID] = make(map[pollute.Kind]bool)
		}
		kinds[e.RecordID][e.Kind] = true
	}
	agg := make(map[pollute.Kind]*KindBreakdown)
	for row, rep := range res.ByRow(dirty.NumRows()) {
		ks, corrupted := kinds[dirty.ID(row)]
		if !corrupted {
			continue
		}
		for k := range ks {
			b := agg[k]
			if b == nil {
				b = &KindBreakdown{Kind: k}
				agg[k] = b
			}
			b.Total++
			if rep != nil && rep.Suspicious {
				b.Detected++
			}
		}
	}
	out := make([]KindBreakdown, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// RenderBreakdown formats the per-kind table.
func RenderBreakdown(breakdown []KindBreakdown) string {
	rows := make([][]string, len(breakdown))
	for i, b := range breakdown {
		rows[i] = []string{
			b.Kind.String(),
			fmt.Sprintf("%d", b.Total),
			fmt.Sprintf("%d", b.Detected),
			fmt.Sprintf("%.4f", b.Rate()),
		}
	}
	return FormatTable([]string{"corruption", "records", "detected", "sensitivity"}, rows)
}
