package audit

import (
	"fmt"

	"dataaudit/internal/dataset"
)

// Merge appends another result's rows to r and accumulates its check
// time: o's reports, their Row shifted by r.Rows, so that the merged
// result looks like one contiguous table audit of r.Rows + o.Rows rows.
// Use it to combine audits of horizontal table shards (e.g. per-batch
// scoring in a streaming load).
//
// Results from relations of different widths must not be merged — their
// findings' attribute indices would silently point at the wrong columns.
// Merge rejects them (and any report whose findings reference an
// out-of-width attribute) with a dataset.RowWidthError wrapping
// dataset.ErrRowWidth; r is unchanged on error.
func (r *Result) Merge(o *Result) error {
	if r.NumAttrs > 0 && o.NumAttrs > 0 && r.NumAttrs != o.NumAttrs {
		return &dataset.RowWidthError{Got: o.NumAttrs, Want: r.NumAttrs}
	}
	width := r.NumAttrs
	if width == 0 {
		width = o.NumAttrs
	}
	if width > 0 {
		for _, rep := range o.Reports {
			for i := range rep.Findings {
				if a := rep.Findings[i].Attr; a < 0 || a >= width {
					return fmt.Errorf("audit: report for row %d references attribute %d outside the %d-attribute schema: %w",
						rep.Row, a, width, dataset.ErrRowWidth)
				}
			}
		}
	}
	if r.NumAttrs == 0 {
		r.NumAttrs = o.NumAttrs
	}
	switch {
	case r.Dims == nil:
		// First (or only) part with dims: adopt a deep copy so later
		// merges never mutate the source result.
		r.Dims = CloneDims(o.Dims)
	case o.Dims != nil:
		MergeDims(r.Dims, o.Dims)
	}
	offset := r.Rows
	r.Rows += o.Rows
	for _, rep := range o.Reports {
		if rep.Row >= 0 {
			rep.Row += offset
		}
		// Re-point Best into the copied findings slice.
		rep.Findings = append([]Finding(nil), rep.Findings...)
		rep.RepointBest()
		r.Reports = append(r.Reports, rep)
	}
	r.CheckTime += o.CheckTime
	return nil
}

// MergeResults combines per-shard results in order into one Result; it
// fails with a dataset.RowWidthError when the shards disagree on the
// relation width.
func MergeResults(parts ...*Result) (*Result, error) {
	out := &Result{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := out.Merge(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
