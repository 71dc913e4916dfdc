package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads one result file, or every *.json result file of a
// directory, and pools the untraced runs per workload.
func loadRuns(path string) (map[string][]runResult, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	runs := make(map[string][]runResult)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Runs {
			if !r.Trace {
				runs[r.Workload] = append(runs[r.Workload], r)
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", path)
	}
	return runs, nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median — the exclusive method Python's
// statistics.quantiles(values, n=4) uses, so the figures match the
// driver's. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		return -spread
	}
	return spread
}

// verdictOn judges one (metric, workload) pair. change is signed so that
// positive means b is worse than a.
func verdictOn(spec metricSpec, a, b []float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	if spec.Better == "higher" {
		change = -change
	}
	bound := *spec.Bound
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		// Too noisy to call, unless the two sides do not even overlap.
		if allBetter(spec, b, a) {
			return change, "same"
		}
		return change, "unresolved"
	}
	if change > bound {
		return change, "worse"
	}
	return change, "same"
}

// allBetter reports whether every value of xs reads better than every
// value of ys.
func allBetter(spec metricSpec, xs, ys []float64) bool {
	sx, sy := sorted(xs), sorted(ys)
	if spec.Better == "higher" {
		return sx[0] > sy[len(sy)-1]
	}
	return sx[len(sx)-1] < sy[0]
}

// runCompare prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and the verdict, and reports whether any
// pair is worse. A run that was not correct makes its side worse outright.
func runCompare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, ws := range workloadSpecs {
		ra, rb := a[ws.Name], b[ws.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range rb {
			if !r.Correct {
				fmt.Fprintf(w, "%-12s b has an incorrect run (%d of %d operations failed): worse\n", ws.Name, r.Failed, r.Attempted)
				anyWorse = true
			}
		}
		for _, spec := range endToEnd {
			va, vb := values(ra, spec.Name), values(rb, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing on one side: worse\n", ws.Name, spec.Name)
				anyWorse = true
				continue
			}
			change, verdict := verdictOn(spec, va, vb)
			anyWorse = anyWorse || verdict == "worse"
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (n=%d/%d)\n",
				ws.Name, spec.Name, median(va), median(vb), change*100, *spec.Bound*100, verdict, len(va), len(vb))
		}
	}
	return anyWorse, nil
}

func values(runs []runResult, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
