package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload for a moment
// in both modes: every metric BENCHMARK.json declares for the mode is
// there and finite, every end-to-end one non-zero, and no operation
// failed. The sample counts are far too small for the numbers to mean
// anything.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload twice")
	}
	for _, ws := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			name := ws.Name + "/loop"
			declared := endToEnd
			if trace {
				name, declared = ws.Name+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: ws.Name, seed: 7, seconds: 0.3, trace: trace, setups: 1}
				res := runWorkload(cfg, ws.Name, 2)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Error)
				}
				for _, spec := range declared {
					v, ok := res.Metrics[spec.Name]
					switch {
					case !ok:
						t.Errorf("%s is declared but was not emitted", spec.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", spec.Name, v.Value)
					case spec.Bound != nil && v.Value == 0:
						t.Errorf("end-to-end metric %s is 0", spec.Name)
					case v.Unit != spec.Unit:
						t.Errorf("%s has unit %q, declared %q", spec.Name, v.Unit, spec.Unit)
					}
				}
				if !trace {
					return
				}
				if v := res.Metrics["fail_ratio"].Value; v != 0 {
					t.Errorf("fail_ratio = %g", v)
				}
				for _, must := range []string{"monitor.reinductions", "shard.retries", "audit.checkchunk_warm.allocs_per_row"} {
					if v := res.Metrics[must].Value; v != 0 {
						t.Errorf("%s = %g, must be 0", must, v)
					}
				}
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("spans were not written: %v", err)
				}
			})
		}
	}
	if left, _ := filepath.Glob(filepath.Join(outDir, "run-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestCorruptedOracleIsCaught shows that the comparison with the oracle
// bites: with a falsified expectation every operation is a failed one and
// the run is not correct (main then exits 1).
func TestCorruptedOracleIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three workloads")
	}
	for _, name := range []string{"table_batch", "serve_mixed", "maintain"} {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{workload: name, seed: 7, seconds: 0.3, trace: trace, setups: 1, corrupt: true}
				res := runWorkload(cfg, name, 2)
				if res.Correct || res.Failed == 0 {
					t.Fatalf("trace=%v: a corrupted oracle went unnoticed: correct=%v failed=%d of %d", trace, res.Correct, res.Failed, res.Attempted)
				}
				if trace && res.Metrics["fail_ratio"].Value <= 0 {
					t.Errorf("fail_ratio = %g with a corrupted oracle", res.Metrics["fail_ratio"].Value)
				}
			}
		})
	}
}
