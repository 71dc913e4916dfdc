package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.NewGauge("test_level", "level")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 102.65; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// Cumulative: le=0.1 holds 0.05 and the boundary value 0.1.
	wantCum := []uint64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
}

func TestVecChildrenInternedOnce(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_rows_total", "rows", "model")
	a, b := v.With("m1"), v.With("m1")
	if a != b {
		t.Fatal("same label values returned different children")
	}
	if v.With("m2") == a {
		t.Fatal("different label values shared a child")
	}
}

func TestDeleteByLabel(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_rows_total", "rows", "model", "attr")
	v.With("m1", "a").Inc()
	v.With("m1", "b").Inc()
	v.With("m2", "a").Inc()
	v.DeleteByLabel("model", "m1")
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `model="m1"`) {
		t.Fatalf("deleted model still exported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `model="m2"`) {
		t.Fatalf("surviving model dropped:\n%s", out.String())
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate name":    func() { r.NewCounter("test_dup_total", "x") },
		"invalid name":      func() { r.NewCounter("0bad", "x") },
		"invalid label":     func() { r.NewCounterVec("test_l_total", "x", "0bad") },
		"unsorted buckets":  func() { r.NewHistogram("test_h", "x", []float64{2, 1}) },
		"no buckets":        func() { r.NewHistogram("test_h2", "x", nil) },
		"wrong label count": func() { r.NewCounterVec("test_lv_total", "x", "a").With("v1", "v2") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestExpositionGolden pins the exact text exposition format — HELP/TYPE
// lines, label escaping, histogram le series, value rendering and the
// deterministic family/series ordering — against a committed golden file.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	// Register in scrambled order: output must sort by family name.
	rows := r.NewCounterVec("dataaudit_rows_scored_total", "Rows scored through the audit routes, by model.", "model")
	rows.With("engines").Add(2048)
	rows.With("claims").Add(512)
	g := r.NewGauge("dataaudit_drift_delta_example", "Help with a \\ backslash and\na newline.")
	g.Set(0.125)
	esc := r.NewGaugeVec("dataaudit_escape_example", "Label escaping.", "name")
	esc.With("quote\" slash\\ newline\n").Set(1)
	h := r.NewHistogram("dataaudit_request_seconds_example", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	r.NewGaugeFunc("dataaudit_uptime_example", "Scrape-time gauge.", func() float64 { return 3.5 })
	r.NewCounterFunc("dataaudit_cache_hits_example_total", "Scrape-time counter.", func() uint64 { return 7 })
	inf := r.NewGauge("dataaudit_inf_example", "Non-finite values.")
	inf.Set(math.Inf(1))

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	// Scrapes of unchanged state are byte-identical.
	var again strings.Builder
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Fatal("two scrapes of the same state differ")
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from golden (UPDATE_GOLDEN=1 regenerates):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	if err := ValidateExposition(strings.NewReader(got)); err != nil {
		t.Fatalf("golden output fails its own validator: %v", err)
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("test_total", "x", "worker")
	h := r.NewHistogram("test_seconds", "x", DefLatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := c.With("w")
			for i := 0; i < 1000; i++ {
				child.Inc()
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := c.With("w").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestValidatorRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_help_or_type 1\n",
		"# HELP x h\n# TYPE x counter\nx{unclosed=\"v} 1\n",
		"# HELP x h\n# TYPE x counter\nx notanumber\n",
		"# HELP x h\n# TYPE x widget\nx 1\n",
	} {
		if err := ValidateExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("validator accepted malformed input:\n%s", bad)
		}
	}
}

func TestValidateExpositionOrdering(t *testing.T) {
	// Families out of name order must be rejected — ordering is part of
	// the determinism contract the golden test pins.
	in := "# HELP b h\n# TYPE b counter\nb 1\n# HELP a h\n# TYPE a counter\na 1\n"
	if err := ValidateExposition(strings.NewReader(in)); err == nil {
		t.Fatal("validator accepted out-of-order families")
	}
}
