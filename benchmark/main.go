// Command benchmark is this repository's one benchmark: five workloads
// over one seeded fixture, end-to-end metrics measured by an untraced
// closed loop, per-layer metrics from a separate traced pass, every
// output checked against a row-at-a-time oracle. See README.md.
//
//	cd benchmark
//	go run . -workload table_batch -seed 2003 -seconds 12 -trace 0
//	go run . -workload all -trace 1 -out out/result.json
//	go run . -compare before.json after.json
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is non-zero on
// a wrong output, a failed operation or a missing metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	outDir     = "out" // relative to the benchmark directory, git-ignored
	maxWorkers = 4
	// defaultSetups is how often a --trace 0 run builds its fixture and
	// boots its workload; setup_s is the median.
	defaultSetups = 3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	setups   int  // set-up repetitions of an untraced run
	corrupt  bool // self-test: falsify the oracle, expect failures
}

// runResult is one workload's entry in the result file.
type runResult struct {
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Error     string    `json:"error,omitempty"`
	Metrics   metricSet `json:"metrics"` // every metric measured, gated or not
	TraceFile string    `json:"trace_file,omitempty"`
}

// resultFile is what -out writes.
type resultFile struct {
	GoVersion  string      `json:"goversion"`
	NumCPU     int         `json:"numcpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Workers    int         `json:"workers"`
	Commit     string      `json:"commit"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Runs       []runResult `json:"runs"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{setups: defaultSetups}
	var traceFlag int
	var spec, compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 2003, "drives everything random: QUIS samples, pollution, request schedule")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured loop")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced loop, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "also write the full result (every metric, n, percentile used, machine) to this file")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&compare, "compare", false, "compare two result files or directories given as arguments")
	flag.BoolVar(&cfg.corrupt, "selftest-corrupt-oracle", false, "falsify the oracle: the run must report failures and exit non-zero")
	flag.Parse()
	cfg.trace = traceFlag != 0

	switch {
	case spec:
		data, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files or directories"))
		}
		worse, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	default:
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
		}
		ok, err := runAll(cfg)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs the selected workloads and reports whether all were correct.
func runAll(cfg config) (bool, error) {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if newWorkload(cfg.workload) == nil {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > runtime.NumCPU() {
		return false, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this machine: workers would time-slice", procs, runtime.NumCPU())
	}
	if cfg.seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	file := resultFile{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		Workers: min(procs, maxWorkers), Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds,
	}
	ok := true
	for _, name := range names {
		res := runWorkload(cfg, name, file.Workers)
		file.Runs = append(file.Runs, res)
		printRun(res)
		ok = ok && res.Correct
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// commit names the checkout, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload is one run: set-up, warm-up, the measured loop and, with
// tracing, the traced passes. A failure of the harness itself is reported
// like a failed operation, so that the run exits non-zero with a reason.
func runWorkload(cfg config, name string, workers int) (res runResult) {
	res = runResult{Workload: name, Trace: cfg.trace, Metrics: metricSet{}}
	fail := func(err error) runResult {
		res.Correct = false
		res.Error = err.Error()
		res.Attempted++
		res.Failed++
		res.Metrics.set("fail_ratio", float64(res.Failed)/float64(res.Attempted))
		return res
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	w, e, setupS, err := setUp(cfg, name, workers, scratch)
	if err != nil {
		return fail(err)
	}
	defer w.close()

	// One untimed warm-up operation per client: caches fill, connections
	// open, the model replicates to the shard workers.
	for c := 0; c < w.clients(); c++ {
		if r := w.run(c, 0, nil, 0); r.err != nil && !cfg.corrupt {
			return fail(fmt.Errorf("warm-up: %w", r.err))
		}
	}

	measure := func(d time.Duration, tr *tracer, heap bool) (loopStats, error) {
		if err := w.settle(nil); err != nil {
			return loopStats{}, err
		}
		ls := runLoop(d, w.clients(), w.run, tr, heap)
		if err := w.settle(&ls); err != nil {
			ls.attempted++
			ls.failed++
			if ls.firstErr == nil {
				ls.firstErr = err
			}
		}
		res.Attempted += ls.attempted
		res.Failed += ls.failed
		if ls.firstErr != nil && res.Error == "" {
			res.Error = ls.firstErr.Error()
		}
		return ls, nil
	}
	total := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		ls, err := measure(total, nil, false)
		if err != nil {
			return fail(err)
		}
		conf, err := w.quality()
		if err != nil {
			return fail(err)
		}
		m := res.Metrics
		m.setMedian("setup_s", setupS)
		m.set("rows_per_s", ls.rowsPerSec())
		m.setMedian("audit_p50_ms", ls.lat[w.primary()])
		m.set("alloc_b_per_row", float64(ls.allocBytes)/float64(ls.rows))
		m.set("sensitivity", conf.Sensitivity())
		m.set("specificity", conf.Specificity())
		// Not gated, but free: the tail of the same samples.
		m.setTail("audit_p95_ms", ls.lat[w.primary()], 95)
		res.Correct = res.Failed == 0
		return finish(res, endToEnd)
	}

	// Traced run. Half the time is the same untraced loop (tails, class
	// medians, process counters, the base of the overhead ratio); an
	// eighth is the loop again with a span per operation; the rest replays
	// the operation stage by stage on one processor.
	ls, err := measure(total/2, nil, true)
	if err != nil {
		return fail(err)
	}
	loopTr := newTracer()
	traced, err := measure(total/8, loopTr, false)
	if err != nil {
		return fail(err)
	}
	tr := newTracer()
	replayErr := func() error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		deadline := time.Now().Add(total * 3 / 8)
		for first := true; first || time.Now().Before(deadline); first = false {
			if err := w.replay(tr); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		return nil
	}()
	if replayErr != nil {
		return fail(replayErr)
	}
	spans := tr.spans
	m := res.Metrics
	// Set-up induced M once; maintain overwrites this with its own figure.
	m.set("audit.induce.ns_per_row", e.fx.induceMs*1e6/trainRows)
	if err := w.layers(&ls, spans, selfTimes(spans), m); err != nil {
		return fail(fmt.Errorf("layers: %w", err))
	}
	primary := ls.lat[w.primary()]
	m.setTail("audit_p95_ms", primary, 95)
	m.set("peak_heap_mb", float64(ls.peakHeap)/(1<<20))
	m.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	m.set("proc.gc_cycles", float64(ls.gcCycles))
	m.set("proc.gc_pause_total_ms", float64(ls.gcPauseNs)/1e6)
	m.set("proc.allocs_per_row", float64(ls.mallocs)/float64(ls.rows))
	m.set("proc.numcpu", float64(runtime.NumCPU()))
	m.set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	if base := median(primary); base > 0 {
		m.set("trace.overhead_ratio", median(traced.lat[w.primary()])/base)
	}
	res.TraceFile, err = writeTrace(outDir, name, cfg.seed, loopTr.spans, spans)
	if err != nil {
		return fail(err)
	}
	// A layer this workload does not run costs it nothing.
	for _, spec := range perLayer {
		if _, ok := m[spec.Name]; !ok {
			m.set(spec.Name, 0)
		}
	}
	res.Correct = res.Failed == 0
	return finish(res, perLayer)
}

// setUp builds the fixture and boots the workload, timed. Without tracing
// it does so cfg.setups times, tearing the earlier builds down, so that
// setup_s is a median and not one sample.
func setUp(cfg config, name string, workers int, scratch string) (w workload, e *env, seconds []float64, err error) {
	n := max(cfg.setups, 1)
	if cfg.trace {
		n = 1
	}
	for k := 0; k < n; k++ {
		if w != nil {
			w.close()
			w, e = nil, nil
			runtime.GC()
		}
		start := time.Now()
		fx, err := buildFixture(cfg.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		e = &env{fx: fx, w: workers, dir: filepath.Join(scratch, fmt.Sprintf("setup%d", k)), corrupt: cfg.corrupt}
		w = newWorkload(name)
		if err := w.boot(e); err != nil {
			w.close()
			return nil, nil, nil, fmt.Errorf("boot: %w", err)
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return w, e, seconds, nil
}

// finish holds the run to its contract: every declared metric present and
// finite, and every end-to-end metric non-zero.
func finish(res runResult, want []metricSpec) runResult {
	for _, spec := range want {
		v, ok := res.Metrics[spec.Name]
		switch {
		case !ok:
			res.Error = fmt.Sprintf("metric %s was not measured", spec.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			res.Error = fmt.Sprintf("metric %s is %v", spec.Name, v.Value)
		case spec.Bound != nil && v.Value == 0:
			res.Error = fmt.Sprintf("end-to-end metric %s is 0", spec.Name)
		default:
			continue
		}
		res.Correct = false
	}
	return res
}

// printRun lists every metric by name with its unit, then the contract
// line: the declared metrics of the run's mode and nothing else.
func printRun(res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s (trace %v): attempted %d, failed %d\n", res.Workload, res.Trace, res.Attempted, res.Failed)
	for _, name := range names {
		v := res.Metrics[name]
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("  (p%g of n=%d)", v.Pct, v.N)
		}
		fmt.Printf("%-40s %16.6g %s%s\n", name, v.Value, v.Unit, note)
	}
	if res.Error != "" {
		fmt.Printf("# first error: %s\n", res.Error)
	}
	if res.TraceFile != "" {
		fmt.Printf("# spans: %s\n", filepath.Join("benchmark", res.TraceFile))
	}
	declared := endToEnd
	if res.Trace {
		declared = perLayer
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, spec := range declared {
		if v, ok := res.Metrics[spec.Name]; ok {
			line.Metrics[spec.Name] = contractValue{v.Value, v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}
