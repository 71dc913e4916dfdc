package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
	"dataaudit/internal/registry"
)

const (
	maintModel     = "maint"
	reinducePerOp  = 4
	publishesPerOp = 10
	probeRows      = 2000
)

// maintain is the offline half of the paper's workflow. One operation is
// a maintenance cycle on the drifted table P: one full induction, four
// incremental re-inductions of every attribute from M, and ten registry
// publish + get pairs — the 10 : 40 : 100 proportions of a monitor that
// rebuilds rarely, patches often and publishes every time.
type maintain struct {
	e     *env
	reg   *registry.Registry
	attrs []int
	probe *dataset.Table // a small table each new model audits, to compare models by behaviour

	// The first induced and re-induced models set the reference: their
	// row-at-a-time verdicts on the probe. Induction is deterministic, so
	// every later model must audit the probe the same way.
	induced, reinduced         *checker
	lastInduced, lastReinduced *audit.Model
}

func (w *maintain) boot(e *env) error {
	w.e = e
	var err error
	if w.reg, err = registry.Open(filepath.Join(e.dir, "maintain")); err != nil {
		return err
	}
	for _, am := range e.fx.model.Attrs {
		w.attrs = append(w.attrs, am.Class)
	}
	w.probe = prefix(e.fx.full, probeRows)
	return nil
}

func (w *maintain) clients() int    { return 1 }
func (w *maintain) primary() string { return "op" }

func (w *maintain) induce() (*audit.Model, error) {
	return audit.Induce(w.e.fx.drift, induceOpts)
}

func (w *maintain) reinduce() (*audit.Model, error) {
	return w.e.fx.model.ReinduceAttrs(w.e.fx.drift, w.attrs,
		audit.ReinduceOptions{Mode: audit.ReinduceIncremental, Prev: w.e.fx.train})
}

// verify audits the probe with a fresh model through the chunk path and
// holds it against the reference, which the first call derives from the
// same model's row-at-a-time path.
func (w *maintain) verify(ref **checker, m *audit.Model) error {
	if *ref == nil {
		// The probe is small: digest every time.
		*ref = &checker{want: w.e.tamper(buildOracle(m, w.probe).rankedExpect()), everyTime: true}
	}
	sus := m.AuditTable(w.probe).Suspicious()
	return (*ref).check(len(sus), func() []verdict { return reportsVerdicts(sus) })
}

func (w *maintain) run(_, _ int, tr *tracer, op int) opResult {
	trained := w.e.fx.drift.NumRows()
	res := opResult{class: "op", rows: (1 + reinducePerOp) * trained}
	timed := func(name string, rows int, f func() error) {
		if res.err != nil {
			return
		}
		s := tr.begin(op, 0, name, false)
		start := time.Now()
		res.err = f()
		res.parts = append(res.parts, part{name, ms(time.Since(start))})
		tr.end(s, int64(rows), 0)
	}
	check := func(ref **checker, m *audit.Model) {
		if res.err == nil {
			res.err = w.verify(ref, m)
		}
	}

	timed("audit.induce", trained, func() (err error) {
		w.lastInduced, err = w.induce()
		return err
	})
	check(&w.induced, w.lastInduced)
	for i := 0; i < reinducePerOp; i++ {
		timed("audit.reinduce", trained, func() (err error) {
			w.lastReinduced, err = w.reinduce()
			return err
		})
		check(&w.reinduced, w.lastReinduced)
	}
	for i := 0; i < publishesPerOp; i++ {
		var meta registry.Meta
		timed("registry.publish", 0, func() (err error) {
			meta, err = w.reg.Publish(maintModel, w.lastReinduced)
			return err
		})
		timed("registry.get", 0, func() error {
			_, got, err := w.reg.Get(maintModel)
			if err == nil && got.Version != meta.Version {
				err = fmt.Errorf("registry served v%d after publishing v%d", got.Version, meta.Version)
			}
			return err
		})
	}
	return res
}

func (w *maintain) settle(*loopStats) error { return nil }

// qualityOf audits A100 with a maintained model and joins the pollution
// log: an induction change must leave this unmoved.
func (w *maintain) qualityOf(m *audit.Model) (evalx.Confusion, error) {
	if m == nil {
		return evalx.Confusion{}, fmt.Errorf("maintain: no model was induced")
	}
	fx := w.e.fx
	return evalx.Evaluate(fx.half, fx.log, m.AuditTableParallel(fx.half, w.e.w)), nil
}

func (w *maintain) quality() (evalx.Confusion, error) { return w.qualityOf(w.lastInduced) }

// replay is one more cycle under the tracer: its stages are plain calls
// into audit and registry, so there is nothing to re-run.
func (w *maintain) replay(tr *tracer) error {
	return w.run(0, 0, tr, tr.newOp()).err
}

func (w *maintain) layers(ls *loopStats, spans []span, _ map[int]int64, out metricSet) error {
	out.setMedian("induce_p50_ms", ls.lat["audit.induce"])
	out.setMedian("reinduce_p50_ms", ls.lat["audit.reinduce"])
	ind, re := aggregate(spans, "audit.induce"), aggregate(spans, "audit.reinduce")
	out.set("audit.induce.ns_per_row", ind.nsPerRow())
	out.set("audit.reinduce.ns_per_row", re.nsPerRow())
	if re.nsPerRow() > 0 {
		out.set("audit.reinduce_speedup", ind.nsPerRow()/re.nsPerRow())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := w.induce(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	out.set("audit.induce.allocs_per_row", float64(after.Mallocs-before.Mallocs)/float64(w.e.fx.drift.NumRows()))
	data, marshalMs, err := marshalModel(w.lastReinduced)
	if err != nil {
		return err
	}
	out.set("audit.model.bytes", float64(len(data)))
	out.set("audit.model_marshal.ms", marshalMs)
	out.setMedian("registry.publish.ms", aggregate(spans, "registry.publish").perCallMs)
	out.setMedian("registry.get.us", scale(aggregate(spans, "registry.get").perCallMs, 1e3))
	hits, misses, _, _ := w.reg.CacheStats()
	if hits+misses > 0 {
		out.set("registry.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	c, err := w.qualityOf(w.lastReinduced)
	out.set("audit.reinduce.sensitivity", c.Sensitivity())
	out.set("audit.reinduce.specificity", c.Specificity())
	return err
}

func (w *maintain) close() {}
