package main

import (
	"runtime"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
)

// tableBatch is the library / cmd/audit batch path: one caller scores the
// 200 000-row table A with W workers and ranks the suspicious records.
type tableBatch struct {
	e      *env
	oracle *oracle
	chk    checker
}

func (w *tableBatch) boot(e *env) error {
	w.e = e
	w.oracle = buildOracle(e.fx.model, e.fx.full)
	w.chk.want = e.tamper(w.oracle.rankedExpect())
	return nil
}

func (w *tableBatch) clients() int    { return 1 }
func (w *tableBatch) primary() string { return "op" }

func (w *tableBatch) run(_, _ int, tr *tracer, op int) opResult {
	fx := w.e.fx
	s := tr.begin(op, 0, "audit.AuditTableParallel", false)
	res := fx.model.AuditTableParallel(fx.full, w.e.w)
	tr.end(s, int64(fx.full.NumRows()), 0)
	s = tr.begin(op, 0, spanRank, false)
	sus := res.Suspicious()
	tr.end(s, int64(len(sus)), 0)
	err := w.chk.check(len(sus), func() []verdict { return reportsVerdicts(sus) })
	return opResult{class: "op", rows: fx.full.NumRows(), err: err}
}

func (w *tableBatch) settle(*loopStats) error { return nil }

func (w *tableBatch) quality() (evalx.Confusion, error) {
	return w.oracle.quality(w.e.fx.full, w.e.fx.log), nil
}

func (w *tableBatch) replay(tr *tracer) error {
	fx := w.e.fx
	op := tr.newOp()
	root := tr.begin(op, 0, "table_batch.op", false)
	id, res := tracedAuditTable(tr, op, root, false, fx.model, fx.full)
	s := tr.begin(op, root, spanRank, false)
	sus := res.Suspicious()
	tr.end(s, int64(len(sus)), 0)
	tr.end(root, int64(fx.full.NumRows()), 0)
	replayTableStages(tr, op, id, fx.model, fx.full)
	return nil
}

func (w *tableBatch) layers(ls *loopStats, spans []span, self map[int]int64, out metricSet) error {
	fx := w.e.fx
	rows := float64(fx.full.NumRows())
	fillStageMetrics(spans, out)
	table := aggregate(spans, spanAuditTable)
	selfNs, selfRows, _ := selfOf(spans, self, spanAuditTable)
	if selfRows > 0 {
		out.set("audit.batch_driver.self_ns_per_row", float64(selfNs)/float64(selfRows))
	}
	out.set("audit.batch_w1.ns_per_row", table.nsPerRow())
	rank := aggregate(spans, spanRank)
	out.setMedian("audit.rank.ms", rank.perOpMs)
	out.set("audit.suspicious_share", float64(w.oracle.count)/rows)
	out.set("audit.checkrow.ns_per_row", w.oracle.nsPerRow)

	// One-worker throughput of the whole operation (driver + rank), from
	// the replay, against the W-worker loop.
	if w1 := median(table.perOpMs) + median(rank.perOpMs); w1 > 0 {
		oneWorker := rows / (w1 / 1e3)
		out.set("audit.parallel_efficiency", ls.rowsPerSec()/(float64(w.e.w)*oneWorker))
	}

	warmNs, warmAllocs := warmKernel(fx.model, fx.full)
	out.set("audit.checkchunk_warm.ns_per_row", warmNs)
	out.set("audit.checkchunk_warm.allocs_per_row", warmAllocs)
	if warmNs > 0 {
		out.set("audit.batch_over_kernel", table.nsPerRow()/warmNs)
	}
	return nil
}

func (w *tableBatch) close() {}

// fillStageMetrics reports the three scoring stages every replay shares.
func fillStageMetrics(spans []span, out metricSet) {
	out.set("dataset.chunk_fill.ns_per_row", aggregate(spans, spanFill).nsPerRow())
	out.set("audit.dims.ns_per_row", aggregate(spans, spanDims).nsPerRow())
	out.set("audit.checkchunk.ns_per_row", aggregate(spans, spanCheckChunk).nsPerRow())
}

// warmKernel times CheckChunk over prebuilt chunks with one reused
// scratch after a pass that grew the scratch and filled the signature
// memo — the steady state BENCH_core called "checkchunk". The gap to the
// fresh-scratch number is what a memo kept across audits could save. It
// must not allocate.
func warmKernel(m *audit.Model, tab *dataset.Table) (nsPerRow, allocsPerRow float64) {
	n := tab.NumRows()
	var chunks []*dataset.ColumnChunk
	for lo := 0; lo < n; lo += batchChunkRows {
		ck := dataset.NewColumnChunk(tab.Schema())
		tab.ChunkInto(ck, lo, min(lo+batchChunkRows, n))
		chunks = append(chunks, ck)
	}
	scratch := audit.NewChunkScratch(m)
	pass := func() {
		row := int64(0)
		for _, ck := range chunks {
			m.CheckChunk(ck, row, scratch)
			row += int64(ck.Rows())
		}
	}
	pass()
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < passes; i++ {
		pass()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	total := float64(passes * n)
	return float64(elapsed.Nanoseconds()) / total, float64(after.Mallocs-before.Mallocs) / total
}
