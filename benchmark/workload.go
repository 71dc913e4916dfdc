package main

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
)

// env is what a workload is booted with.
type env struct {
	fx  *fixture
	w   int    // scoring workers and client count: min(GOMAXPROCS, 4)
	dir string // scratch directory for registries, inside the benchmark's out/
	// corrupt makes boot falsify the oracle's expectations — the self-test
	// that a wrong output is counted as a failed operation.
	corrupt bool
}

// tamper falsifies an expectation when the self-test asks for it.
func (e *env) tamper(x expect) expect {
	if e.corrupt {
		x.count++
		x.digest ^= 1
	}
	return x
}

// workload is one row of the benchmark's workload table.
type workload interface {
	// boot builds what the workload needs beyond the shared fixture
	// (oracles, request bodies, servers, registries). It is part of
	// setup_s.
	boot(e *env) error
	// clients is the number of closed-loop callers, never more than W.
	clients() int
	// primary names the latency class behind audit_p50_ms.
	primary() string
	// run is one closed-loop operation, checked against the oracle.
	run(c, i int, tr *tracer, op int) opResult
	// settle runs after a measured loop and returns an error when a
	// whole-loop invariant broke (a re-induction fired, a shard retried,
	// the server saw a different request count than the clients sent).
	settle(ls *loopStats) error
	// quality is the §6.1 confusion matrix behind sensitivity and
	// specificity.
	quality() (evalx.Confusion, error)
	// replay runs the workload's operation once, stage by stage, under
	// the tracer. The caller has set GOMAXPROCS to 1 so that stages
	// cannot overlap and a composite's self time is what its stages
	// leave over.
	replay(tr *tracer) error
	// layers fills the workload's per-layer metrics from the untraced
	// loop and the replay's spans.
	layers(ls *loopStats, spans []span, self map[int]int64, out metricSet) error
	// close stops every server and goroutine the workload started.
	close()
}

func newWorkload(name string) workload {
	switch name {
	case "table_batch":
		return &tableBatch{}
	case "csv_stream":
		return &csvStream{}
	case "serve_mixed":
		return &serveMixed{}
	case "shard_batch":
		return &shardBatch{}
	case "maintain":
		return &maintain{}
	}
	return nil
}

// checker compares an operation's outcome with an expectation: the count
// every time, the digest the first time only (ranking and hashing a full
// suspicious list on every operation would tax the loop it measures).
type checker struct {
	want      expect
	digested  atomic.Bool
	everyTime bool // digest on every check (small outputs)
}

func (ck *checker) check(count int, verdicts func() []verdict) error {
	if count != ck.want.count {
		return fmt.Errorf("suspicious count %d, oracle says %d", count, ck.want.count)
	}
	if ck.everyTime || ck.digested.CompareAndSwap(false, true) {
		if got := digest(verdicts()); got != ck.want.digest {
			return fmt.Errorf("suspicious digest %016x, oracle says %016x", got, ck.want.digest)
		}
	}
	return nil
}

// Span names shared by the replays, so a stage has one name wherever it
// is measured.
const (
	spanFill       = "dataset.chunk_fill"
	spanCSVDecode  = "dataset.csv_decode"
	spanDims       = "audit.dims"
	spanCheckChunk = "audit.checkchunk"
	spanAuditTable = "audit.AuditTable"
	spanAuditStrm  = "audit.AuditStream"
	spanRank       = "audit.rank"
)

// batchChunkRows and streamChunkRows are the block sizes the batch and
// stream drivers feed CheckChunk (audit.batchChunkRows and the
// StreamOptions default); the replays must cut the same blocks.
const (
	batchChunkRows  = 4096
	streamChunkRows = 1024
)

// tracedAuditTable runs the one-worker batch driver as one span under
// parent and returns the span's ID for replayTableStages.
func tracedAuditTable(tr *tracer, op, parent int, replay bool, m *audit.Model, tab *dataset.Table) (int, *audit.Result) {
	id := tr.begin(op, parent, spanAuditTable, replay)
	res := m.AuditTable(tab)
	tr.end(id, int64(tab.NumRows()), 0)
	return id, res
}

// replayTableStages re-runs the batch driver's three stages block by
// block, in the driver's order, as replay children of the AuditTable
// span: what that span's duration leaves over after them is report
// materialisation and loop overhead.
func replayTableStages(tr *tracer, op, parent int, m *audit.Model, tab *dataset.Table) {
	n := tab.NumRows()
	ck := dataset.NewColumnChunk(tab.Schema())
	scratch := audit.NewChunkScratch(m) // fresh per audit, as the drivers do
	dims := audit.NewDimTracker(tab.Schema())
	for lo := 0; lo < n; lo += batchChunkRows {
		hi := min(lo+batchChunkRows, n)
		rows := int64(hi - lo)
		s := tr.begin(op, parent, spanFill, true)
		tab.ChunkInto(ck, lo, hi)
		tr.end(s, rows, 0)
		s = tr.begin(op, parent, spanDims, true)
		dims.ObserveChunk(ck)
		tr.end(s, rows, 0)
		s = tr.begin(op, parent, spanCheckChunk, true)
		m.CheckChunk(ck, int64(lo), scratch)
		tr.end(s, rows, 0)
	}
}

// countingReader counts the bytes a decoder pulled.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// tracedAuditStream runs a stream driver call over CSV bytes as one span
// under parent (through drive, so the serving replay can hang its monitor
// hooks on it) and returns the span's ID for replayStreamStages.
func tracedAuditStream(tr *tracer, op, parent int, replay bool, m *audit.Model, csv []byte, drive func(src dataset.RowSource) (*audit.StreamResult, error)) (int, *audit.StreamResult, error) {
	src, err := dataset.NewCSVSource(bytes.NewReader(csv), m.Schema)
	if err != nil {
		return 0, nil, err
	}
	id := tr.begin(op, parent, spanAuditStrm, replay)
	res, err := drive(src)
	if err != nil {
		return 0, nil, err
	}
	tr.end(id, res.RowsChecked, int64(len(csv)))
	return id, res, nil
}

// replayStreamStages re-runs decode, dims and kernel chunk by chunk as
// replay children of the AuditStream span: the remainder is queueing,
// fold and top-K.
func replayStreamStages(tr *tracer, op, parent int, m *audit.Model, csv []byte) error {
	cr := &countingReader{r: bytes.NewReader(csv)}
	src, err := dataset.NewCSVSource(cr, m.Schema)
	if err != nil {
		return err
	}
	ck := dataset.NewColumnChunk(m.Schema)
	scratch := audit.NewChunkScratch(m)
	dims := audit.NewDimTracker(m.Schema)
	var first, read int64
	for {
		ck.Reset()
		s := tr.begin(op, parent, spanCSVDecode, true)
		n, err := src.NextChunk(ck, streamChunkRows)
		tr.end(s, int64(n), cr.n-read)
		read = cr.n
		if err != nil && err != io.EOF {
			return err
		}
		if n == 0 {
			return nil
		}
		s = tr.begin(op, parent, spanDims, true)
		dims.ObserveChunk(ck)
		tr.end(s, int64(n), 0)
		s = tr.begin(op, parent, spanCheckChunk, true)
		m.CheckChunk(ck, first, scratch)
		tr.end(s, int64(n), 0)
		first += int64(n)
	}
}

// metricSet collects named values for one run.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a timing, Pct the percentile
	// actually reported (50 for a median); both 0 for counts and ratios.
	N   int     `json:"n,omitempty"`
	Pct float64 `json:"pct,omitempty"`
}

func (ms metricSet) set(name string, v float64) {
	ms[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// setMedian records the median of the samples.
func (ms metricSet) setMedian(name string, xs []float64) {
	ms[name] = metricValue{Value: median(xs), Unit: unitOf(name), N: len(xs), Pct: 50}
}

// setTail records the wanted percentile, or the highest one the sample
// count supports, and which it was.
func (ms metricSet) setTail(name string, xs []float64, want float64) {
	v, used := tail(xs, want)
	ms[name] = metricValue{Value: v, Unit: unitOf(name), N: len(xs), Pct: used}
}
