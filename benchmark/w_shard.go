package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
	"dataaudit/internal/obs"
	"dataaudit/internal/registry"
	"dataaudit/internal/serve"
	"dataaudit/internal/shard"
)

const shardWorkers = 2

// shardBatch prices the shard layer: a coordinator splits A100 by range
// over two loopback workers scoring with the default inducer. The
// workers share the machine with the coordinator, so no scaling claim is
// made.
type shardBatch struct {
	e       *env
	oracle  *oracle
	chk     checker
	workers []*shardWorker
	coord   *shard.Coordinator
	metrics *obs.ShardMetrics
	meta    registry.Meta
	tr      *http.Transport
	// full compares the whole Result with the local path once.
	fullDone bool
	retries0 uint64
	localRPS float64 // AuditTableParallel(A100, W) rows/s, measured beside the loop
}

type shardWorker struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (w *shardBatch) boot(e *env) error {
	w.e = e
	fx := e.fx
	w.oracle = buildOracle(fx.model, fx.half)
	w.chk.want = e.tamper(w.oracle.rankedExpect())
	quiet := log.New(io.Discard, "", 0)
	var urls []string
	for i := 0; i < shardWorkers; i++ {
		reg, err := registry.Open(filepath.Join(e.dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return err
		}
		srv := serve.New(reg, serve.WithWorkers(1), serve.WithMetrics(false), serve.WithDashboard(false), serve.WithLogger(quiet))
		ts := httptest.NewServer(srv.Handler())
		w.workers = append(w.workers, &shardWorker{srv, ts})
		urls = append(urls, ts.URL)
	}
	reg, err := registry.Open(filepath.Join(e.dir, "coordinator"))
	if err != nil {
		return err
	}
	if w.meta, err = reg.Publish(serveModel, fx.model); err != nil {
		return err
	}
	w.metrics = obs.NewShardMetrics(obs.NewRegistry())
	w.tr = &http.Transport{MaxIdleConnsPerHost: 2}
	w.coord, err = shard.New(shard.Options{
		Workers: urls, Metrics: w.metrics, HTTPClient: &http.Client{Transport: w.tr},
	})
	return err
}

func (w *shardBatch) clients() int    { return 1 }
func (w *shardBatch) primary() string { return "op" }

func (w *shardBatch) run(_, _ int, tr *tracer, op int) opResult {
	fx := w.e.fx
	rows := fx.half.NumRows()
	s := tr.begin(op, 0, "shard.Coordinator.AuditTable", false)
	res, err := w.coord.AuditTable(context.Background(), fx.model, w.meta, fx.half)
	tr.end(s, int64(rows), 0)
	if err != nil {
		return opResult{class: "op", rows: rows, err: err}
	}
	s = tr.begin(op, 0, spanRank, false)
	sus := res.Suspicious()
	tr.end(s, int64(len(sus)), 0)
	err = w.chk.check(len(sus), func() []verdict { return reportsVerdicts(sus) })
	if err == nil && !w.fullDone {
		// Only the warm-up reaches here with fullDone unset: one client.
		w.fullDone = true
		err = sameResult(res, fx.model.AuditTable(fx.half))
	}
	return opResult{class: "op", rows: rows, err: err}
}

// sameResult holds the sharded Result gob-byte-equal to the local one
// (CheckTime aside).
func sameResult(got, want *audit.Result) error {
	enc := func(r *audit.Result) ([]byte, error) {
		c := *r
		c.CheckTime = 0
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(&c)
		return buf.Bytes(), err
	}
	a, err := enc(got)
	if err != nil {
		return err
	}
	b, err := enc(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("sharded Result differs from the local one (%d vs %d gob bytes)", len(a), len(b))
	}
	return nil
}

func (w *shardBatch) settle(ls *loopStats) error {
	now := w.metrics.Retries.Value()
	retried := now - w.retries0
	w.retries0 = now
	if ls != nil && retried != 0 {
		return fmt.Errorf("coordinator retried %d shard dispatches on healthy loopback workers", retried)
	}
	return nil
}

func (w *shardBatch) quality() (evalx.Confusion, error) {
	return w.oracle.quality(w.e.fx.half, w.e.fx.log), nil
}

// replay runs one coordinator audit and then re-runs, per shard, what the
// two sides do around the wire: chunk fill and encode, the worker's
// ScoreStream (with a decode-only pass inside it), the result codec, and
// finally the merge. GOMAXPROCS is 1 here, so the shards ran one after
// the other inside the composite too, and its self time — transport, HTTP,
// dispatch — is its duration minus all of them.
func (w *shardBatch) replay(tr *tracer) error {
	fx := w.e.fx
	op := tr.newOp()
	root := tr.begin(op, 0, "shard_batch.op", false)
	id := tr.begin(op, root, "shard.Coordinator.AuditTable", false)
	res, err := w.coord.AuditTable(context.Background(), fx.model, w.meta, fx.half)
	tr.end(id, int64(fx.half.NumRows()), 0)
	if err != nil {
		return err
	}
	s := tr.begin(op, root, spanRank, false)
	sus := res.Suspicious()
	tr.end(s, int64(len(sus)), 0)
	tr.end(root, int64(fx.half.NumRows()), 0)

	shards, err := shard.Split(fx.half, shard.StrategyRange, shardWorkers)
	if err != nil {
		return err
	}
	var parts []*audit.Result
	ck := dataset.NewColumnChunk(fx.half.Schema())
	for _, rows := range shards {
		var wire bytes.Buffer
		sw := dataset.NewChunkStreamWriter(&wire)
		for lo := 0; lo < len(rows); lo += batchChunkRows {
			hi := min(lo+batchChunkRows, len(rows))
			s := tr.begin(op, id, spanFill, true)
			fx.half.ChunkInto(ck, rows[lo], rows[hi-1]+1)
			tr.end(s, int64(hi-lo), 0)
			before := wire.Len()
			s = tr.begin(op, id, "dataset.chunk_encode", true)
			err := sw.Write(ck)
			tr.end(s, int64(hi-lo), int64(wire.Len()-before))
			if err != nil {
				return err
			}
		}
		encoded := wire.Bytes()

		score := tr.begin(op, id, "shard.worker_score", true)
		sr, err := shard.ScoreStream(fx.model, dataset.NewChunkStreamReader(bytes.NewReader(encoded)), w.meta.SchemaHash, 0)
		tr.end(score, int64(len(rows)), int64(len(encoded)))
		if err != nil {
			return err
		}
		s := tr.begin(op, score, "dataset.chunk_decode", true)
		rd := dataset.NewChunkStreamReader(bytes.NewReader(encoded))
		decoded := 0
		for {
			c, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			decoded += c.Rows()
		}
		tr.end(s, int64(decoded), int64(len(encoded)))

		var reply bytes.Buffer
		s = tr.begin(op, id, "shard.result_codec", true)
		if err := shard.EncodeShardResult(&reply, sr); err != nil {
			return err
		}
		back, err := shard.DecodeShardResult(&reply, len(rows), fx.half.NumCols())
		tr.end(s, int64(len(rows)), 0)
		if err != nil {
			return err
		}
		parts = append(parts, back.Result)
	}
	s = tr.begin(op, id, "shard.merge", true)
	_, err = audit.MergeResults(parts...)
	tr.end(s, int64(fx.half.NumRows()), 0)
	return err
}

// measureLocal times the local W-worker path on the same table for a
// moment, so shard.vs_local compares two numbers from one run.
func (w *shardBatch) measureLocal(d time.Duration) {
	fx := w.e.fx
	start := time.Now()
	ops := 0
	for time.Since(start) < d {
		fx.model.AuditTableParallel(fx.half, w.e.w).Suspicious()
		ops++
	}
	w.localRPS = float64(ops*fx.half.NumRows()) / time.Since(start).Seconds()
}

func (w *shardBatch) layers(ls *loopStats, spans []span, self map[int]int64, out metricSet) error {
	// dims and the kernel run inside shard.worker_score here and are not
	// split out again.
	out.set("dataset.chunk_fill.ns_per_row", aggregate(spans, spanFill).nsPerRow())
	enc := aggregate(spans, "dataset.chunk_encode")
	out.set("dataset.chunk_encode.ns_per_row", enc.nsPerRow())
	if enc.rows > 0 {
		out.set("dataset.chunk_wire.b_per_row", float64(enc.bytes)/float64(enc.rows))
	}
	out.set("dataset.chunk_decode.ns_per_row", aggregate(spans, "dataset.chunk_decode").nsPerRow())
	out.setMedian("shard.worker_score.ms", aggregate(spans, "shard.worker_score").perCallMs)
	out.setMedian("shard.result_codec.ms", aggregate(spans, "shard.result_codec").perCallMs)
	out.setMedian("shard.merge.ms", aggregate(spans, "shard.merge").perCallMs)
	_, _, selfMs := selfOf(spans, self, "shard.Coordinator.AuditTable")
	out.setMedian("shard.coordinator.self_ms", selfMs)
	out.set("shard.retries", float64(w.metrics.Retries.Value()))
	out.setMedian("audit.rank.ms", aggregate(spans, spanRank).perOpMs)
	out.set("audit.suspicious_share", float64(w.oracle.count)/float64(w.oracle.rows))
	out.set("audit.checkrow.ns_per_row", w.oracle.nsPerRow)

	w.measureLocal(time.Second)
	if w.localRPS > 0 {
		out.set("shard.vs_local", ls.rowsPerSec()/w.localRPS)
	}
	data, marshalMs, err := marshalModel(w.e.fx.model)
	out.set("audit.model.bytes", float64(len(data)))
	out.set("audit.model_marshal.ms", marshalMs)
	return err
}

// marshalModel times audit.Marshal, the encode behind registry.Publish
// and shard replication.
func marshalModel(m *audit.Model) ([]byte, float64, error) {
	start := time.Now()
	data, err := audit.Marshal(m)
	return data, ms(time.Since(start)), err
}

func (w *shardBatch) close() {
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	for _, wk := range w.workers {
		wk.ts.Close()
		wk.srv.Close()
	}
}
