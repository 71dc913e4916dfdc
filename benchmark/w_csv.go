package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
)

const streamTopK = 100

// csvStream is the file-to-report path of a warehouse load: the CSV bytes
// of A100 are decoded chunk by chunk into the streaming engine, which
// keeps only the top-K suspicious records.
type csvStream struct {
	e      *env
	oracle *oracle
	csv    []byte
	chk    checker
}

func (w *csvStream) boot(e *env) error {
	w.e = e
	w.oracle = buildOracle(e.fx.model, e.fx.half)
	w.chk.want = e.tamper(w.oracle.topExpect(streamTopK))
	var err error
	w.csv, err = csvBytes(e.fx.half)
	return err
}

func (w *csvStream) clients() int    { return 1 }
func (w *csvStream) primary() string { return "op" }

func (w *csvStream) stream(src dataset.RowSource, workers int) (*audit.StreamResult, error) {
	return w.e.fx.model.AuditStream(src, audit.StreamOptions{Workers: workers, TopK: streamTopK})
}

func (w *csvStream) run(_, _ int, tr *tracer, op int) opResult {
	rows := w.e.fx.half.NumRows()
	_, res, err := tracedAuditStream(tr, op, 0, false, w.e.fx.model, w.csv, func(src dataset.RowSource) (*audit.StreamResult, error) {
		return w.stream(src, w.e.w)
	})
	if err == nil && res.RowsChecked != int64(rows) {
		err = fmt.Errorf("stream checked %d rows, sent %d", res.RowsChecked, rows)
	}
	if err == nil {
		err = w.chk.check(int(res.NumSuspicious), func() []verdict { return reportsVerdicts(res.Top) })
	}
	return opResult{class: "op", rows: rows, err: err}
}

func (w *csvStream) settle(*loopStats) error { return nil }

func (w *csvStream) quality() (evalx.Confusion, error) {
	return w.oracle.quality(w.e.fx.half, w.e.fx.log), nil
}

func (w *csvStream) replay(tr *tracer) error {
	op := tr.newOp()
	id, _, err := tracedAuditStream(tr, op, 0, false, w.e.fx.model, w.csv, func(src dataset.RowSource) (*audit.StreamResult, error) {
		return w.stream(src, 1)
	})
	if err != nil {
		return err
	}
	return replayStreamStages(tr, op, id, w.e.fx.model, w.csv)
}

func (w *csvStream) layers(_ *loopStats, spans []span, self map[int]int64, out metricSet) error {
	fillStageMetrics(spans, out)
	fillDecodeMetrics(spans, out)
	selfNs, selfRows, _ := selfOf(spans, self, spanAuditStrm)
	if selfRows > 0 {
		out.set("audit.stream_driver.self_ns_per_row", float64(selfNs)/float64(selfRows))
	}
	out.set("audit.suspicious_share", float64(w.oracle.count)/float64(w.oracle.rows))
	out.set("audit.checkrow.ns_per_row", w.oracle.nsPerRow)
	alloc, err := decodeAlloc(w.csv, w.e.fx.model.Schema)
	out.set("dataset.csv_decode.alloc_b_per_row", alloc)
	return err
}

func (w *csvStream) close() {}

// fillDecodeMetrics reports CSV decode time and input bytes per row.
func fillDecodeMetrics(spans []span, out metricSet) {
	dec := aggregate(spans, spanCSVDecode)
	out.set("dataset.csv_decode.ns_per_row", dec.nsPerRow())
	if dec.rows > 0 {
		out.set("dataset.csv_decode.bytes_per_row", float64(dec.bytes)/float64(dec.rows))
	}
}

// decodeAlloc measures the bytes CSVSource.NextChunk allocates per row on
// a decode-only pass over the body.
func decodeAlloc(csv []byte, schema *dataset.Schema) (float64, error) {
	src, err := dataset.NewCSVSource(bytes.NewReader(csv), schema)
	if err != nil {
		return 0, err
	}
	ck := dataset.NewColumnChunk(schema)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := 0
	for {
		ck.Reset()
		n, err := src.NextChunk(ck, streamChunkRows)
		rows += n
		if err != nil && err != io.EOF {
			return 0, err
		}
		if n == 0 {
			break
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rows), nil
}
