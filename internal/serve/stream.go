package serve

import (
	"encoding/json"
	"io"
	"mime"
	"net/http"
	"strconv"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
)

// The streaming audit endpoint: POST /v1/models/{name}/audit/stream
// accepts a text/csv or application/x-ndjson (JSONL) body of unbounded
// length and answers with NDJSON
// (application/x-ndjson), one line per suspicious record as soon as its
// chunk is scored — while the upload is still being read — terminated by
// a summary line. A chunk's report lines go out in one flush. Memory on
// the server stays O(chunk × workers + top-K) regardless of the upload
// size (audit.AuditStream), which is what lets auditd check
// warehouse-scale batches the buffered endpoint must reject.
//
// Line shapes (exactly one field set per line):
//
//	{"report": {...}}    one suspicious record, row order
//	{"summary": {...}}   terminal line of a successful stream
//	{"error": "..."}     terminal line of a failed stream
//
// Errors detected before the first row (unknown model, bad header, bad
// query parameters) are plain JSON error responses with a 4xx/5xx status;
// once streaming has begun the status is already 200 and failures arrive
// as the terminal error line.

// StreamLine is one NDJSON line of the streaming audit response.
type StreamLine struct {
	// Report is a suspicious record (row order, emitted incrementally).
	Report *ReportJSON `json:"report,omitempty"`
	// Summary terminates a successful stream.
	Summary *StreamSummaryJSON `json:"summary,omitempty"`
	// Error terminates a failed stream.
	Error string `json:"error,omitempty"`
}

// AttrTallyJSON is the per-attribute deviation tally of a stream.
type AttrTallyJSON struct {
	// Attr is the audited attribute's name.
	Attr string `json:"attr"`
	// Deviations counts findings with positive error confidence;
	// Suspicious those at or above the model's minimum confidence.
	Deviations int64 `json:"deviations"`
	Suspicious int64 `json:"suspicious"`
	// MaxErrorConf / MeanErrorConf summarize the deviation strengths.
	MaxErrorConf  float64 `json:"maxErrorConf"`
	MeanErrorConf float64 `json:"meanErrorConf"`
}

// TopRecordJSON is one entry of the summary's confidence ranking — the
// full reports were already emitted as report lines, so the ranking only
// carries the keys needed to find them.
type TopRecordJSON struct {
	Row       int     `json:"row"`
	ID        int64   `json:"id"`
	ErrorConf float64 `json:"errorConf"`
}

// StreamSummaryJSON is the terminal summary line.
type StreamSummaryJSON struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	// RowsChecked / NumSuspicious summarize the whole stream.
	RowsChecked   int64 `json:"rowsChecked"`
	NumSuspicious int64 `json:"numSuspicious"`
	// TopK is the requested ranking depth; TopTruncated reports whether
	// suspicious records beyond it were emitted but not ranked.
	TopK         int  `json:"topK"`
	TopTruncated bool `json:"topTruncated"`
	// CheckMillis is the stream wall time; Workers / ChunkSize the pool
	// geometry used.
	CheckMillis int64 `json:"checkMillis"`
	Workers     int   `json:"workers"`
	ChunkSize   int   `json:"chunkSize"`
	// Top is the top-K confidence ranking (descending error confidence,
	// ties by ascending row) — identical to the buffered endpoint's
	// report order, truncated to TopK.
	Top []TopRecordJSON `json:"top"`
	// AttrTallies lists the per-attribute deviation tallies.
	AttrTallies []AttrTallyJSON `json:"attrTallies"`
	// AttrDims lists the stream's per-attribute quality dimensions
	// (completeness and uniqueness), schema order — identical to the
	// buffered endpoint's attrDims on the same rows.
	AttrDims []AttrDimJSON `json:"attrDims"`
}

// handleAuditStream implements POST /v1/models/{name}/audit/stream.
func (s *Server) handleAuditStream(w http.ResponseWriter, r *http.Request) {
	version, err := versionParam(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	model, meta, err := s.reg.GetVersion(r.PathValue("name"), version)
	if err != nil {
		s.writeError(w, s.errStatus(err), "%v", err)
		return
	}

	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if !isCSVType(ct) && !isJSONLType(ct) {
		s.writeError(w, http.StatusUnsupportedMediaType, "streaming audit needs a text/csv or application/x-ndjson body, got %q", ct)
		return
	}

	opts := audit.StreamOptions{
		ChunkSize: streamChunk,
		Workers:   s.workers,
		TopK:      streamTopK,
		MaxRows:   int64(s.maxBatch),
	}
	if workers, ok, err := s.workersParam(r); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	} else if ok {
		opts.Workers = workers
	}
	if v := r.URL.Query().Get("chunk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, "bad chunk %q", v)
			return
		}
		if n > maxStreamChunk {
			n = maxStreamChunk
		}
		opts.ChunkSize = n
	}
	if v := r.URL.Query().Get("top"); v != "" {
		// Unlike the library (where TopK < 0 means unlimited), the server
		// keeps the ranking bounded so one request cannot grow its heap
		// with the number of suspicious rows.
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, "bad top %q (want 1..%d)", v, maxStreamTopK)
			return
		}
		if n > maxStreamTopK {
			n = maxStreamTopK
		}
		opts.TopK = n
	}

	opts.Workers = min(opts.Workers, streamWorkersCap(model.Schema))
	opts.ChunkSize = min(opts.ChunkSize, streamChunkCap(model.Schema, opts.Workers))

	// The streaming route is exempt from the body byte cap, so bound the
	// one thing the incremental decoder buffers: a single record. Without
	// this, a body with no record boundary — no newline, or an
	// unterminated quoted field spanning newlines — would grow the
	// decoder's buffer to the upload size.
	var src dataset.RowSource
	if isJSONLType(ct) {
		src, err = dataset.NewBoundedJSONLSource(r.Body, model.Schema, maxStreamRecordBytes)
	} else {
		src, err = dataset.NewBoundedCSVSource(r.Body, model.Schema, maxStreamRecordBytes)
	}
	if err != nil {
		s.writeError(w, badRequestStatus(err), "body: %v", err)
		return
	}

	// From here on the response is a 200 NDJSON stream; failures become
	// the terminal error line. Full duplex lets report lines go out while
	// the request body is still being read on HTTP/1.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // HTTP/2 always is; HTTP/1 needs opting in
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")

	// Report lines are written as each unit is folded and flushed once
	// per unit that had one; the terminal line flushes on its own.
	enc := json.NewEncoder(w)
	emit := func(line StreamLine) error {
		if err := enc.Encode(line); err != nil {
			return err
		}
		return rc.Flush()
	}
	reports := streamEncoder{rr: newReportRenderer(model)}
	opts.OnSuspicious = func(rep *audit.RecordReport) error {
		line, err := reports.reportLine(rep)
		if err != nil {
			return err
		}
		_, err = w.Write(line)
		return err
	}
	opts.OnChunkFolded = rc.Flush
	// Feed the quality monitor: rows sampled in source order while the
	// stream runs, the aggregate folded only if the stream succeeds.
	obs := s.mon.Stream(meta, model)
	opts.OnRow = obs.OnRow

	res, err := model.AuditStream(src, opts)
	if err != nil {
		s.logger.Printf("serve: stream %s v%d: %v", meta.Name, meta.Version, err)
		_ = emit(StreamLine{Error: err.Error()})
		finishAbortedUpload(w, r.Body)
		return
	}
	obs.Finish(res)

	summary := StreamSummaryJSON{
		Model:         meta.Name,
		Version:       meta.Version,
		RowsChecked:   res.RowsChecked,
		NumSuspicious: res.NumSuspicious,
		TopK:          opts.TopK,
		TopTruncated:  res.TopTruncated,
		CheckMillis:   res.CheckTime.Milliseconds(),
		Workers:       opts.Workers,
		ChunkSize:     opts.ChunkSize,
		Top:           make([]TopRecordJSON, 0, len(res.Top)),
		AttrTallies:   make([]AttrTallyJSON, 0, len(res.Attrs)),
		AttrDims:      attrDimsJSON(model.Schema, res.Dims),
	}
	for i := range res.Top {
		rep := &res.Top[i]
		summary.Top = append(summary.Top, TopRecordJSON{Row: rep.Row, ID: rep.ID, ErrorConf: rep.ErrorConf})
	}
	for _, tally := range res.Attrs {
		tj := AttrTallyJSON{
			Attr:         model.Schema.Attr(tally.Attr).Name,
			Deviations:   tally.Deviations,
			Suspicious:   tally.Suspicious,
			MaxErrorConf: tally.MaxErrorConf,
		}
		if tally.Deviations > 0 {
			tj.MeanErrorConf = tally.SumErrorConf / float64(tally.Deviations)
		}
		summary.AttrTallies = append(summary.AttrTallies, tj)
	}
	_ = emit(StreamLine{Summary: &summary})
}

// finishAbortedUpload leaves a half-read full-duplex request body in a
// state net/http can finish. If the handler returned with the body short
// of EOF, the server's own post-handler drain would reach EOF after it
// has already cancelled pending reads, start its background read there,
// and then panic the connection goroutine with "invalid concurrent
// Body.Read call" when it looks for the next request. So reach EOF here,
// inside the handler, within the budget the server allows itself; for an
// upload longer than that, MaxBytesReader tells the server (the writer
// underneath any middleware) to close the connection after this reply
// instead of reusing it.
func finishAbortedUpload(w http.ResponseWriter, body io.ReadCloser) {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			break
		}
		w = u.Unwrap()
	}
	_, _ = io.Copy(io.Discard, http.MaxBytesReader(w, body, maxAbortDrainBytes))
}

// maxAbortDrainBytes is how much of an aborted upload the stream route
// reads and discards to keep the connection reusable (net/http's own
// post-handler allowance).
const maxAbortDrainBytes = 256 << 10

// streamChunk and streamTopK are the streaming route's scoring-chunk size
// and summary ranking depth when the request names no ?chunk= / ?top=.
const (
	streamChunk = 1024
	streamTopK  = 1000
)

// maxStreamChunk bounds the client-requested chunk size so one request
// cannot make the server buffer an arbitrarily large scoring unit.
const maxStreamChunk = 1 << 16

// maxStreamTopK bounds the client-requested ranking depth for the same
// reason (each retained report carries its findings).
const maxStreamTopK = 10_000

// maxStreamRecordBytes bounds a single CSV record on the byte-cap-exempt
// streaming route (enforced quote-aware inside the decoder).
const maxStreamRecordBytes = 1 << 20

// maxStreamBufferBytes bounds the scoring pipeline's pool of units per
// request: their chunk buffers and, on a CSV body, their blocks.
const maxStreamBufferBytes = 64 << 20

// streamUnitBytes is what one pooled unit of a stream may hold: a chunk of
// chunk rows and, on a CSV body, a block of up to dataset.CSVBlockBytes
// plus the one record, of at most maxStreamRecordBytes, that crosses it.
func streamUnitBytes(schema *dataset.Schema, chunk int) int {
	return chunk*dataset.ChunkRowBytes(schema) + dataset.CSVBlockBytes + maxStreamRecordBytes
}

// streamUnits is how many units AuditStream pools for a worker count:
// workers+1, or one when a single worker runs everything inline.
func streamUnits(workers int) int {
	if workers == 1 {
		return 1
	}
	return workers + 1
}

// streamWorkersCap is the largest worker count whose pool of one-row
// units fits maxStreamBufferBytes; the block bytes alone would otherwise
// outgrow the budget at the ?workers= ceiling of a many-core host.
func streamWorkersCap(schema *dataset.Schema) int {
	return max(1, maxStreamBufferBytes/streamUnitBytes(schema, 1)-1)
}

// streamChunkCap bounds the engine's upfront allocation: the chunk and
// workers caps alone still allow the pool to reach hundreds of MB per
// request on a wide schema. The cap is the largest chunk whose pool of
// streamUnits units fits the same order as the buffered endpoints' body
// cap.
func streamChunkCap(schema *dataset.Schema, workers int) int {
	perUnit := maxStreamBufferBytes/streamUnits(workers) - streamUnitBytes(schema, 0)
	return max(1, perUnit/dataset.ChunkRowBytes(schema))
}
