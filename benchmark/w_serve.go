package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/evalx"
	"dataaudit/internal/monitor"
	"dataaudit/internal/registry"
	"dataaudit/internal/serve"
)

const (
	serveModel  = "quis"
	batchRows   = 2000
	streamRows  = 30000
	numBatches  = 8   // distinct batch bodies
	numStreams  = 3   // distinct stream bodies
	numRowReqs  = 256 // distinct single-row bodies
	schedBlock  = 20  // 14 row + 5 batch + 1 stream = 70/25/5 exactly
	schedBlocks = 256 // schedule length per client before it repeats
	classRow    = "row"
	classBatch  = "batch"
	classStream = "stream"
	// serveTopK is serve's default ranking depth for /audit/stream.
	serveTopK = 1000
)

// roundtripSpan names the span around one request of a class.
var roundtripSpan = map[string]string{
	classRow:    "serve.row.roundtrip",
	classBatch:  "serve.batch.roundtrip",
	classStream: "serve.stream.roundtrip",
}

// body is one request payload with the oracle's verdict on it.
type body struct {
	class string
	data  []byte
	rows  int
	chk   checker
}

// request is one schedule entry.
type request struct {
	class string
	body  int
}

// serveMixed is the service path: W closed-loop clients walk a seeded
// schedule of single-row, batch and streaming audits against an
// in-process auditd.
type serveMixed struct {
	e      *env
	reg    *registry.Registry
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	url    string

	bodies map[string][]*body
	attrOf map[string]int32 // attribute name → schema column, to read replies
	sched  [][]request      // per client
	served *oracle          // verdicts on every row a body carries, for quality()
	tab    *dataset.Table

	scrapeBefore scrape
	scrapeMs     []float64
	scrapeBytes  int
	seen         int // requests the server's own counter saw during the last loop
}

type scrape struct {
	requests int
	bytes    int
	ms       float64
}

func (w *serveMixed) boot(e *env) error {
	w.e = e
	fx := e.fx
	var err error
	if w.reg, err = registry.Open(filepath.Join(e.dir, "serve")); err != nil {
		return err
	}
	// Publish as POST /v1/models does: with the quality baseline of the
	// training table, so the monitor measures drift from the first audit.
	profile := fx.model.QualityProfile(fx.train, e.w)
	if _, err = w.reg.PublishWithQuality(serveModel, fx.model, profile); err != nil {
		return err
	}
	w.srv = serve.New(w.reg, serve.WithWorkers(e.w), serve.WithLogger(log.New(io.Discard, "", 0)))
	w.ts = httptest.NewServer(w.srv.Handler())
	w.url = w.ts.URL + "/v1/models/" + serveModel
	// One kept-alive connection per client: no more connections than W.
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.w, MaxConnsPerHost: e.w}}

	// Bodies are consecutive slices of A, so that together they are one
	// contiguous prefix whose verdicts join the pollution log.
	w.bodies = make(map[string][]*body)
	w.attrOf = make(map[string]int32)
	for c, a := range fx.model.Schema.Attrs() {
		w.attrOf[a.Name] = int32(c)
	}
	lo := 0
	cut := func(class string, rows int) (*dataset.Table, *body) {
		tab := rowRange(fx.full, lo, lo+rows)
		lo += rows
		b := &body{class: class, rows: rows}
		w.bodies[class] = append(w.bodies[class], b)
		return tab, b
	}
	for i := 0; i < numBatches; i++ {
		tab, b := cut(classBatch, batchRows)
		if b.data, err = csvBytes(tab); err != nil {
			return err
		}
		b.chk.want = e.tamper(buildOracle(fx.model, tab).rankedExpect())
	}
	for i := 0; i < numStreams; i++ {
		tab, b := cut(classStream, streamRows)
		if b.data, err = csvBytes(tab); err != nil {
			return err
		}
		b.chk.want = e.tamper(buildOracle(fx.model, tab).inOrderExpect())
	}
	attrs := fx.full.Schema().Attrs()
	for i := 0; i < numRowReqs; i++ {
		tab, b := cut(classRow, 1)
		rec := make([]string, len(attrs))
		for c, a := range attrs {
			rec[c] = a.Format(tab.Get(0, c))
		}
		if b.data, err = json.Marshal(serve.AuditRequest{Row: rec}); err != nil {
			return err
		}
		b.chk.want = e.tamper(buildOracle(fx.model, tab).rankedExpect())
	}
	w.tab = prefix(fx.full, lo)
	w.served = buildOracle(fx.model, w.tab)

	w.sched = make([][]request, e.w)
	for c := range w.sched {
		w.sched[c] = schedule(fx.seed, c)
	}
	return nil
}

// schedule is client c's request sequence, a pure function of (seed, c):
// blocks of twenty requests holding the 70/25/5 mix exactly, shuffled, so
// that the realised mix does not depend on where the deadline falls.
func schedule(seed int64, c int) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	var out []request
	for b := 0; b < schedBlocks; b++ {
		block := make([]request, 0, schedBlock)
		for i := 0; i < 14; i++ {
			block = append(block, request{classRow, rng.Intn(numRowReqs)})
		}
		for i := 0; i < 5; i++ {
			block = append(block, request{classBatch, rng.Intn(numBatches)})
		}
		block = append(block, request{classStream, rng.Intn(numStreams)})
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

func (w *serveMixed) clients() int    { return w.e.w }
func (w *serveMixed) primary() string { return classBatch }

func (w *serveMixed) run(c, i int, tr *tracer, op int) opResult {
	rq := w.sched[c][i%len(w.sched[c])]
	b := w.bodies[rq.class][rq.body]
	s := tr.begin(op, 0, roundtripSpan[rq.class], false)
	rt := w.send(b, "")
	tr.end(s, int64(b.rows), int64(rt.respBytes))
	res := opResult{class: rq.class, rows: b.rows, err: rt.err}
	if rq.class == classStream && rt.err == nil {
		res.parts = []part{{"stream.first_byte", rt.firstByteMs}}
	}
	return res
}

// roundTrip is what the client learned from one request.
type roundTrip struct {
	err         error
	respBytes   int
	firstByteMs float64
}

// auditReply and streamLine are the parts of serve's responses the
// oracle comparison needs.
type auditReply struct {
	RowsChecked   int           `json:"rowsChecked"`
	NumSuspicious int           `json:"numSuspicious"`
	Reports       []reportReply `json:"reports"`
}

type reportReply struct {
	ID        int64   `json:"id"`
	ErrorConf float64 `json:"errorConf"`
	Best      *struct {
		Attr string `json:"attr"`
	} `json:"best"`
}

type streamLine struct {
	Report  *reportReply `json:"report"`
	Summary *struct {
		RowsChecked   int64 `json:"rowsChecked"`
		NumSuspicious int64 `json:"numSuspicious"`
	} `json:"summary"`
	Error string `json:"error"`
}

func (w *serveMixed) verdicts(reps []reportReply) []verdict {
	vs := make([]verdict, len(reps))
	for i, r := range reps {
		vs[i] = verdict{id: r.ID, attr: -1, conf: r.ErrorConf}
		if r.Best != nil {
			vs[i].attr = w.attrOf[r.Best.Attr]
		}
	}
	return vs
}

// send posts one body and checks the reply against the body's oracle.
func (w *serveMixed) send(b *body, query string) roundTrip {
	path, ctype := "/audit", "application/json"
	switch b.class {
	case classBatch:
		ctype = "text/csv"
	case classStream:
		path, ctype = "/audit/stream", "text/csv"
	}
	start := time.Now()
	resp, err := w.client.Post(w.url+path+query, ctype, bytes.NewReader(b.data))
	if err != nil {
		return roundTrip{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return roundTrip{err: fmt.Errorf("%s %s: status %d: %s", b.class, path, resp.StatusCode, msg)}
	}
	if b.class == classStream {
		return w.readStream(b, resp.Body, start)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return roundTrip{err: err}
	}
	rt := roundTrip{respBytes: len(data)}
	var reply auditReply
	if err := json.Unmarshal(data, &reply); err != nil {
		rt.err = fmt.Errorf("%s reply: %w", b.class, err)
		return rt
	}
	if reply.RowsChecked != b.rows {
		rt.err = fmt.Errorf("%s checked %d rows, sent %d", b.class, reply.RowsChecked, b.rows)
		return rt
	}
	rt.err = b.chk.check(reply.NumSuspicious, func() []verdict { return w.verdicts(reply.Reports) })
	return rt
}

// readStream reads the NDJSON reply to its summary line. Report lines are
// counted; they are parsed only when the body's digest is still unchecked.
func (w *serveMixed) readStream(b *body, r io.Reader, start time.Time) roundTrip {
	var rt roundTrip
	br := bufio.NewReaderSize(r, 64<<10)
	wantDigest := !b.chk.digested.Load()
	var reports []reportReply
	lines := 0
	var last []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if lines == 0 {
				rt.firstByteMs = ms(time.Since(start))
			}
			lines++
			rt.respBytes += len(line)
			if wantDigest && bytes.HasPrefix(line, []byte(`{"report"`)) {
				var sl streamLine
				if err := json.Unmarshal(line, &sl); err != nil || sl.Report == nil {
					rt.err = fmt.Errorf("stream report line: %v", err)
					return rt
				}
				reports = append(reports, *sl.Report)
			}
			last = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rt.err = err
			return rt
		}
	}
	var sl streamLine
	if err := json.Unmarshal(last, &sl); err != nil {
		rt.err = fmt.Errorf("stream terminal line: %w", err)
		return rt
	}
	switch {
	case sl.Error != "":
		rt.err = fmt.Errorf("stream failed: %s", sl.Error)
	case sl.Summary == nil:
		rt.err = fmt.Errorf("stream ended without a summary line")
	case sl.Summary.RowsChecked != int64(b.rows):
		rt.err = fmt.Errorf("stream checked %d rows, sent %d", sl.Summary.RowsChecked, b.rows)
	case int(sl.Summary.NumSuspicious) != lines-1:
		rt.err = fmt.Errorf("stream summary counts %d suspicious, %d report lines arrived", sl.Summary.NumSuspicious, lines-1)
	default:
		// The digest is still unchecked only if it was when the reply
		// began, and then every report line was kept.
		rt.err = b.chk.check(int(sl.Summary.NumSuspicious), func() []verdict { return w.verdicts(reports) })
	}
	return rt
}

// scrapeMetrics GETs /metrics and sums the server's request counter.
func (w *serveMixed) scrapeMetrics() (scrape, error) {
	start := time.Now()
	resp, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return scrape{}, err
	}
	sc := scrape{bytes: len(data), ms: ms(time.Since(start))}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "dataaudit_http_requests_total{") {
			n, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return scrape{}, fmt.Errorf("metrics line %q: %w", line, err)
			}
			sc.requests += int(n)
		}
	}
	return sc, nil
}

// reinductions counts the successor models the monitor published.
func (w *serveMixed) reinductions() int {
	st, ok := w.srv.Monitor().Quality(serveModel)
	if !ok {
		return 0
	}
	n := 0
	for _, ev := range st.Events {
		if ev.Kind == monitor.EventReinduced {
			n++
		}
	}
	return n
}

// settle scrapes /metrics after a loop and holds the server's request
// count against the clients'; the scrape before the loop is the previous
// settle's (boot takes the first).
func (w *serveMixed) settle(ls *loopStats) error {
	after, err := w.scrapeMetrics()
	if err != nil {
		return err
	}
	w.seen = after.requests - w.scrapeBefore.requests
	w.scrapeBefore = after
	w.scrapeMs = append(w.scrapeMs, after.ms)
	w.scrapeBytes = after.bytes
	if ls == nil {
		return nil
	}
	if w.seen != ls.attempted {
		return fmt.Errorf("server counted %d requests, clients sent %d", w.seen, ls.attempted)
	}
	if n := w.reinductions(); n != 0 {
		return fmt.Errorf("monitor re-induced %d times on input that matches its baseline", n)
	}
	return nil
}

func (w *serveMixed) quality() (evalx.Confusion, error) {
	return w.served.quality(w.tab, w.e.fx.log), nil
}

// replay sends one request of each class with one scoring worker and then
// re-runs, in process and on the same body, what the handler does between
// reading the request and encoding the reply. The round trip's self time
// is what remains: mux, middleware, JSON/NDJSON encoding, loopback, client.
func (w *serveMixed) replay(tr *tracer) error {
	for _, class := range []string{classRow, classBatch, classStream} {
		b := w.bodies[class][0]
		op := tr.newOp()
		id := tr.begin(op, 0, roundtripSpan[class], false)
		rt := w.send(b, "?workers=1")
		tr.end(id, int64(b.rows), int64(rt.respBytes))
		if rt.err != nil {
			return rt.err
		}
		if err := w.replayHandler(tr, op, id, b); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveMixed) replayHandler(tr *tracer, op, parent int, b *body) error {
	s := tr.begin(op, parent, "registry.get", true)
	model, meta, err := w.reg.Get(serveModel)
	tr.end(s, 0, 0)
	if err != nil {
		return err
	}
	mon := w.srv.Monitor()

	if b.class == classStream {
		obs := mon.Stream(meta, model)
		id, res, err := tracedAuditStream(tr, op, parent, true, model, b.data, func(src dataset.RowSource) (*audit.StreamResult, error) {
			return model.AuditStream(src, audit.StreamOptions{
				ChunkSize: streamChunkRows, Workers: 1, TopK: serveTopK, OnRow: obs.OnRow,
				// serve encodes each report here; the replay leaves that in
				// the round trip's self time.
				OnSuspicious: func(*audit.RecordReport) error { return nil },
			})
		})
		if err != nil {
			return err
		}
		s = tr.begin(op, parent, "monitor.stream_finish", true)
		obs.Finish(res)
		tr.end(s, res.RowsChecked, 0)
		return replayStreamStages(tr, op, id, model, b.data)
	}

	var tab *dataset.Table
	if b.class == classBatch {
		s = tr.begin(op, parent, spanCSVDecode, true)
		tab, err = dataset.ReadCSV(bytes.NewReader(b.data), model.Schema)
	} else {
		s = tr.begin(op, parent, "dataset.json_rows_decode", true)
		var req serve.AuditRequest
		if err = json.NewDecoder(bytes.NewReader(b.data)).Decode(&req); err == nil {
			tab, err = dataset.ReadAll(dataset.NewStringRowsSource(model.Schema, [][]string{req.Row}))
		}
	}
	tr.end(s, int64(b.rows), int64(len(b.data)))
	if err != nil {
		return err
	}
	id, res := tracedAuditTable(tr, op, parent, true, model, tab)
	s = tr.begin(op, parent, "monitor.observe_batch."+b.class, true)
	mon.ObserveBatch(meta, model, tab, res)
	tr.end(s, int64(b.rows), 0)
	s = tr.begin(op, parent, spanRank, true)
	sus := res.Suspicious()
	tr.end(s, int64(len(sus)), 0)
	replayTableStages(tr, op, id, model, tab)
	return nil
}

func (w *serveMixed) layers(ls *loopStats, spans []span, self map[int]int64, out metricSet) error {
	fillStageMetrics(spans, out)
	fillDecodeMetrics(spans, out)
	out.setMedian("row_p50_ms", ls.lat[classRow])
	out.setMedian("stream_p50_ms", ls.lat[classStream])
	out.setTail("serve.row.p95_ms", ls.lat[classRow], 95)
	out.setTail("serve.row.p99_ms", ls.lat[classRow], 99)
	out.setTail("serve.batch.p99_ms", ls.lat[classBatch], 99)
	out.setMedian("serve.stream.first_byte_ms", ls.lat["stream.first_byte"])

	for _, class := range []string{classRow, classBatch, classStream} {
		name := roundtripSpan[class]
		_, _, selfMs := selfOf(spans, self, name)
		out.setMedian("serve."+class+".self_ms", selfMs)
		if agg := aggregate(spans, name); agg.calls > 0 && class != classRow {
			out.set("serve."+class+".resp_bytes", float64(agg.bytes)/float64(agg.calls))
		}
	}
	out.setMedian("dataset.json_rows_decode.us_per_req", scale(aggregate(spans, "dataset.json_rows_decode").perOpMs, 1e3))
	out.setMedian("monitor.observe_batch.us_per_call", scale(aggregate(spans, "monitor.observe_batch."+classRow).perOpMs, 1e3))
	out.set("monitor.observe_batch.ns_per_row", aggregate(spans, "monitor.observe_batch."+classBatch).nsPerRow())
	out.set("monitor.reinductions", float64(w.reinductions()))
	out.setMedian("registry.get.us", scale(aggregate(spans, "registry.get").perOpMs, 1e3))
	hits, misses, _, _ := w.reg.CacheStats()
	if hits+misses > 0 {
		out.set("registry.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	out.setMedian("audit.rank.ms", aggregate(spans, spanRank).perOpMs)
	selfNs, selfRows, _ := selfOf(spans, self, spanAuditTable)
	if selfRows > 0 {
		out.set("audit.batch_driver.self_ns_per_row", float64(selfNs)/float64(selfRows))
	}
	selfNs, selfRows, _ = selfOf(spans, self, spanAuditStrm)
	if selfRows > 0 {
		out.set("audit.stream_driver.self_ns_per_row", float64(selfNs)/float64(selfRows))
	}
	out.set("audit.suspicious_share", float64(w.served.count)/float64(w.served.rows))
	out.set("audit.checkrow.ns_per_row", w.served.nsPerRow)
	out.setMedian("obs.scrape.ms", w.scrapeMs)
	out.set("obs.scrape.bytes", float64(w.scrapeBytes))
	out.set("obs.requests_seen", float64(w.seen))
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func (w *serveMixed) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
