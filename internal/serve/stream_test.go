package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
)

// publishEngines uploads the engine fixture as model "engines" and
// returns the live table for crafting batches.
func publishEngines(t *testing.T, ts *httptest.Server, rows int) *dataset.Table {
	t.Helper()
	schemaText, csvText, tab := engineFixture(t, rows)
	decode[ModelResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name:    "engines",
		Schema:  schemaText,
		CSV:     csvText,
		Options: OptionsJSON{MinConfidence: 0.8, Filter: "reachable-only"},
	}), http.StatusCreated)
	return tab
}

// corruptGBM breaks the BRV → GBM dependency on up to n spread-out rows
// of a clone and returns the dirty table plus the corrupted count.
func corruptGBM(t *testing.T, tab *dataset.Table, n int) (*dataset.Table, int) {
	t.Helper()
	dirty := tab.Clone()
	gbm := dirty.Schema().Index("GBM")
	gbmAttr := dirty.Schema().Attr(gbm)
	corrupted := 0
	for r := 0; r < dirty.NumRows() && corrupted < n; r += 43 {
		if gbmAttr.Format(dirty.Get(r, gbm)) == "901" {
			dirty.Set(r, gbm, gbmAttr.MustNominal("911"))
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("could not corrupt any row")
	}
	return dirty, corrupted
}

// readStream decodes an NDJSON audit stream into its parts.
func readStream(t *testing.T, body io.Reader) (reports []ReportJSON, summary *StreamSummaryJSON, errLine string) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Report != nil:
			if summary != nil || errLine != "" {
				t.Fatal("report line after terminal line")
			}
			reports = append(reports, *line.Report)
		case line.Summary != nil:
			summary = line.Summary
		case line.Error != "":
			errLine = line.Error
		default:
			t.Fatalf("empty NDJSON line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reports, summary, errLine
}

// TestStreamEndpointMatchesBatch audits the same dirty CSV through the
// buffered and the streaming endpoint and requires identical verdicts.
func TestStreamEndpointMatchesBatch(t *testing.T) {
	ts := newTestServer(t)
	tab := publishEngines(t, ts, 5000)
	dirty, _ := corruptGBM(t, tab, 25)

	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, dirty); err != nil {
		t.Fatal(err)
	}
	csvText := csvBuf.String()

	batchResp, err := http.Post(ts.URL+"/v1/models/engines/audit?workers=2", "text/csv", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	batch := decode[AuditResponse](t, batchResp, http.StatusOK)

	resp, err := http.Post(ts.URL+"/v1/models/engines/audit/stream?workers=2&chunk=256&top=5000", "text/csv", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	reports, summary, errLine := readStream(t, resp.Body)
	if errLine != "" {
		t.Fatalf("stream failed: %s", errLine)
	}
	if summary == nil {
		t.Fatal("no summary line")
	}
	if summary.RowsChecked != int64(dirty.NumRows()) {
		t.Fatalf("rowsChecked %d, want %d", summary.RowsChecked, dirty.NumRows())
	}
	if summary.NumSuspicious != int64(batch.NumSuspicious) || len(reports) != batch.NumSuspicious {
		t.Fatalf("stream flagged %d (emitted %d), batch flagged %d",
			summary.NumSuspicious, len(reports), batch.NumSuspicious)
	}
	// Reports are emitted in row order; the batch endpoint ranks by
	// confidence — compare as sets keyed by row.
	batchByRow := make(map[int]ReportJSON, len(batch.Reports))
	for _, rep := range batch.Reports {
		batchByRow[rep.Row] = rep
	}
	prevRow := -1
	for _, rep := range reports {
		if rep.Row <= prevRow {
			t.Fatalf("stream reports out of row order: %d after %d", rep.Row, prevRow)
		}
		prevRow = rep.Row
		want, ok := batchByRow[rep.Row]
		if !ok {
			t.Fatalf("stream flagged row %d, batch did not", rep.Row)
		}
		if rep.ErrorConf != want.ErrorConf || len(rep.Findings) != len(want.Findings) {
			t.Fatalf("row %d diverges: stream %+v batch %+v", rep.Row, rep, want)
		}
	}
	var tallied int64
	for _, tally := range summary.AttrTallies {
		tallied += tally.Suspicious
	}
	if tallied == 0 {
		t.Fatalf("summary has no attribute tallies: %+v", summary.AttrTallies)
	}
	// The summary's ranking must equal the batch endpoint's report order
	// (descending confidence, ties by row).
	if len(summary.Top) != len(batch.Reports) {
		t.Fatalf("summary ranked %d records, batch %d", len(summary.Top), len(batch.Reports))
	}
	for i, tr := range summary.Top {
		if tr.Row != batch.Reports[i].Row || tr.ErrorConf != batch.Reports[i].ErrorConf {
			t.Fatalf("ranking diverges at %d: stream (row %d, %.6f) batch (row %d, %.6f)",
				i, tr.Row, tr.ErrorConf, batch.Reports[i].Row, batch.Reports[i].ErrorConf)
		}
	}
}

// TestStreamEndpointStreamsDuringUpload proves findings flow back while
// the request body is still open: the client holds the upload after the
// first rows, reads a report line, then finishes the upload.
func TestStreamEndpointStreamsDuringUpload(t *testing.T) {
	ts := newTestServer(t)
	tab := publishEngines(t, ts, 3000)
	dirty, _ := corruptGBM(t, tab, 50)

	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, dirty); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(csvBuf.String(), "\n")
	half := len(lines) / 2

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/engines/audit/stream?chunk=64", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")

	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- result{resp, err}
	}()

	// First half of the upload: enough corrupted rows to force report
	// lines out long before EOF.
	if _, err := io.WriteString(pw, strings.Join(lines[:half], "")); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.resp.StatusCode)
	}

	// A report line must arrive while the second half is still unsent.
	sc := bufio.NewScanner(res.resp.Body)
	if !sc.Scan() {
		t.Fatalf("no line before upload finished: %v", sc.Err())
	}
	var first StreamLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Report == nil {
		t.Fatalf("first line is not a report: %q", sc.Text())
	}

	// Finish the upload and drain to the summary.
	if _, err := io.WriteString(pw, strings.Join(lines[half:], "")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	var summary *StreamSummaryJSON
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("stream failed: %s", line.Error)
		}
		if line.Summary != nil {
			summary = line.Summary
		}
	}
	if summary == nil || summary.RowsChecked != int64(dirty.NumRows()) {
		t.Fatalf("summary after duplex stream: %+v", summary)
	}
}

// TestStreamChunkCapWideSchema pins the ?chunk= clamp to the pool the
// pipeline really holds: on a 600-column nominal schema with 8 workers
// the 9 pooled units — each a chunk of the capped size and a CSV block of
// up to dataset.CSVBlockBytes plus one maxStreamRecordBytes record — fill
// the 64 MiB budget to within one row each. The clamp used to price every
// cell at the 16 bytes of a dataset.Value and stopped at a quarter of
// that; the worker clamp keeps the blocks alone within the budget.
func TestStreamChunkCapWideSchema(t *testing.T) {
	attrs := make([]*dataset.Attribute, 600)
	for i := range attrs {
		attrs[i] = dataset.NewNominal("a"+strconv.Itoa(i), "x", "y")
	}
	schema := dataset.MustSchema(attrs...)
	const workers = 8
	pool := func(workers, chunk int) int { return streamUnits(workers) * streamUnitBytes(schema, chunk) }
	got := streamChunkCap(schema, workers)
	if pool(workers, got) > maxStreamBufferBytes || pool(workers, got+1) <= maxStreamBufferBytes {
		t.Fatalf("cap %d rows: pool of %d bytes against a budget of %d", got, pool(workers, got), maxStreamBufferBytes)
	}
	if old := maxStreamBufferBytes / 16 / (workers + 1) / 600; got < 3*old {
		t.Fatalf("cap %d rows is still within 3x of the Value-sized clamp (%d)", got, old)
	}
	// One worker pools one unit, so its chunk may take the whole budget.
	if one := streamChunkCap(schema, 1); pool(1, one) > maxStreamBufferBytes || pool(1, one+1) <= maxStreamBufferBytes {
		t.Fatalf("one worker: cap %d rows, pool of %d bytes", one, pool(1, one))
	}
	// The worker clamp leaves room for one-row units and no more.
	w := streamWorkersCap(schema)
	if pool(w, 1) > maxStreamBufferBytes || pool(w+1, 1) <= maxStreamBufferBytes {
		t.Fatalf("worker cap %d: pool of %d bytes against a budget of %d", w, pool(w, 1), maxStreamBufferBytes)
	}
	// A worker count beyond the clamp still streams, one row per chunk.
	if got := streamChunkCap(schema, maxStreamBufferBytes); got != 1 {
		t.Fatalf("cap under an absurd worker count = %d, want 1", got)
	}
}

// TestStreamEndpointErrors covers the failure surface: pre-stream
// failures are status codes, mid-stream failures are terminal NDJSON
// error lines on the already-committed 200 — and an abort with the upload
// half-read must not panic the connection goroutine afterwards
// (startTestServer captures the server's ErrorLog and fails the test on a
// "panic serving" line).
func TestStreamEndpointErrors(t *testing.T) {
	ts, _ := startTestServer(t, openRegistry(t), WithMaxBatchRows(100))
	tab := publishEngines(t, ts, 1200)

	post := func(path, contentType, body string) *http.Response {
		t.Helper()
		// A keep-alive connection of its own per request: the server
		// closes the connection of an upload it gave up draining, and a
		// client that had picked that connection for its next POST would
		// see an EOF that says nothing about the request under test.
		tr := &http.Transport{}
		t.Cleanup(tr.CloseIdleConnections)
		resp, err := (&http.Client{Transport: tr}).Post(ts.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("unknown model is 404", func(t *testing.T) {
		decode[ErrorResponse](t, post("/v1/models/nope/audit/stream", "text/csv", "BRV\n404\n"), http.StatusNotFound)
	})
	t.Run("JSON body is 415", func(t *testing.T) {
		decode[ErrorResponse](t, post("/v1/models/engines/audit/stream", "application/json", `{"rows":[]}`), http.StatusUnsupportedMediaType)
	})
	t.Run("bad header is 400", func(t *testing.T) {
		decode[ErrorResponse](t, post("/v1/models/engines/audit/stream", "text/csv", "WAT,NO\n1,2\n"), http.StatusBadRequest)
	})
	t.Run("bad query is 400", func(t *testing.T) {
		decode[ErrorResponse](t, post("/v1/models/engines/audit/stream?workers=zero", "text/csv", "BRV\n"), http.StatusBadRequest)
		// The server bounds its ranking: non-positive top is rejected
		// (the library's -1 = unlimited is not exposed over HTTP).
		decode[ErrorResponse](t, post("/v1/models/engines/audit/stream?top=-1", "text/csv", "BRV\n"), http.StatusBadRequest)
		decode[ErrorResponse](t, post("/v1/models/engines/audit/stream?top=0", "text/csv", "BRV\n"), http.StatusBadRequest)
	})

	t.Run("oversized CSV line fails instead of buffering", func(t *testing.T) {
		body := "BRV,KBM,GBM,DISP\n\"" + strings.Repeat("x", 2<<20) + "\",01,901,2000\n"
		resp := post("/v1/models/engines/audit/stream", "text/csv", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			// The limit tripped inside the header read path is also fine.
			return
		}
		_, summary, errLine := readStream(t, resp.Body)
		if summary != nil || !strings.Contains(errLine, "byte limit") {
			t.Fatalf("oversized line not rejected: summary=%v err=%q", summary, errLine)
		}
	})

	t.Run("short row mid-stream is a terminal error line", func(t *testing.T) {
		var csvBuf bytes.Buffer
		if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
			t.Fatal(err)
		}
		body := strings.Join(strings.SplitAfter(csvBuf.String(), "\n")[:50], "") + "404,01\n"
		resp := post("/v1/models/engines/audit/stream?chunk=8", "text/csv", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 (stream already committed)", resp.StatusCode)
		}
		_, summary, errLine := readStream(t, resp.Body)
		if summary != nil {
			t.Fatal("summary on failed stream")
		}
		if !strings.Contains(errLine, "schema has") {
			t.Fatalf("error line %q does not describe the width mismatch", errLine)
		}
	})

	t.Run("row limit aborts with a terminal error line", func(t *testing.T) {
		var csvBuf bytes.Buffer
		if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
			t.Fatal(err)
		}
		resp := post("/v1/models/engines/audit/stream?chunk=16", "text/csv", csvBuf.String())
		defer resp.Body.Close()
		_, summary, errLine := readStream(t, resp.Body)
		if summary != nil {
			t.Fatal("summary despite row limit")
		}
		if !strings.Contains(errLine, "row limit") && !strings.Contains(errLine, "100-row") {
			t.Fatalf("error line %q does not mention the row limit", errLine)
		}
	})

	t.Run("abort with more upload left than the server drains", func(t *testing.T) {
		var csvBuf bytes.Buffer
		if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
			t.Fatal(err)
		}
		header, rows, _ := strings.Cut(csvBuf.String(), "\n")
		body := header + "\n" + strings.Repeat(rows, 1+3*maxAbortDrainBytes/2/len(rows))
		resp := post("/v1/models/engines/audit/stream?chunk=16", "text/csv", body)
		defer resp.Body.Close()
		_, summary, errLine := readStream(t, resp.Body)
		if summary != nil || !strings.Contains(errLine, "100-row") {
			t.Fatalf("summary=%v err=%q, want the row-limit error line", summary, errLine)
		}
	})
}

// TestAuditBatchMalformedCSV is the buffered endpoint's table-driven
// malformed-CSV contract: every malformed body is a clean 400 whose
// message names the offending line.
func TestAuditBatchMalformedCSV(t *testing.T) {
	ts := newTestServer(t)
	publishEngines(t, ts, 1200)

	cases := []struct {
		name, body, wantIn string
	}{
		{"short row", "BRV,KBM,GBM,DISP\n404,01,901\n", "line 2"},
		{"extra column", "BRV,KBM,GBM,DISP\n404,01,901,2000,extra\n", "line 2"},
		{"bad numeric", "BRV,KBM,GBM,DISP\n404,01,901,banana\n", "line 2"},
		{"unknown nominal", "BRV,KBM,GBM,DISP\n999,01,901,2000\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			errResp := decode[ErrorResponse](t, resp, http.StatusBadRequest)
			if !strings.Contains(errResp.Error, tc.wantIn) {
				t.Fatalf("error %q does not mention %q", errResp.Error, tc.wantIn)
			}
		})
	}

	// The JSON rows path reports width mismatches with the same typed
	// error rendering.
	resp := postJSON(t, ts.URL+"/v1/models/engines/audit", AuditRequest{Rows: [][]string{{"404", "01"}}})
	errResp := decode[ErrorResponse](t, resp, http.StatusBadRequest)
	if !strings.Contains(errResp.Error, "schema has") {
		t.Fatalf("JSON rows width error %q", errResp.Error)
	}
}
