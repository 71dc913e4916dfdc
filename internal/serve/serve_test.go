package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// engineFixture renders a QUIS-flavoured relation (strong BRV → GBM
// dependency, DISP correlated with BRV) as the text artefacts a client
// would upload: schema text + training CSV, plus the live table for
// crafting audit batches.
func engineFixture(t *testing.T, rows int) (schemaText, csvText string, tab *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501", "600"),
		dataset.NewNominal("KBM", "01", "02"),
		dataset.NewNominal("GBM", "901", "911", "950"),
		dataset.NewNumeric("DISP", 1000, 4000),
	)
	tab = dataset.NewTable(schema)
	rng := rand.New(rand.NewSource(2003))
	row := make([]dataset.Value, 4)
	for i := 0; i < rows; i++ {
		brv := rng.Intn(3)
		disp := 1500 + float64(brv)*1000 + rng.NormFloat64()*80
		if disp < 1000 {
			disp = 1000
		}
		if disp > 4000 {
			disp = 4000
		}
		row[0], row[1], row[2], row[3] = dataset.Nom(brv), dataset.Nom(rng.Intn(2)), dataset.Nom(brv), dataset.Num(disp)
		tab.AppendRow(row)
	}
	var schemaBuf, csvBuf bytes.Buffer
	if err := dataset.WriteSchemaText(&schemaBuf, schema); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
		t.Fatal(err)
	}
	return schemaBuf.String(), csvBuf.String(), tab
}

// lockedBuffer is a bytes.Buffer the server's connection goroutines can
// log into while the test goroutine reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startTestServer is the one way a test in this package boots a serving
// process over reg. Its cleanup closes the HTTP side first (which waits
// for every connection goroutine), then the Server (which waits for the
// monitor's asynchronous state writes) — both before t.TempDir removes
// the registry root underneath them — and fails the test if net/http
// recovered a panic on any connection.
func startTestServer(t *testing.T, reg *registry.Registry, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(reg, opts...)
	var errLog lockedBuffer
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
		if logged := errLog.String(); strings.Contains(logged, "panic serving") {
			t.Errorf("net/http recovered a handler panic:\n%s", logged)
		}
	})
	return ts, srv
}

// openRegistry opens a fresh registry under the test's temp dir.
func openRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := startTestServer(t, openRegistry(t))
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, wantStatus, raw)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return v
}

// TestEndToEnd exercises the whole acceptance path: induce a model from an
// uploaded CSV, audit a dirty batch and a single dirty row, and get ranked
// findings with confidences and proposed corrections.
func TestEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	schemaText, csvText, tab := engineFixture(t, 5000)

	// --- publish ---------------------------------------------------------
	// A model trained on clean history needs its pure rules to flag
	// deviations in future loads, hence filter reachable-only (the same
	// reasoning as cmd/audit's -induce default).
	created := decode[ModelResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name:    "engines",
		Schema:  schemaText,
		CSV:     csvText,
		Options: OptionsJSON{MinConfidence: 0.8, Filter: "reachable-only"},
	}), http.StatusCreated)
	if created.Version != 1 || created.TrainRows != tab.NumRows() || created.NumAttrModels == 0 {
		t.Fatalf("unexpected create response: %+v", created)
	}

	// --- list + get ------------------------------------------------------
	list := decode[ListResponse](t, mustGet(t, ts.URL+"/v1/models"), http.StatusOK)
	if len(list.Models) != 1 || list.Models[0].Name != "engines" {
		t.Fatalf("list = %+v", list)
	}
	got := decode[ModelResponse](t, mustGet(t, ts.URL+"/v1/models/engines"), http.StatusOK)
	if got.SchemaHash != created.SchemaHash {
		t.Fatalf("get schema hash %q != create %q", got.SchemaHash, created.SchemaHash)
	}

	// --- audit a dirty single row (JSON) ---------------------------------
	// Take a conforming BRV=404 row from the sample and break the paper's
	// §6.2 dependency BRV=404 → GBM=901 by observing GBM=911.
	schema := tab.Schema()
	brv, gbm := schema.Index("BRV"), schema.Index("GBM")
	dirtyRow := findCleanRow(t, tab, brv, gbm)
	dirtyRow[gbm] = "911"

	single := decode[AuditResponse](t, postJSON(t, ts.URL+"/v1/models/engines/audit",
		AuditRequest{Row: dirtyRow}), http.StatusOK)
	if single.RowsChecked != 1 {
		t.Fatalf("rowsChecked = %d, want 1", single.RowsChecked)
	}
	if single.NumSuspicious != 1 || len(single.Reports) != 1 {
		t.Fatalf("dirty row not flagged: %+v", single)
	}
	rep := single.Reports[0]
	if rep.ErrorConf < 0.8 || rep.Best == nil {
		t.Fatalf("weak report for seeded deviation: %+v", rep)
	}
	gbmFinding := findFinding(rep.Findings, "GBM")
	if gbmFinding == nil {
		t.Fatalf("no GBM finding in %+v", rep.Findings)
	}
	if gbmFinding.Observed != "911" || gbmFinding.Suggestion != "901" {
		t.Fatalf("GBM finding observed %q suggestion %q, want 911 → 901", gbmFinding.Observed, gbmFinding.Suggestion)
	}

	// --- audit a dirty CSV batch with workers=4, ranked output -----------
	dirty := tab.Clone()
	gbmAttr := dirty.Schema().Attr(gbm)
	corrupted := 0
	for r := 0; r < dirty.NumRows() && corrupted < 25; r += 97 {
		if gbmAttr.Format(dirty.Get(r, gbm)) == "901" {
			dirty.Set(r, gbm, gbmAttr.MustNominal("911"))
			corrupted++
		}
	}
	var batch bytes.Buffer
	if err := dataset.WriteCSV(&batch, dirty); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/engines/audit?workers=4", "text/csv", &batch)
	if err != nil {
		t.Fatal(err)
	}
	batchRes := decode[AuditResponse](t, resp, http.StatusOK)
	if batchRes.RowsChecked != dirty.NumRows() {
		t.Fatalf("rowsChecked = %d, want %d", batchRes.RowsChecked, dirty.NumRows())
	}
	if batchRes.NumSuspicious < corrupted/2 || len(batchRes.Reports) != batchRes.NumSuspicious {
		t.Fatalf("batch response shape: corrupted=%d suspicious=%d reports=%d",
			corrupted, batchRes.NumSuspicious, len(batchRes.Reports))
	}
	for i := 1; i < len(batchRes.Reports); i++ {
		if batchRes.Reports[i-1].ErrorConf < batchRes.Reports[i].ErrorConf {
			t.Fatalf("reports not ranked by error confidence at %d", i)
		}
	}

	// --- delete ----------------------------------------------------------
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/engines", nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", delResp.StatusCode)
	}
	decode[ErrorResponse](t, mustGet(t, ts.URL+"/v1/models/engines"), http.StatusNotFound)
}

// TestMultipartInduce publishes through the multipart form path (the curl
// -F shape from the auditd docs).
func TestMultipartInduce(t *testing.T) {
	ts := newTestServer(t)
	schemaText, csvText, _ := engineFixture(t, 1500)

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mw.WriteField("name", "engines-mp")
	fw, _ := mw.CreateFormFile("schema", "engine.schema")
	io.Copy(fw, strings.NewReader(schemaText))
	fw, _ = mw.CreateFormFile("csv", "history.csv")
	io.Copy(fw, strings.NewReader(csvText))
	mw.WriteField("options", `{"minConfidence":0.8,"filter":"paper"}`)
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/models", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	created := decode[ModelResponse](t, resp, http.StatusCreated)
	if created.Name != "engines-mp" || created.Version != 1 {
		t.Fatalf("multipart create: %+v", created)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	schemaText, csvText, _ := engineFixture(t, 600)

	// Invalid name.
	decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name: "../escape", Schema: schemaText, CSV: csvText,
	}), http.StatusBadRequest)

	// Garbage schema.
	decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name: "x", Schema: "BRV wat", CSV: csvText,
	}), http.StatusBadRequest)

	// Unknown filter mode.
	decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name: "x", Schema: schemaText, CSV: csvText,
		Options: OptionsJSON{Filter: "bogus"},
	}), http.StatusBadRequest)

	// Confidence options out of range.
	for _, opts := range []OptionsJSON{{MinConfidence: -0.5}, {MinConfidence: 1.5}, {ConfLevel: 1}} {
		decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
			Name: "x", Schema: schemaText, CSV: csvText, Options: opts,
		}), http.StatusUnprocessableEntity)
	}

	// Audit against a model that does not exist.
	decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models/nope/audit",
		AuditRequest{Row: []string{"404"}}), http.StatusNotFound)

	// Publish one model, then send malformed batches.
	decode[ModelResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name: "ok", Schema: schemaText, CSV: csvText,
	}), http.StatusCreated)
	decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models/ok/audit",
		AuditRequest{}), http.StatusBadRequest)
	decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models/ok/audit",
		AuditRequest{Row: []string{"404", "901"}}), http.StatusBadRequest) // wrong arity
}

// TestJSONRowsErrorsNumberRowsFromOne pins one numbering for both kinds
// of JSON-rows failure: a bad cell and a short row in the same position
// name the same 1-based row.
func TestJSONRowsErrorsNumberRowsFromOne(t *testing.T) {
	ts := newTestServer(t)
	schemaText, csvText, _ := engineFixture(t, 600)
	decode[ModelResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
		Name: "engines", Schema: schemaText, CSV: csvText,
	}), http.StatusCreated)

	good := []string{"404", "01", "901", "1500"}
	for _, tc := range []struct {
		name string
		rows [][]string
		want string
	}{
		{"bad cell in the first row", [][]string{{"999", "01", "901", "1500"}, good}, "row 1:"},
		{"short first row", [][]string{{"404", "01"}, good}, "row at line 1 "},
		{"bad cell in the second row", [][]string{good, {"404", "01", "901", "x"}}, "row 2:"},
		{"short second row", [][]string{good, {"404"}}, "row at line 2 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			er := decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models/engines/audit",
				AuditRequest{Rows: tc.rows}), http.StatusBadRequest)
			if !strings.Contains(er.Error, tc.want) {
				t.Fatalf("error %q does not name %q", er.Error, tc.want)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	health := decode[map[string]any](t, mustGet(t, ts.URL+"/healthz"), http.StatusOK)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// findCleanRow returns the rendered values of a sample row with BRV=404
// and GBM=901 (the strong §6.2 dependency) and no nulls.
func findCleanRow(t *testing.T, tab *dataset.Table, brv, gbm int) []string {
	t.Helper()
	schema := tab.Schema()
	for r := 0; r < tab.NumRows(); r++ {
		if schema.Attr(brv).Format(tab.Get(r, brv)) != "404" ||
			schema.Attr(gbm).Format(tab.Get(r, gbm)) != "901" {
			continue
		}
		hasNull := false
		out := make([]string, schema.Len())
		for c, a := range schema.Attrs() {
			v := tab.Get(r, c)
			if v.IsNull() {
				hasNull = true
				break
			}
			out[c] = a.Format(v)
		}
		if !hasNull {
			return out
		}
	}
	t.Fatal("no clean BRV=404/GBM=901 row in sample")
	return nil
}

func findFinding(fs []FindingJSON, attr string) *FindingJSON {
	for i := range fs {
		if fs[i].Attr == attr {
			return &fs[i]
		}
	}
	return nil
}
