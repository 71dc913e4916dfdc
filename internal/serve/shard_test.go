package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
	"dataaudit/internal/shard"
)

// shardServer bundles everything the shard route tests need.
type shardServer struct {
	ts    *httptest.Server
	srv   *Server
	reg   *registry.Registry
	model *audit.Model
	meta  registry.Meta
	tab   *dataset.Table
}

// shardFixture publishes an induced model straight into a fresh registry
// and boots a server over it.
func shardFixture(t *testing.T, opts ...Option) *shardServer {
	t.Helper()
	_, _, tab := engineFixture(t, 1200)
	m, err := audit.Induce(tab, audit.Options{MinConfidence: 0.8, Filter: audittree.FilterReachableOnly})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	ts, srv := startTestServer(t, reg, opts...)
	return &shardServer{ts: ts, srv: srv, reg: reg, model: m, meta: meta, tab: tab}
}

// chunkStreamBody renders a table as the shard route's chunk-stream wire
// format.
func chunkStreamBody(t *testing.T, tab *dataset.Table, chunkRows int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sw := dataset.NewChunkStreamWriter(&buf)
	ck := dataset.NewColumnChunk(tab.Schema())
	for lo := 0; lo < tab.NumRows(); lo += chunkRows {
		hi := lo + chunkRows
		if hi > tab.NumRows() {
			hi = tab.NumRows()
		}
		tab.ChunkInto(ck, lo, hi)
		if err := sw.Write(ck); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func postShard(t *testing.T, tsURL string, query string, contentType string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, tsURL+"/v1/models/engines/audit/shard?"+query, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShardRoute: the worker half of the protocol end to end — a chunk
// stream in, a shard result out, identical to in-process scoring.
func TestShardRoute(t *testing.T) {
	f := shardFixture(t)
	meta, tab, m := f.meta, f.tab, f.model
	pin := url.Values{
		"version":   {fmt.Sprint(meta.Version)},
		"createdAt": {meta.CreatedAt.UTC().Format(time.RFC3339Nano)},
	}.Encode()

	resp := postShard(t, f.ts.URL, pin, shard.ContentTypeChunkStream, chunkStreamBody(t, tab, 128))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != shard.ContentTypeShardResult {
		t.Fatalf("response Content-Type %q", ct)
	}
	got, err := shard.DecodeShardResult(resp.Body, tab.NumRows(), tab.NumCols())
	if err != nil {
		t.Fatal(err)
	}
	want := m.AuditTable(tab)
	if len(got.Result.Reports) != len(want.Reports) {
		t.Fatalf("%d reports, want %d", len(got.Result.Reports), len(want.Reports))
	}
	for i := range want.Reports {
		g, w := got.Result.Reports[i], want.Reports[i]
		if g.ErrorConf != w.ErrorConf || g.Suspicious != w.Suspicious || g.ID != w.ID {
			t.Fatalf("report %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestShardRouteRejects: protocol violations map to the documented
// status codes.
func TestShardRouteRejects(t *testing.T) {
	f := shardFixture(t, WithMaxBatchRows(100))
	meta, tab := f.meta, f.tab
	goodPin := url.Values{
		"version":   {fmt.Sprint(meta.Version)},
		"createdAt": {meta.CreatedAt.UTC().Format(time.RFC3339Nano)},
	}.Encode()
	stalePin := url.Values{
		"version":   {fmt.Sprint(meta.Version)},
		"createdAt": {meta.CreatedAt.Add(time.Second).UTC().Format(time.RFC3339Nano)},
	}.Encode()

	foreign := dataset.NewTable(dataset.MustSchema(dataset.NewNumeric("x", 0, 1)))
	foreign.AppendRow([]dataset.Value{dataset.Num(0.5)})

	cases := []struct {
		name        string
		query       string
		contentType string
		body        io.Reader
		wantStatus  int
		fragment    string
	}{
		{"wrong content type", goodPin, "application/json", strings.NewReader("{}"), http.StatusUnsupportedMediaType, "Content-Type"},
		{"bad version", "version=abc", shard.ContentTypeChunkStream, chunkStreamBody(t, tab, 64), http.StatusBadRequest, "version"},
		{"unknown version", "version=99", shard.ContentTypeChunkStream, chunkStreamBody(t, tab, 64), http.StatusNotFound, ""},
		{"malformed createdAt", "version=1&createdAt=yesterday", shard.ContentTypeChunkStream, chunkStreamBody(t, tab, 64), http.StatusBadRequest, "createdAt"},
		{"stale createdAt pin", stalePin, shard.ContentTypeChunkStream, chunkStreamBody(t, tab, 64), http.StatusConflict, "pinned"},
		{"garbage stream", goodPin, shard.ContentTypeChunkStream, strings.NewReader("not a chunk stream"), http.StatusBadRequest, ""},
		{"schema mismatch", goodPin, shard.ContentTypeChunkStream, chunkStreamBody(t, foreign, 8), http.StatusBadRequest, "schema"},
		{"row limit", goodPin, shard.ContentTypeChunkStream, chunkStreamBody(t, tab, 64), http.StatusRequestEntityTooLarge, "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postShard(t, f.ts.URL, tc.query, tc.contentType, tc.body)
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("non-JSON error body: %s", raw)
			}
			if !strings.Contains(e.Error, tc.fragment) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.fragment)
			}
		})
	}
}

func putReplica(t *testing.T, tsURL, name, contentType string, meta registry.Meta, m *audit.Model) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := shard.EncodeReplica(&buf, meta, m); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, tsURL+"/v1/models/"+name+"/replicate", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestReplicateRoute: identity-preserving install, idempotent re-push,
// conflict resolution by dropping the local copy, and input validation.
func TestReplicateRoute(t *testing.T) {
	// Source side: a published model whose identity we replicate.
	src := shardFixture(t)
	m, meta := src.model, src.meta

	// Destination: an empty worker.
	wreg := openRegistry(t)
	ts, _ := startTestServer(t, wreg)

	resp := putReplica(t, ts.URL, "engines", shard.ContentTypeReplica, meta, m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("install: status %d", resp.StatusCode)
	}
	got, err := wreg.MetaOfVersion("engines", meta.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(meta.CreatedAt) || got.SchemaHash != meta.SchemaHash {
		t.Fatalf("replica meta %+v diverges from %+v", got, meta)
	}

	// Idempotent re-push.
	resp = putReplica(t, ts.URL, "engines", shard.ContentTypeReplica, meta, m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("re-push: status %d", resp.StatusCode)
	}

	// Conflicting identity (same version, different CreatedAt): the worker
	// must drop its copy and take the push — coordinator wins.
	meta2 := meta
	meta2.CreatedAt = meta.CreatedAt.Add(time.Minute)
	resp = putReplica(t, ts.URL, "engines", shard.ContentTypeReplica, meta2, m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("conflict push: status %d", resp.StatusCode)
	}
	got, err = wreg.MetaOfVersion("engines", meta.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(meta2.CreatedAt) {
		t.Fatal("worker kept the stale replica after a conflicting push")
	}

	// Name mismatch between route and envelope.
	resp = putReplica(t, ts.URL, "other", shard.ContentTypeReplica, meta, m)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "route names") {
		t.Fatalf("name mismatch: status %d body %s", resp.StatusCode, raw)
	}

	// Wrong content type.
	resp = putReplica(t, ts.URL, "engines", "application/json", meta, m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("wrong content type: status %d", resp.StatusCode)
	}
}

// TestCoordinatorModeAudit: a coordinator auditd fans the buffered audit
// route out across worker processes; the JSON reports are identical to
// the ?local=1 in-process path and the response is flagged sharded.
func TestCoordinatorModeAudit(t *testing.T) {
	// Two plain workers.
	var workerURLs []string
	for i := 0; i < 2; i++ {
		wts := newTestServer(t)
		workerURLs = append(workerURLs, wts.URL)
	}

	f := shardFixture(t, WithCoordinator(shard.Options{
		Workers:   workerURLs,
		Shards:    4,
		ChunkRows: 128,
	}))
	tab := f.tab

	// GET /v1/shard/workers reflects the configuration.
	var sw ShardWorkersResponse
	resp, err := http.Get(f.ts.URL + "/v1/shard/workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sw.Workers) != 2 || sw.Shards != 4 {
		t.Fatalf("workers response %+v", sw)
	}

	// Craft a batch with known suspicious rows: break the BRV=404 → GBM=901
	// dependency on every eighth conforming row.
	gbm := tab.Schema().Index("GBM")
	rows := make([][]string, 0, 64)
	flipped := 0
	for r := 0; r < 64; r++ {
		rendered := make([]string, tab.NumCols())
		for c := 0; c < tab.NumCols(); c++ {
			rendered[c] = tab.Schema().Attr(c).Format(tab.Get(r, c))
		}
		if flipped < 5 && rendered[gbm] == "901" {
			rendered[gbm] = "911"
			flipped++
		}
		rows = append(rows, rendered)
	}
	if flipped == 0 {
		t.Fatal("fixture has no conforming GBM=901 row in the first 64")
	}

	auditURL := f.ts.URL + "/v1/models/engines/audit?all=1"
	shardedResp := decode[AuditResponse](t, postJSON(t, auditURL, AuditRequest{Rows: rows}), http.StatusOK)
	localResp := decode[AuditResponse](t, postJSON(t, auditURL+"&local=1", AuditRequest{Rows: rows}), http.StatusOK)

	if !shardedResp.Sharded || shardedResp.ShardWorkers != 2 {
		t.Fatalf("sharded response not flagged: %+v", shardedResp)
	}
	if localResp.Sharded || localResp.ShardWorkers != 0 {
		t.Fatalf("?local=1 response flagged sharded: %+v", localResp)
	}
	if shardedResp.NumSuspicious == 0 {
		t.Fatal("polluted batch produced no suspicious records")
	}

	// Identical modulo timing and topology fields.
	norm := func(r AuditResponse) AuditResponse {
		r.CheckMillis, r.Workers, r.Sharded, r.ShardWorkers = 0, 0, false, 0
		return r
	}
	a, _ := json.Marshal(norm(shardedResp))
	b, _ := json.Marshal(norm(localResp))
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded and local JSON diverge:\n%s\n%s", a, b)
	}
}

// TestCoordinatorModeSingleRow: the single-row audit path also rides the
// coordinator (it is the same buffered route).
func TestCoordinatorModeSingleRow(t *testing.T) {
	wts := newTestServer(t)

	f := shardFixture(t, WithCoordinator(shard.Options{Workers: []string{wts.URL}}))
	tab := f.tab
	row := make([]string, tab.NumCols())
	for c := range row {
		row[c] = tab.Schema().Attr(c).Format(tab.Get(0, c))
	}
	got := decode[AuditResponse](t, postJSON(t, f.ts.URL+"/v1/models/engines/audit?all=1", AuditRequest{Row: row}), http.StatusOK)
	if !got.Sharded || got.RowsChecked != 1 {
		t.Fatalf("single-row coordinator audit: %+v", got)
	}
}

// TestCoordinatorAllWorkersDownIs502: coordinator with an unreachable
// worker set surfaces a gateway error, not a silent local fallback.
func TestCoordinatorAllWorkersDownIs502(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	f := shardFixture(t, WithCoordinator(shard.Options{
		Workers: []string{deadURL},
		Backoff: time.Millisecond,
	}))
	tab := f.tab
	row := make([]string, tab.NumCols())
	for c := range row {
		row[c] = tab.Schema().Attr(c).Format(tab.Get(0, c))
	}
	resp := postJSON(t, f.ts.URL+"/v1/models/engines/audit", AuditRequest{Row: row})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 502; body: %s", resp.StatusCode, raw)
	}

	// The escape hatch still works with every worker down.
	got := decode[AuditResponse](t, postJSON(t, f.ts.URL+"/v1/models/engines/audit?local=1", AuditRequest{Row: row}), http.StatusOK)
	if got.Sharded {
		t.Fatal("?local=1 flagged sharded")
	}
}

// TestWorkerShardRouteSkipsMonitor: scoring a shard must not feed the
// worker's quality monitor — the coordinator observes the merged batch.
func TestWorkerShardRouteSkipsMonitor(t *testing.T) {
	f := shardFixture(t)
	pin := url.Values{
		"version":   {fmt.Sprint(f.meta.Version)},
		"createdAt": {f.meta.CreatedAt.UTC().Format(time.RFC3339Nano)},
	}.Encode()
	resp := postShard(t, f.ts.URL, pin, shard.ContentTypeChunkStream, chunkStreamBody(t, f.tab, 256))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st, ok := f.srv.mon.Quality("engines"); ok && st.PendingRows > 0 {
		t.Fatalf("shard route fed the worker monitor: %+v", st)
	}
}
