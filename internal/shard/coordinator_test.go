package shard_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/registry"
	"dataaudit/internal/serve"
	"dataaudit/internal/shard"
)

// The differential fixture: a polluted QUIS sample and its structure
// model, shared across tests (induction is the expensive part).
var (
	fixOnce  sync.Once
	fixModel *audit.Model
	fixTable *dataset.Table
	fixErr   error
)

func quisFixture(t testing.TB) (*audit.Model, *dataset.Table) {
	t.Helper()
	fixOnce.Do(func() {
		schema := dataset.MustSchema(
			dataset.NewNominal("BRV", "404", "501", "600"),
			dataset.NewNominal("KBM", "01", "02"),
			dataset.NewNominal("GBM", "901", "911", "950"),
			dataset.NewNumeric("DISP", 1000, 4000),
		)
		clean := dataset.NewTable(schema)
		rng := rand.New(rand.NewSource(2003))
		row := make([]dataset.Value, 4)
		for i := 0; i < 4000; i++ {
			brv := rng.Intn(3)
			disp := 1500 + float64(brv)*1000 + rng.NormFloat64()*80
			if disp < 1000 {
				disp = 1000
			}
			if disp > 4000 {
				disp = 4000
			}
			row[0], row[1], row[2], row[3] = dataset.Nom(brv), dataset.Nom(rng.Intn(2)), dataset.Nom(brv), dataset.Num(disp)
			clean.AppendRow(row)
		}
		plan := pollute.Plan{Cell: []pollute.Configured{
			{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
			{Prob: 0.01, P: &pollute.NullValuePolluter{}},
		}}
		dirty, _ := pollute.Run(clean, plan, rand.New(rand.NewSource(42)))
		m, err := audit.Induce(dirty, audit.Options{MinConfidence: 0.8})
		if err != nil {
			fixErr = err
			return
		}
		fixModel, fixTable = m, dirty
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixModel, fixTable
}

// publishFixture commits the fixture model into a fresh coordinator-side
// registry and returns its meta (the identity workers get synced to).
func publishFixture(t *testing.T, m *audit.Model) registry.Meta {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// startWorker boots a plain auditd over a fresh registry — exactly what a
// production worker is — and returns its base URL plus the registry for
// post-hoc assertions.
func startWorker(t *testing.T) (string, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.WithMetrics(false), serve.WithDashboard(false))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, reg
}

func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i], _ = startWorker(t)
	}
	return urls
}

// gobBytes serializes a Result with the wall-time field zeroed, for
// byte-identity comparison (the same helper the in-process differential
// suites use).
func gobBytes(t *testing.T, res *audit.Result) []byte {
	t.Helper()
	cp := *res
	cp.CheckTime = 0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newCoordinator(t *testing.T, workers []string, mutate func(*shard.Options)) *shard.Coordinator {
	t.Helper()
	opts := shard.Options{
		Workers:   workers,
		ChunkRows: 512, // several chunks per shard even on the small fixture
		Backoff:   5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := shard.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedDifferentialQUIS is the tentpole contract: across shard
// counts {1,2,4,8}, a 3-worker sharded audit produces a
// Result gob-byte-identical to the single-node scorer — same reports,
// same record IDs, same Suspicious ranking, same monitor tallies.
func TestShardedDifferentialQUIS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process differential fixture is expensive")
	}
	m, dirty := quisFixture(t)
	meta := publishFixture(t, m)
	workers := startWorkers(t, 3)

	want := m.AuditTable(dirty)
	wantBytes := gobBytes(t, want)
	wantSus, wantTallies := m.TallyResult(want)

	for _, shards := range []int{1, 2, 4, 8} {
		coord := newCoordinator(t, workers, func(o *shard.Options) { o.Shards = shards })
		got, err := coord.AuditTable(context.Background(), m, meta, dirty)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !bytes.Equal(wantBytes, gobBytes(t, got)) {
			t.Fatalf("%d shards: sharded result is not byte-identical to single-node", shards)
		}
		gotSus, gotTallies := m.TallyResult(got)
		if gotSus != wantSus {
			t.Fatalf("%d shards: suspicious %d, want %d", shards, gotSus, wantSus)
		}
		if len(gotTallies) != len(wantTallies) {
			t.Fatalf("%d shards: tally count %d, want %d", shards, len(gotTallies), len(wantTallies))
		}
		for i := range wantTallies {
			if wantTallies[i] != gotTallies[i] {
				t.Fatalf("%d shards, tally %d: %+v, want %+v", shards, i, gotTallies[i], wantTallies[i])
			}
		}
	}
}

// TestShardedReplication: workers start empty, the first audit replicates
// the pinned version verbatim (same Version, CreatedAt, SchemaHash), and
// a recreated model on the coordinator side re-replicates cleanly over
// the stale worker copy.
func TestShardedReplication(t *testing.T) {
	m, dirty := quisFixture(t)
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	workerURL, workerReg := startWorker(t)
	coord := newCoordinator(t, []string{workerURL}, nil)

	if _, err := coord.AuditTable(context.Background(), m, meta, dirty); err != nil {
		t.Fatal(err)
	}
	wMeta, err := workerReg.MetaOfVersion("engines", meta.Version)
	if err != nil {
		t.Fatalf("worker has no replica: %v", err)
	}
	if !wMeta.CreatedAt.Equal(meta.CreatedAt) || wMeta.SchemaHash != meta.SchemaHash {
		t.Fatalf("replica identity %+v diverges from source %+v", wMeta, meta)
	}

	// Recreate the model coordinator-side: same version number, new
	// CreatedAt. The next audit must resync the worker through the
	// conflict path, not score against the impostor.
	if err := reg.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	meta2, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != meta.Version || meta2.CreatedAt.Equal(meta.CreatedAt) {
		t.Fatalf("recreation did not produce a same-version different-CreatedAt publish: %+v vs %+v", meta2, meta)
	}
	if _, err := coord.AuditTable(context.Background(), m, meta2, dirty); err != nil {
		t.Fatal(err)
	}
	wMeta2, err := workerReg.MetaOfVersion("engines", meta2.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !wMeta2.CreatedAt.Equal(meta2.CreatedAt) {
		t.Fatal("worker still holds the stale pre-recreation replica")
	}
}

// flakyWorker wraps a real worker and misbehaves on its shard route for
// the first `failures` requests, in a per-case way.
type flakyWorker struct {
	h        http.Handler
	mode     string // "abort", "conflict", "corrupt", "partial"
	mu       sync.Mutex
	failures int
	seen     int
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/audit/shard") {
		f.mu.Lock()
		fail := f.failures > 0
		if fail {
			f.failures--
		}
		f.seen++
		f.mu.Unlock()
		if fail {
			switch f.mode {
			case "abort":
				// Die mid-shard: the connection drops while the
				// coordinator is mid-request.
				panic(http.ErrAbortHandler)
			case "conflict":
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusConflict)
				w.Write([]byte(`{"error":"model moved underneath you"}`))
				return
			case "corrupt":
				w.Header().Set("Content-Type", shard.ContentTypeShardResult)
				w.WriteHeader(http.StatusOK)
				w.Write([]byte("these are not the gobs you are looking for"))
				return
			case "partial":
				// Start a valid frame of a different result — a
				// finding on every row — and die two thirds in, so the
				// coordinator decodes part of it into the shard's
				// range before the body breaks off.
				frame := foreignFrame(r)
				w.Header().Set("Content-Type", shard.ContentTypeShardResult)
				w.WriteHeader(http.StatusOK)
				w.Write(frame[:2*len(frame)/3])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}
		}
	}
	f.h.ServeHTTP(w, r)
}

// foreignFrame reads a shard request's chunk stream and encodes a result
// frame that fits the shard's size and width but disagrees with the
// model on every row.
func foreignFrame(r *http.Request) []byte {
	sr := dataset.NewChunkStreamReader(r.Body)
	rows := 0
	for {
		ck, err := sr.Read()
		if err != nil {
			break
		}
		rows += ck.Rows()
	}
	width := sr.Schema().Len()
	res := &audit.Result{NumAttrs: width, Reports: make([]audit.RecordReport, rows)}
	for i := range res.Reports {
		rep := &res.Reports[i]
		*rep = audit.RecordReport{Row: i, ID: int64(1e9 + i), ErrorConf: 0.99, Suspicious: true}
		rep.Findings = []audit.Finding{{Attr: i % width, Observed: 0, Predicted: 1, ErrorConf: 0.99, Suggestion: dataset.Nom(1)}}
		rep.Best = &rep.Findings[0]
	}
	var buf bytes.Buffer
	shard.EncodeShardResult(&buf, &shard.ShardResult{Rows: rows, Result: res})
	return buf.Bytes()
}

// startFlakyWorker boots a worker behind a flaky front.
func startFlakyWorker(t *testing.T, mode string, failures int) (string, *flakyWorker) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.WithMetrics(false), serve.WithDashboard(false))
	f := &flakyWorker{h: srv.Handler(), mode: mode, failures: failures}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return ts.URL, f
}

// TestShardedWorkerFailures is the table-driven failure suite: every
// recoverable failure mode must still converge on output byte-identical
// to single-node; unrecoverable ones must fail loudly.
func TestShardedWorkerFailures(t *testing.T) {
	m, dirty := quisFixture(t)
	meta := publishFixture(t, m)
	want := gobBytes(t, m.AuditTable(dirty))

	deadURL := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		url := ts.URL
		ts.Close() // refuses connections from here on
		return url
	}

	cases := []struct {
		name    string
		workers func(t *testing.T) []string
		shards  int
		wantErr bool
	}{
		{
			name: "worker dead at dispatch",
			workers: func(t *testing.T) []string {
				return append(startWorkers(t, 2), deadURL())
			},
			shards: 6,
		},
		{
			name: "worker dies mid-shard",
			workers: func(t *testing.T) []string {
				live := startWorkers(t, 2)
				flaky, _ := startFlakyWorker(t, "abort", 2)
				return append(live, flaky)
			},
			shards: 6,
		},
		{
			name: "version conflict forces resync",
			workers: func(t *testing.T) []string {
				flaky, _ := startFlakyWorker(t, "conflict", 1)
				return []string{flaky}
			},
			shards: 3,
		},
		{
			name: "corrupt shard response is retried",
			workers: func(t *testing.T) []string {
				live := startWorkers(t, 1)
				flaky, _ := startFlakyWorker(t, "corrupt", 2)
				return append(live, flaky)
			},
			shards: 4,
		},
		{
			name: "a cut frame of another result is overwritten by the retry",
			workers: func(t *testing.T) []string {
				live := startWorkers(t, 1)
				flaky, _ := startFlakyWorker(t, "partial", 2)
				return append(live, flaky)
			},
			shards: 4,
		},
		{
			name: "all workers dead",
			workers: func(t *testing.T) []string {
				return []string{deadURL(), deadURL()}
			},
			shards:  4,
			wantErr: true,
		},
		{
			name: "persistent corruption exhausts the retry budget",
			workers: func(t *testing.T) []string {
				flaky, _ := startFlakyWorker(t, "corrupt", 1<<30)
				return []string{flaky}
			},
			shards:  2,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newCoordinator(t, tc.workers(t), func(o *shard.Options) {
				o.Shards = tc.shards
				o.Retries = 4
			})
			got, err := coord.AuditTable(context.Background(), m, meta, dirty)
			if tc.wantErr {
				if err == nil {
					t.Fatal("audit succeeded, want failure")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, gobBytes(t, got)) {
				t.Fatal("result after worker failure is not byte-identical to single-node")
			}
		})
	}
}

// TestCoordinatorOptionValidation: bad worker sets and parameters are
// rejected at construction, not at audit time.
func TestCoordinatorOptionValidation(t *testing.T) {
	if _, err := shard.New(shard.Options{}); err == nil {
		t.Fatal("empty worker set accepted")
	}
	if _, err := shard.New(shard.Options{Workers: []string{"localhost:8080"}}); err == nil {
		t.Fatal("schemeless worker URL accepted")
	}
	if _, err := shard.New(shard.Options{Workers: []string{"http://x"}, Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	c, err := shard.New(shard.Options{Workers: []string{"http://x/", " http://y "}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers()[0] != "http://x" || c.Workers()[1] != "http://y" {
		t.Fatalf("worker URLs not normalized: %v", c.Workers())
	}
	if c.Shards() != 2 {
		t.Fatalf("defaults: shards=%d", c.Shards())
	}
}

// TestWidthMismatchRejected: a table of foreign arity fails fast.
func TestWidthMismatchRejected(t *testing.T) {
	m, _ := quisFixture(t)
	meta := publishFixture(t, m)
	coord := newCoordinator(t, []string{"http://127.0.0.1:1"}, nil)
	narrow := dataset.NewTable(dataset.MustSchema(dataset.NewNumeric("x", 0, 1)))
	narrow.AppendRow([]dataset.Value{dataset.Num(0.5)})
	if _, err := coord.AuditTable(context.Background(), m, meta, narrow); err == nil {
		t.Fatal("foreign-arity table accepted")
	}
}
