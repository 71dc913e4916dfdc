package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/monitor"
	"dataaudit/internal/registry"
)

// The restart acceptance scenario: quality history must be a property of
// the registry root, not of the process. A server is stopped gracefully,
// a new one opens the same directory, and GET /v1/models/{name}/quality
// answers byte-identically — snapshots, drift state, lifecycle events and
// reservoir counters included.

// startServer opens (or reopens) a registry root as a serving process.
func startServer(t *testing.T, root string) (*httptest.Server, *Server) {
	t.Helper()
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	return startTestServer(t, reg, WithMonitorOptions(monitor.Options{
		WindowRows: 1000,
		MinWindows: 1,
		DriftDelta: 0.10,
	}))
}

func getQualityBody(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp := mustGet(t, ts.URL+"/v1/models/engines/quality")
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality status %d: %s", resp.StatusCode, body)
	}
	return body
}

func auditCSV(t *testing.T, ts *httptest.Server, csv string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	decode[AuditResponse](t, resp, http.StatusOK)
}

// TestQualitySurvivesRestart is the E2E restart test: induce → audit →
// drift events → stop the server → restart against the same registry
// root → /quality returns the pre-restart snapshots and events
// byte-equivalently, and monitoring picks up where it left off.
func TestQualitySurvivesRestart(t *testing.T) {
	root := t.TempDir()
	ts1, srv1 := startServer(t, root)
	tab := publishEngines(t, ts1, 4000)

	var cleanCSV bytes.Buffer
	if err := dataset.WriteCSV(&cleanCSV, tab); err != nil {
		t.Fatal(err)
	}
	dirty := tab.Clone()
	gbm, brv := dirty.Schema().Index("GBM"), dirty.Schema().Index("BRV")
	for r := 0; r < dirty.NumRows(); r++ {
		dirty.Set(r, gbm, dataset.Nom((dirty.Get(r, brv).NomIdx()+1)%3))
	}
	var dirtyCSV bytes.Buffer
	if err := dataset.WriteCSV(&dirtyCSV, dirty); err != nil {
		t.Fatal(err)
	}

	// Clean window, then a dirty window that fires drift (auto
	// re-induction is off: the event log records drift + skip).
	auditCSV(t, ts1, cleanCSV.String())
	auditCSV(t, ts1, dirtyCSV.String())

	before := decode[QualityResponse](t, mustGet(t, ts1.URL+"/v1/models/engines/quality"), http.StatusOK)
	if before.Monitor == nil || len(before.Monitor.Snapshots) == 0 {
		t.Fatalf("no monitor state before restart: %+v", before)
	}
	var drifted bool
	for _, e := range before.Monitor.Events {
		if e.Kind == monitor.EventDrift {
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("no drift event before restart; the test would be vacuous: %+v", before.Monitor.Events)
	}
	beforeBody := getQualityBody(t, ts1)

	// Graceful stop: drain HTTP, persist monitoring state.
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same root: history must be byte-identical
	// before the new process has observed a single row.
	ts2, srv2 := startServer(t, root)
	afterBody := getQualityBody(t, ts2)
	if !bytes.Equal(beforeBody, afterBody) {
		t.Fatalf("quality history not byte-equivalent across restart:\n%s\n--- vs ---\n%s", beforeBody, afterBody)
	}

	// The recovered state keeps monitoring: another audited window seals
	// on top of the restored history.
	auditCSV(t, ts2, cleanCSV.String())
	after := decode[QualityResponse](t, mustGet(t, ts2.URL+"/v1/models/engines/quality"), http.StatusOK)
	if after.Monitor == nil || after.Monitor.Windows != before.Monitor.Windows+1 {
		t.Fatalf("recovered monitor did not keep sealing: %+v vs %+v", after.Monitor, before.Monitor)
	}
	if after.Monitor.ReservoirSeen != before.Monitor.ReservoirSeen+int64(tab.NumRows()) {
		t.Fatalf("recovered reservoir did not keep sampling: %d -> %d",
			before.Monitor.ReservoirSeen, after.Monitor.ReservoirSeen)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupted/truncated state files must degrade to fresh state — a 200
	// with no monitor history — never fail the model.
	t.Run("corrupt state file recovers fresh", func(t *testing.T) {
		reg, err := registry.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		path := monitor.StateFile(reg.StateDir(), "engines")
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
			t.Fatal(err)
		}

		ts3, srv3 := startServer(t, root)
		q := decode[QualityResponse](t, mustGet(t, ts3.URL+"/v1/models/engines/quality"), http.StatusOK)
		if q.Monitor != nil {
			t.Fatalf("truncated state file served as history: %+v", q.Monitor)
		}
		if q.Baseline == nil || q.Version != 1 {
			t.Fatalf("registry-side quality lost: %+v", q)
		}
		// The model still audits and rebuilds monitoring state from
		// scratch.
		auditCSV(t, ts3, cleanCSV.String())
		q = decode[QualityResponse](t, mustGet(t, ts3.URL+"/v1/models/engines/quality"), http.StatusOK)
		if q.Monitor == nil || q.Monitor.Windows != 1 {
			t.Fatalf("fresh monitor state not rebuilt after corrupt load: %+v", q.Monitor)
		}
		if err := srv3.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
