package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/monitor"
)

// newMonitoredServer builds a test server with an aggressive monitoring
// configuration so a single polluted upload can walk the whole lifecycle.
func newMonitoredServer(t *testing.T, monOpts monitor.Options) (*httptest.Server, *Server) {
	t.Helper()
	return startTestServer(t, openRegistry(t), WithMonitorOptions(monOpts))
}

// TestQualityEndpoint covers the read path: baseline present right after
// induction, monitor state appearing after the first audit.
func TestQualityEndpoint(t *testing.T) {
	ts := newTestServer(t)
	tab := publishEngines(t, ts, 3000)

	q := decode[QualityResponse](t, mustGet(t, ts.URL+"/v1/models/engines/quality"), http.StatusOK)
	if q.Model != "engines" || q.Version != 1 {
		t.Fatalf("quality identity wrong: %+v", q)
	}
	if q.Baseline == nil || q.Baseline.Rows != int64(tab.NumRows()) {
		t.Fatalf("induction-time baseline missing: %+v", q.Baseline)
	}
	if q.Monitor != nil {
		t.Fatalf("monitor state before any audit: %+v", q.Monitor)
	}

	// One audited batch makes the monitor state appear.
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(csvBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	decode[AuditResponse](t, resp, http.StatusOK)

	q = decode[QualityResponse](t, mustGet(t, ts.URL+"/v1/models/engines/quality"), http.StatusOK)
	if q.Monitor == nil || q.Monitor.Windows == 0 || len(q.Monitor.Snapshots) == 0 {
		t.Fatalf("monitor state missing after audit: %+v", q.Monitor)
	}
	if q.Monitor.Snapshots[0].SuspiciousRate > 0.05 {
		t.Fatalf("clean batch scored dirty: %+v", q.Monitor.Snapshots[0])
	}

	t.Run("unknown model is 404", func(t *testing.T) {
		decode[ErrorResponse](t, mustGet(t, ts.URL+"/v1/models/nope/quality"), http.StatusNotFound)
	})
}

// TestDriftToReinductionE2E is the acceptance scenario: a clean-trained
// model audits a polluted stream, drift fires, auto re-induction
// publishes version 2 through the registry's atomic path, and the
// quality route returns baseline, snapshot history and the lifecycle
// events.
func TestDriftToReinductionE2E(t *testing.T) {
	ts, srv := newMonitoredServer(t, monitor.Options{
		WindowRows:      1000,
		MinWindows:      1,
		DriftDelta:      0.10,
		AutoReinduce:    true,
		MinReinduceRows: 200,
		ReservoirRows:   2048,
	})
	tab := publishEngines(t, ts, 4000)

	// Pollute every row: break the BRV → GBM dependency wholesale.
	dirty := tab.Clone()
	gbm := dirty.Schema().Index("GBM")
	brv := dirty.Schema().Index("BRV")
	for r := 0; r < dirty.NumRows(); r++ {
		dirty.Set(r, gbm, dataset.Nom((dirty.Get(r, brv).NomIdx()+1)%3))
	}
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, dirty); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/models/engines/audit/stream", "text/csv", strings.NewReader(csvBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	_, summary, errLine := readStream(t, resp.Body)
	if summary == nil || errLine != "" {
		t.Fatalf("stream did not finish cleanly: %q", errLine)
	}
	if summary.NumSuspicious == 0 {
		t.Fatal("polluted stream scored clean; drift cannot fire")
	}
	// Re-induction runs in a background worker; rendezvous before
	// asserting the published successor.
	srv.Monitor().WaitReinductions()

	// The lifecycle must have closed: drift event, re-induction event,
	// version 2 committed with its own baseline.
	q := decode[QualityResponse](t, mustGet(t, ts.URL+"/v1/models/engines/quality"), http.StatusOK)
	if q.Version != 2 {
		t.Fatalf("latest version %d, want 2 (auto re-induction)", q.Version)
	}
	if q.Baseline == nil {
		t.Fatal("successor version lacks a baseline")
	}
	if q.Monitor == nil || len(q.Monitor.Snapshots) == 0 {
		t.Fatalf("no snapshot history: %+v", q.Monitor)
	}
	var drifted, reinduced bool
	for _, e := range q.Monitor.Events {
		switch e.Kind {
		case monitor.EventDrift:
			drifted = true
			// The per-attribute detectors attribute the drift: GBM is the
			// broken column, and the names ride the event over HTTP.
			var hasGBM bool
			for _, a := range e.Attrs {
				hasGBM = hasGBM || a == "GBM"
			}
			if !hasGBM {
				t.Fatalf("drift event did not attribute the broken attribute: %+v", e)
			}
		case monitor.EventReinduced:
			reinduced = true
			if e.NewVersion != 2 {
				t.Fatalf("re-induced to v%d, want 2", e.NewVersion)
			}
		}
	}
	if !drifted || !reinduced {
		t.Fatalf("lifecycle incomplete (drift=%v reinduce=%v): %+v", drifted, reinduced, q.Monitor.Events)
	}
	if q.Monitor.Drift.Drifted {
		t.Fatalf("drift latch not cleared by re-induction: %+v", q.Monitor.Drift)
	}

	// The registry agrees: GET /v1/models/{name} serves the successor.
	got := decode[ModelResponse](t, mustGet(t, ts.URL+"/v1/models/engines"), http.StatusOK)
	if got.Version != 2 || got.Quality == nil {
		t.Fatalf("registry meta wrong after re-induction: v%d quality=%v", got.Version, got.Quality != nil)
	}
}

// TestVersionParam pins the ?version= contract: absent means latest,
// explicit 0 (and anything else that is not a positive integer) is a 400
// — serving latest for an explicit 0 would mask client bugs with
// confidently wrong scores.
func TestVersionParam(t *testing.T) {
	ts := newTestServer(t)
	publishEngines(t, ts, 2000)

	body := `{"row":["404","01","901","1500"]}`
	cases := []struct {
		name    string
		query   string
		status  int
		mention string
	}{
		{"absent means latest", "", http.StatusOK, ""},
		{"explicit latest version", "?version=1", http.StatusOK, ""},
		{"explicit zero is rejected", "?version=0", http.StatusBadRequest, "bad version"},
		{"negative is rejected", "?version=-1", http.StatusBadRequest, "bad version"},
		{"garbage is rejected", "?version=latest", http.StatusBadRequest, "bad version"},
		{"missing version is 404", "?version=99", http.StatusNotFound, "not found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSONBody(t, ts.URL+"/v1/models/engines/audit"+tc.query, body)
			if tc.status == http.StatusOK {
				decode[AuditResponse](t, resp, http.StatusOK)
				return
			}
			e := decode[ErrorResponse](t, resp, tc.status)
			if !strings.Contains(e.Error, tc.mention) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.mention)
			}
		})
	}
}

func postJSONBody(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHeaderMismatchRejectedEverywhere is the serving half of the
// column-misalignment regression: a CSV whose header has the right arity
// but shuffled or renamed columns must be a 400 naming the offending
// columns on induction, buffered audit and streaming audit — never
// silently scored.
func TestHeaderMismatchRejectedEverywhere(t *testing.T) {
	ts := newTestServer(t)
	schemaText, csvText, _ := engineFixture(t, 2000)
	publishEngines(t, ts, 2000)

	// Same arity, swapped BRV/GBM names: every value would land in the
	// wrong column if accepted.
	shuffled := "GBM,KBM,BRV,DISP\n" + strings.SplitN(csvText, "\n", 2)[1]

	requireNamed := func(t *testing.T, e ErrorResponse) {
		t.Helper()
		for _, want := range []string{"header", `"GBM"`, `"BRV"`} {
			if !strings.Contains(e.Error, want) {
				t.Fatalf("error %q does not mention %s", e.Error, want)
			}
		}
	}

	t.Run("induction", func(t *testing.T) {
		e := decode[ErrorResponse](t, postJSON(t, ts.URL+"/v1/models", InduceRequest{
			Name: "misaligned", Schema: schemaText, CSV: shuffled,
		}), http.StatusBadRequest)
		requireNamed(t, e)
	})
	t.Run("buffered audit", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(shuffled))
		if err != nil {
			t.Fatal(err)
		}
		requireNamed(t, decode[ErrorResponse](t, resp, http.StatusBadRequest))
	})
	t.Run("streaming audit", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/models/engines/audit/stream", "text/csv", strings.NewReader(shuffled))
		if err != nil {
			t.Fatal(err)
		}
		requireNamed(t, decode[ErrorResponse](t, resp, http.StatusBadRequest))
	})
}

// TestDeleteClearsMonitorState is the regression test for monitor-state
// poisoning: deleting a model and recreating it under the same name
// (versions restart at 1) must start monitoring from scratch, not
// inherit the deleted model's baseline, windows and reservoir.
func TestDeleteClearsMonitorState(t *testing.T) {
	ts := newTestServer(t)
	tab := publishEngines(t, ts, 2000)

	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(csvBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	decode[AuditResponse](t, resp, http.StatusOK)
	if q := decode[QualityResponse](t, mustGet(t, ts.URL+"/v1/models/engines/quality"), http.StatusOK); q.Monitor == nil {
		t.Fatal("no monitor state before delete")
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/engines", nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", del.StatusCode)
	}

	// Recreate under the same name: version restarts at 1, and the
	// monitor must know nothing about it.
	publishEngines(t, ts, 2000)
	q := decode[QualityResponse](t, mustGet(t, ts.URL+"/v1/models/engines/quality"), http.StatusOK)
	if q.Version != 1 {
		t.Fatalf("recreated model version %d, want 1", q.Version)
	}
	if q.Monitor != nil {
		t.Fatalf("recreated model inherited monitor state: %+v", q.Monitor)
	}
}
