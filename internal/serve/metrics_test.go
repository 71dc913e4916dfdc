package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/monitor"
	"dataaudit/internal/obs"
)

// newMetricsServer boots a server with a small monitoring window so one
// audited batch seals windows and populates the full metric surface.
func newMetricsServer(t *testing.T, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	opts = append([]Option{WithMonitorOptions(monitor.Options{WindowRows: 500})}, opts...)
	return startTestServer(t, openRegistry(t), opts...)
}

func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp
}

// TestMetricsEndpoint drives induce → audit → scrape and checks the
// exposition is well-formed (via the obs package's format oracle) and
// carries the advertised series with live values.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newMetricsServer(t)
	tab := publishEngines(t, ts, 3000)

	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, tab); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(csvBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	decode[AuditResponse](t, resp, http.StatusOK)

	body, mresp := scrape(t, ts.URL)
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, body)
	}

	// The families the docs advertise must all be present.
	for _, fam := range []string{
		"dataaudit_rows_scored_total",
		"dataaudit_rows_suspicious_total",
		"dataaudit_attr_deviations_total",
		"dataaudit_attr_suspicious_total",
		"dataaudit_monitor_windows_sealed_total",
		"dataaudit_window_suspicious_rate",
		"dataaudit_baseline_suspicious_rate",
		"dataaudit_drift_delta",
		"dataaudit_drift_page_hinkley",
		"dataaudit_drift_active",
		"dataaudit_reservoir_rows",
		"dataaudit_monitor_state_writes_total",
		// dataaudit_reinductions_total is absent here by design: a vec
		// family with no children exports nothing, and no re-induction
		// outcome has happened yet (the monitor E2E covers that path).
		"dataaudit_reinduction_seconds",
		"dataaudit_http_requests_total",
		"dataaudit_http_request_seconds",
		"dataaudit_registry_cache_hits_total",
		"dataaudit_registry_cache_misses_total",
		"dataaudit_registry_cache_evictions_total",
		"dataaudit_registry_cache_resident",
		"dataaudit_uptime_seconds",
		"dataaudit_build_info",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}

	// The ≥12-distinct-series contract, counted rather than assumed.
	if n := strings.Count(body, "# TYPE "); n < 12 {
		t.Errorf("only %d metric families exported, want >= 12", n)
	}

	// Live values: the 3000-row audit must show up in the model's row
	// counter, the sealed-window counter (one batch folds as one window,
	// however large) and the instrumented route's request counter.
	for _, want := range []string{
		`dataaudit_rows_scored_total{model="engines"} 3000`,
		`dataaudit_monitor_windows_sealed_total{model="engines"} 1`,
		`dataaudit_http_requests_total{route="/v1/models/{name}/audit",method="POST",code="200"} 1`,
		`dataaudit_http_request_seconds_count{route="/v1/models/{name}/audit"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("series %q missing from exposition:\n%s", want, body)
		}
	}

	// Deleting the model must drop its series — a recreated name starts
	// from zero instead of inheriting the dead incarnation's counters.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/engines", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	body, _ = scrape(t, ts.URL)
	if strings.Contains(body, `model="engines"`) {
		t.Fatalf("deleted model's series survive:\n%s", body)
	}
}

// TestMetricsScrapeDeterministic pins the exposition's ordering contract
// end-to-end: two scrapes of an idle server are byte-identical (the
// /metrics route does not instrument itself).
func TestMetricsScrapeDeterministic(t *testing.T) {
	ts, _ := newMetricsServer(t)
	publishEngines(t, ts, 1000)

	a, _ := scrape(t, ts.URL)
	b, _ := scrape(t, ts.URL)
	// The uptime gauge is the one legitimately time-varying series; mask
	// it before comparing.
	re := regexp.MustCompile(`(?m)^dataaudit_uptime_seconds .*$`)
	if got, want := re.ReplaceAllString(a, "UPTIME"), re.ReplaceAllString(b, "UPTIME"); got != want {
		t.Fatalf("two idle scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", got, want)
	}
}

// TestMetricsDifferential proves the instrumentation changes nothing a
// client can see: the same induce + audit + stream conversation against
// a metrics-enabled and a metrics-disabled server produces byte-identical
// response bodies (modulo checkMillis, which is wall-clock timing and
// varies run to run with or without metrics).
func TestMetricsDifferential(t *testing.T) {
	timing := regexp.MustCompile(`"checkMillis":\d+`)
	run := func(enabled bool) (audit, stream string) {
		ts, _ := newMetricsServer(t, WithMetrics(enabled))
		tab := publishEngines(t, ts, 2000)
		dirty, _ := corruptGBM(t, tab, 40)
		var csvBuf bytes.Buffer
		if err := dataset.WriteCSV(&csvBuf, dirty); err != nil {
			t.Fatal(err)
		}

		resp, err := http.Post(ts.URL+"/v1/models/engines/audit", "text/csv", strings.NewReader(csvBuf.String()))
		if err != nil {
			t.Fatal(err)
		}
		ab, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("audit: status %d, err %v", resp.StatusCode, err)
		}

		resp, err = http.Post(ts.URL+"/v1/models/engines/audit/stream?workers=1&chunk=256", "text/csv", strings.NewReader(csvBuf.String()))
		if err != nil {
			t.Fatal(err)
		}
		sb, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("stream: status %d, err %v", resp.StatusCode, err)
		}
		return timing.ReplaceAllString(string(ab), `"checkMillis":0`),
			timing.ReplaceAllString(string(sb), `"checkMillis":0`)
	}

	auditOn, streamOn := run(true)
	auditOff, streamOff := run(false)
	if auditOn != auditOff {
		t.Errorf("audit response differs with metrics enabled:\n--- on ---\n%s\n--- off ---\n%s", auditOn, auditOff)
	}
	if streamOn != streamOff {
		t.Errorf("stream response differs with metrics enabled:\n--- on ---\n%s\n--- off ---\n%s", streamOn, streamOff)
	}
}

// TestMetricsDisabled pins the opt-out: no /metrics route, no metric
// plumbing on the monitor.
func TestMetricsDisabled(t *testing.T) {
	ts, srv := newMetricsServer(t, WithMetrics(false))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with metrics disabled: status %d, want 404", resp.StatusCode)
	}
	if srv.obsReg != nil || srv.metrics != nil || srv.httpMetrics != nil {
		t.Fatal("metric plumbing constructed despite WithMetrics(false)")
	}
}

// TestHealthzBuildInfo covers the upgraded health body: the bare-200
// contract plus version/uptime/model-count fields.
func TestHealthzBuildInfo(t *testing.T) {
	ts, _ := newMetricsServer(t)
	h := decode[HealthzResponse](t, mustGet(t, ts.URL+"/healthz"), http.StatusOK)
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
	if h.Version == "" || h.GoVersion == "" {
		t.Fatalf("build info missing: %+v", h)
	}
	if h.Models != 0 || h.Workers < 1 || h.UptimeSeconds < 0 {
		t.Fatalf("unexpected healthz: %+v", h)
	}
}

// TestDashboard covers the embedded page: served with its data route,
// self-contained (no external URL anywhere in the asset, so it renders
// with the network unplugged), and removable via WithDashboard(false).
func TestDashboard(t *testing.T) {
	ts, _ := newMetricsServer(t)
	publishEngines(t, ts, 1000)

	resp := mustGet(t, ts.URL+"/dashboard")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dashboard: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, external := range []string{"http://", "https://", "//cdn", "@import", "src="} {
		if bytes.Contains(page, []byte(external)) {
			t.Errorf("dashboard asset references an external resource (%q)", external)
		}
	}
	if !bytes.Contains(page, []byte("dashboard/data")) {
		t.Fatal("dashboard does not fetch its data route")
	}

	data := decode[DashboardData](t, mustGet(t, ts.URL+"/dashboard/data"), http.StatusOK)
	if len(data.Models) != 1 || data.Models[0].Meta.Name != "engines" {
		t.Fatalf("dashboard data = %+v", data)
	}

	t.Run("disabled", func(t *testing.T) {
		ts2, _ := newMetricsServer(t, WithDashboard(false))
		resp, err := http.Get(ts2.URL + "/dashboard")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/dashboard with dashboard disabled: status %d, want 404", resp.StatusCode)
		}
	})
}
