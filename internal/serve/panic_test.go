package serve

import (
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/c45"
)

// TestScoringPanicDropsOnlyItsRequest publishes a c45 model whose tree
// tests an attribute the schema does not have — the model decodes, and
// scoring it panics — and sends a multi-chunk /audit on a worker pool.
// The panic reaches the request goroutine, where net/http drops the
// connection and logs it; the process keeps serving.
func TestScoringPanicDropsOnlyItsRequest(t *testing.T) {
	_, csvText, tab := engineFixture(t, 6000)
	m, err := audit.Induce(tab, audit.Options{MinConfidence: 0.8, Inducer: audit.InducerC45})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, am := range m.Attrs {
		if tree := am.Classifier.(*c45.Tree); tree.Root.Attr >= 0 {
			tree.Root.Attr = 999
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no tree with a split to corrupt")
	}
	reg := openRegistry(t)
	if _, err := reg.Publish("engines", m); err != nil {
		t.Fatal(err)
	}

	srv := New(reg)
	var errLog lockedBuffer
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	}()

	// 6 000 rows on four workers are 16 units of 375 rows each.
	resp, err := http.Post(ts.URL+"/v1/models/engines/audit?workers=4", "text/csv", strings.NewReader(csvText))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("the audit answered %d, want a dropped connection", resp.StatusCode)
	}
	health := mustGet(t, ts.URL+"/healthz")
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d after the panic, want 200", health.StatusCode)
	}
	if logged := errLog.String(); !strings.Contains(logged, "panic serving") || !strings.Contains(logged, "index out of range [999]") {
		t.Errorf("net/http did not log the scoring panic:\n%s", logged)
	}
}
