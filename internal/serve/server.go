package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/dedup"
	"dataaudit/internal/monitor"
	"dataaudit/internal/obs"
	"dataaudit/internal/registry"
	"dataaudit/internal/shard"
)

// Server is the auditd HTTP service.
type Server struct {
	reg      *registry.Registry
	mux      *http.ServeMux
	started  time.Time
	logger   *log.Logger
	maxBody  int64
	workers  int
	maxBatch int
	monOpts  monitor.Options
	mon      *monitor.Monitor

	// Observability. obsReg is the Prometheus-exposition registry behind
	// GET /metrics; metrics the scoring/lifecycle set shared with the
	// monitor; httpMetrics the per-route request/latency middleware. All
	// nil when metrics are disabled. dashboardOn gates GET /dashboard.
	metricsOn   bool
	dashboardOn bool
	obsReg      *obs.Registry
	metrics     *obs.AuditMetrics
	httpMetrics *obs.HTTPMetrics

	// Coordinator mode: set via WithCoordinator, built in New once the
	// logger and metric registry exist. Both nil on a plain auditd.
	coordOpts *shard.Options
	coord     *shard.Coordinator
}

// Option customizes New.
type Option func(*Server)

// WithMaxBodyBytes caps request body size (default 64 MiB).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithWorkers sets the default scoring pool size (default runtime.NumCPU).
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithMaxBatchRows caps the number of rows per audit request (default
// 1_000_000). The buffered endpoint rejects larger batches outright; the
// streaming endpoint aborts mid-stream once the limit is crossed.
func WithMaxBatchRows(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithLogger sets the request logger (default log.Default()).
func WithLogger(l *log.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithMonitorOptions configures the quality monitor every audit route
// feeds (window size, drift thresholds, auto re-induction). Monitoring
// itself is always on — it costs one aggregate fold per request — and
// auto re-induction stays opt-in via monitor.Options.AutoReinduce.
func WithMonitorOptions(opts monitor.Options) Option {
	return func(s *Server) { s.monOpts = opts }
}

// WithMetrics enables or disables the Prometheus /metrics endpoint and
// the per-route request instrumentation (default enabled). Disabling it
// removes every metric hook: no registry, no middleware, no monitor
// instrumentation — responses on every other route are byte-identical
// either way.
func WithMetrics(enabled bool) Option {
	return func(s *Server) { s.metricsOn = enabled }
}

// WithDashboard enables or disables the embedded quality dashboard at
// GET /dashboard (default enabled). The dashboard is self-contained —
// one embedded HTML page plus its own JSON data route, no external
// assets — and read-only.
func WithDashboard(enabled bool) Option {
	return func(s *Server) { s.dashboardOn = enabled }
}

// New builds a Server over a registry.
func New(reg *registry.Registry, opts ...Option) *Server {
	s := &Server{
		reg:         reg,
		mux:         http.NewServeMux(),
		started:     time.Now(),
		logger:      log.Default(),
		maxBody:     64 << 20,
		workers:     runtime.NumCPU(),
		maxBatch:    1_000_000,
		metricsOn:   true,
		dashboardOn: true,
	}
	for _, o := range opts {
		o(s)
	}
	if s.monOpts.Logger == nil {
		s.monOpts.Logger = s.logger
	}
	if s.monOpts.StateDir == "" {
		// Monitoring state is crash-durable by default when serving: it
		// persists under the registry root, so quality history, drift
		// state and the re-induction reservoir survive a daemon restart
		// against the same -dir. monitor.StateDisabled opts out.
		s.monOpts.StateDir = reg.StateDir()
	}
	if s.metricsOn {
		s.obsReg = obs.NewRegistry()
		s.metrics = obs.NewAuditMetrics(s.obsReg)
		s.httpMetrics = obs.NewHTTPMetrics(s.obsReg)
		if s.monOpts.Metrics == nil {
			s.monOpts.Metrics = s.metrics
		}
		s.registerProcessMetrics()
	}
	s.mon = monitor.New(reg, s.monOpts)
	if s.coordOpts != nil {
		s.initCoordinator()
	}
	// Every buffered route takes the body byte cap; the streaming audit
	// route alone is registered uncapped — bounded memory regardless of
	// upload size is its reason to exist, and its own guards (row limit,
	// per-record byte cap, chunk/worker buffer bound) replace the cap.
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /v1/models", s.limitedBody(s.handleList))
	s.route("POST /v1/models", s.limitedBody(s.handleInduce))
	s.route("GET /v1/models/{name}", s.limitedBody(s.handleGet))
	s.route("GET /v1/models/{name}/quality", s.limitedBody(s.handleQuality))
	s.route("DELETE /v1/models/{name}", s.limitedBody(s.handleDelete))
	s.route("POST /v1/models/{name}/audit", s.limitedBody(s.handleAudit))
	s.route("POST /v1/models/{name}/audit/stream", s.handleAuditStream)
	// The shard-worker half of the protocol is part of every auditd's
	// surface — any instance can serve shards for a coordinator. The
	// shard route is row-bounded (maxBatch) rather than byte-capped,
	// like the streaming route; the replicate route carries one model
	// and takes the ordinary body cap.
	s.route("POST /v1/models/{name}/audit/shard", s.handleAuditShard)
	s.route("PUT /v1/models/{name}/replicate", s.limitedBody(s.handleReplicate))
	if s.coord != nil {
		s.route("GET /v1/shard/workers", s.limitedBody(s.handleShardWorkers))
	}
	if s.metricsOn {
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.dashboardOn {
		s.route("GET /dashboard", s.handleDashboard)
		s.route("GET /dashboard/data", s.limitedBody(s.handleDashboardData))
	}
	return s
}

// route registers one mux pattern, wrapping the handler with the HTTP
// instrumentation middleware when metrics are enabled. The metric label
// is the pattern's path ("/v1/models/{name}/audit"), never the raw
// request path — raw paths would mint one series per model name.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	if s.httpMetrics != nil {
		path := pattern
		if i := strings.IndexByte(pattern, ' '); i >= 0 {
			path = pattern[i+1:]
		}
		h = s.httpMetrics.Wrap(path, h)
	}
	s.mux.HandleFunc(pattern, h)
}

// registerProcessMetrics adds the process- and registry-level series:
// uptime, build info, and the model cache's hit/miss/eviction counters
// bridged from the registry's own atomics at scrape time (the registry
// package stays free of the obs dependency).
func (s *Server) registerProcessMetrics() {
	s.obsReg.NewGaugeFunc("dataaudit_uptime_seconds",
		"Seconds since the serving process constructed this server.",
		func() float64 { return time.Since(s.started).Seconds() })
	version, goVersion := buildVersion()
	s.obsReg.NewGaugeVec("dataaudit_build_info",
		"Build metadata; the value is always 1.", "version", "goversion").
		With(version, goVersion).Set(1)
	s.obsReg.NewCounterFunc("dataaudit_registry_cache_hits_total",
		"Model cache hits in the registry.",
		func() uint64 { h, _, _, _ := s.reg.CacheStats(); return h })
	s.obsReg.NewCounterFunc("dataaudit_registry_cache_misses_total",
		"Model cache misses (disk loads) in the registry.",
		func() uint64 { _, m, _, _ := s.reg.CacheStats(); return m })
	s.obsReg.NewCounterFunc("dataaudit_registry_cache_evictions_total",
		"Models evicted from the registry's LRU cache.",
		func() uint64 { _, _, e, _ := s.reg.CacheStats(); return e })
	s.obsReg.NewGaugeFunc("dataaudit_registry_cache_resident",
		"Model versions currently resident in the registry cache.",
		func() float64 { _, _, _, n := s.reg.CacheStats(); return float64(n) })
}

// buildVersion resolves the module version (or VCS revision) and the Go
// toolchain version from the binary's embedded build info.
func buildVersion() (version, goVersion string) {
	version, goVersion = "devel", runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, goVersion
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
			version = kv.Value[:12]
		}
	}
	return version, goVersion
}

// Monitor exposes the server's quality monitor (tests and embedders).
func (s *Server) Monitor() *monitor.Monitor { return s.mon }

// Close is the graceful-shutdown hook: it waits for in-flight background
// re-inductions and persists every model's monitoring state so quality
// history survives the restart. Call it after the HTTP server has
// drained (no new audits can arrive).
func (s *Server) Close() error { return s.mon.Close() }

// limitedBody applies the body byte cap to one route.
func (s *Server) limitedBody(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		h(w, r)
	}
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Printf("serve: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxWorkersPerRequest bounds the ?workers= override: generous enough to
// oversubscribe for experiments, small enough that a single request
// cannot exhaust the scheduler.
func (s *Server) maxWorkersPerRequest() int {
	max := 4 * runtime.NumCPU()
	if s.workers > max {
		max = s.workers
	}
	return max
}

// versionParam parses ?version= (0 when absent, meaning latest). An
// explicit ?version=0 is rejected: registry versions start at 1, and
// silently serving latest for it would mask a client bug (e.g. an
// uninitialized version field) with confidently wrong scores.
func versionParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("version")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad version %q (versions start at 1; omit the parameter for latest)", v)
	}
	return n, nil
}

// workersParam parses ?workers=, capping the client-requested pool so
// one request cannot spawn an arbitrary number of goroutines. ok is
// false when the parameter is absent.
func (s *Server) workersParam(r *http.Request) (workers int, ok bool, err error) {
	v := r.URL.Query().Get("workers")
	if v == "" {
		return 0, false, nil
	}
	n, perr := strconv.Atoi(v)
	if perr != nil || n < 1 {
		return 0, false, fmt.Errorf("bad workers %q", v)
	}
	if max := s.maxWorkersPerRequest(); n > max {
		n = max
	}
	return n, true, nil
}

// badRequestStatus distinguishes a body that tripped the MaxBytesReader
// limit (413) from one that is merely malformed (400).
func badRequestStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errStatus maps an internal error onto an HTTP status.
func (s *Server) errStatus(err error) int {
	switch {
	case registry.IsNotFound(err):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	metas, err := s.reg.List()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "registry unavailable: %v", err)
		return
	}
	version, goVersion := buildVersion()
	s.writeJSON(w, http.StatusOK, HealthzResponse{
		Status:        "ok",
		Version:       version,
		GoVersion:     goVersion,
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Models:        len(metas),
		Workers:       s.workers,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	metas, err := s.reg.List()
	if err != nil {
		s.writeError(w, s.errStatus(err), "%v", err)
		return
	}
	if metas == nil {
		metas = []registry.Meta{}
	}
	s.writeJSON(w, http.StatusOK, ListResponse{Models: metas})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Metadata only — never load (or cache-churn) the model itself for a
	// metadata poll.
	meta, err := s.reg.MetaOf(name)
	if err != nil {
		s.writeError(w, s.errStatus(err), "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, ModelResponse{Meta: meta})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		s.writeError(w, s.errStatus(err), "%v", err)
		return
	}
	// Drop the monitoring state with the model: versions restart at 1 on
	// re-creation, so stale state would otherwise survive the version
	// check and poison the new model's baseline and reservoir.
	s.mon.Forget(name)
	w.WriteHeader(http.StatusNoContent)
}

// handleInduce implements POST /v1/models: parse the uploaded schema and
// training rows (CSV or JSONL), induce a structure model and publish it.
func (s *Server) handleInduce(w http.ResponseWriter, r *http.Request) {
	req, err := decodeInduceRequest(r)
	if err != nil {
		s.writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	if !registry.ValidName(req.Name) {
		s.writeError(w, http.StatusBadRequest, "invalid model name %q", req.Name)
		return
	}
	schema, err := dataset.ParseSchema(strings.NewReader(req.Schema))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "schema: %v", err)
		return
	}
	if req.CSV != "" && req.JSONL != "" {
		s.writeError(w, http.StatusBadRequest, "set either csv or jsonl training rows, not both")
		return
	}
	var tab *dataset.Table
	if req.JSONL != "" {
		tab, err = dataset.ReadAll(dataset.NewJSONLSource(strings.NewReader(req.JSONL), schema))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "jsonl: %v", err)
			return
		}
	} else {
		tab, err = dataset.ReadCSV(strings.NewReader(req.CSV), schema)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "csv: %v", err)
			return
		}
	}
	if tab.NumRows() == 0 {
		s.writeError(w, http.StatusBadRequest, "no training rows")
		return
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "options: %v", err)
		return
	}
	model, err := audit.Induce(tab, opts)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "induction: %v", err)
		return
	}
	// Freeze the quality baseline on the training table so the monitor
	// can measure drift against it from the model's first audit on.
	profile := model.QualityProfile(tab, s.workers)
	meta, err := s.reg.PublishWithQuality(req.Name, model, profile)
	if err != nil {
		s.writeError(w, s.errStatus(err), "%v", err)
		return
	}
	s.logger.Printf("serve: published %s v%d (%d rows, %s)", meta.Name, meta.Version, meta.TrainRows, meta.Inducer)
	s.writeJSON(w, http.StatusCreated, ModelResponse{Meta: meta})
}

// decodeInduceRequest accepts either a JSON body or a multipart form with
// fields/parts name, schema, csv, jsonl and options (options itself JSON).
func decodeInduceRequest(r *http.Request) (*InduceRequest, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "multipart/form-data" {
		if err := r.ParseMultipartForm(32 << 20); err != nil {
			return nil, fmt.Errorf("multipart: %w", err)
		}
		req := &InduceRequest{
			Name:   r.FormValue("name"),
			Schema: r.FormValue("schema"),
			CSV:    r.FormValue("csv"),
			JSONL:  r.FormValue("jsonl"),
		}
		if f, _, err := r.FormFile("schema"); err == nil {
			b, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			req.Schema = string(b)
		}
		if f, _, err := r.FormFile("csv"); err == nil {
			b, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			req.CSV = string(b)
		}
		if f, _, err := r.FormFile("jsonl"); err == nil {
			b, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			req.JSONL = string(b)
		}
		if o := r.FormValue("options"); o != "" {
			if err := json.Unmarshal([]byte(o), &req.Options); err != nil {
				return nil, fmt.Errorf("options: %w", err)
			}
		}
		return req, nil
	}
	var req InduceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	return &req, nil
}

// handleAudit implements POST /v1/models/{name}/audit: score a batch (or a
// single row) against a published model and return the ranked findings.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
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

	tab, err := s.decodeAuditBatch(r, model.Schema)
	if err != nil {
		s.writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	if tab.NumRows() == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if tab.NumRows() > s.maxBatch {
		s.writeError(w, http.StatusRequestEntityTooLarge, "batch of %d rows exceeds limit %d", tab.NumRows(), s.maxBatch)
		return
	}

	workers := s.workers
	if n, ok, err := s.workersParam(r); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	} else if ok {
		workers = n
	}

	// Coordinator mode fans the batch out across the worker set and
	// merges — the merged result is byte-identical to the local path, so
	// everything below (monitor fold, ranking, rendering) is shared.
	// ?local=1 scores in-process even on a coordinator. It stays as the
	// reference: the sharded differential tests (shard_test.go,
	// scripts/e2e_shard.sh) diff the two responses.
	var res *audit.Result
	sharded := s.coord != nil && r.URL.Query().Get("local") != "1"
	if sharded {
		res, err = s.coord.AuditTable(r.Context(), model, meta, tab)
		if err != nil {
			s.writeError(w, http.StatusBadGateway, "sharded audit: %v", err)
			return
		}
	} else {
		res = model.AuditTableParallel(tab, workers)
	}
	s.mon.ObserveBatch(meta, model, tab, res)

	resp := AuditResponse{
		Model:         meta.Name,
		Version:       meta.Version,
		RowsChecked:   tab.NumRows(),
		NumSuspicious: res.NumSuspicious(),
		CheckMillis:   res.CheckTime.Milliseconds(),
		Workers:       workers,
		Reports:       []ReportJSON{},
		AttrDims:      attrDimsJSON(model.Schema, res.Dims),
	}
	if sharded {
		resp.Sharded = true
		resp.ShardWorkers = len(s.coord.Workers())
	}
	if r.URL.Query().Get("dedup") == "1" {
		// The duplicate scan is a second pass over the buffered table —
		// cheap next to scoring (hash + blocked pairwise compare) and
		// strictly opt-in, so the default audit path stays untouched.
		dres, err := dedup.Detect(tab, dedup.Options{})
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "dedup: %v", err)
			return
		}
		resp.Duplicates = duplicatesJSON(model.Schema, dres)
	}
	rr := newReportRenderer(model)
	if r.URL.Query().Get("all") == "1" {
		for i := range res.Reports {
			resp.Reports = append(resp.Reports, rr.reportJSON(&res.Reports[i]))
		}
	} else {
		for _, rep := range res.Suspicious() {
			resp.Reports = append(resp.Reports, rr.reportJSON(&rep))
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// isCSVType / isJSONLType classify the batch content types both audit
// routes accept beyond the default JSON body.
func isCSVType(ct string) bool { return ct == "text/csv" || ct == "application/csv" }

func isJSONLType(ct string) bool {
	return ct == "application/x-ndjson" || ct == "application/jsonl" || ct == "application/x-jsonlines"
}

// decodeAuditBatch reads the records to score: a CSV body (with header)
// or a JSONL body (one object per line, fields keyed by attribute name)
// when the content type says so, otherwise a JSON AuditRequest.
func (s *Server) decodeAuditBatch(r *http.Request, schema *dataset.Schema) (*dataset.Table, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if isCSVType(ct) {
		tab, err := dataset.ReadCSV(r.Body, schema)
		if err != nil {
			return nil, fmt.Errorf("csv: %w", err)
		}
		return tab, nil
	}
	if isJSONLType(ct) {
		tab, err := dataset.ReadAll(dataset.NewJSONLSource(r.Body, schema))
		if err != nil {
			return nil, fmt.Errorf("jsonl: %w", err)
		}
		return tab, nil
	}
	var req AuditRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	rows := req.Rows
	if len(req.Row) > 0 {
		if len(rows) > 0 {
			return nil, fmt.Errorf("set either row or rows, not both")
		}
		rows = [][]string{req.Row}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no rows in request")
	}
	return parseRows(schema, rows)
}
