// Command auditd serves the data auditing tool over HTTP — the §2.2
// asynchronous deployment as a long-running service: models are induced
// from uploaded training data, published in a disk-backed registry with
// monotonic versions, and applied to incoming batches by a parallel
// scoring pool.
//
//	auditd -addr :8080 -dir ./auditd-data
//
//	# publish a model from a schema + training CSV
//	curl -F name=engines -F schema=@engine.schema -F csv=@history.csv \
//	     -F 'options={"minConfidence":0.8}' localhost:8080/v1/models
//
//	# list models
//	curl localhost:8080/v1/models
//
//	# audit a dirty batch (CSV with header) with 4 workers
//	curl -H 'Content-Type: text/csv' --data-binary @tonight.csv \
//	     'localhost:8080/v1/models/engines/audit?workers=4'
//
//	# stream a warehouse-scale batch: findings come back as NDJSON while
//	# the upload is still in flight, server memory stays bounded
//	curl -NT warehouse.csv -H 'Content-Type: text/csv' \
//	     'localhost:8080/v1/models/engines/audit/stream?workers=4&top=100'
//
//	# audit a single record as JSON
//	curl -H 'Content-Type: application/json' \
//	     -d '{"row":["404","911","01","M111","STU","W202","2151","1999-04-07"]}' \
//	     localhost:8080/v1/models/engines/audit
//
//	# continuous monitoring: every audit feeds windowed quality snapshots
//	# and drift detection against the model's induction-time baseline
//	curl localhost:8080/v1/models/engines/quality
//
//	# close the loop: on drift, re-induce from recently audited rows in a
//	# background worker (audits keep being served) and publish the next
//	# model version automatically
//	auditd -dir ./auditd-data -auto-reinduce -monitor-window 2048
//
// Scale-out: every auditd is a capable shard worker (it always serves the
// shard-scoring and model-replication routes). An auditd becomes a
// coordinator when handed a worker list — buffered audits are then split
// into shards, scored across the worker processes and merged, with model
// versions replicated to workers on demand:
//
//	# two plain workers + one coordinator
//	auditd -addr :8081 -dir ./w1 &
//	auditd -addr :8082 -dir ./w2 &
//	auditd -addr :8080 -dir ./auditd-data \
//	       -coordinator http://localhost:8081,http://localhost:8082
//
//	# batches now fan out; ?local=1 forces in-process scoring
//	curl -H 'Content-Type: text/csv' --data-binary @tonight.csv \
//	     localhost:8080/v1/models/engines/audit
//
// Tune the fan-out with -shards (shards ship in 4096-row wire chunks and
// each is re-dispatched up to twice after a failure);
// GET /v1/shard/workers reports the active configuration.
//
// Monitoring state — quality snapshots, lifecycle events, drift-detector
// state and the re-induction reservoir — is crash-durable: it persists
// atomically under -monitor-state (default <dir>/.state) after sealed
// windows, at most once a second per model (a crash loses at most the
// last second's windows), and on graceful shutdown, which loses nothing;
// it is reloaded at the next boot, so GET /v1/models/{name}/quality
// history survives restarts.
//
// Observability (both on by default):
//
//	# Prometheus text exposition: rows scored, suspicious rates,
//	# per-attribute deviations, drift detectors, re-induction outcomes,
//	# registry cache and per-route request/latency series
//	curl localhost:8080/metrics
//
//	# embedded quality dashboard: p-chart and I-MR control charts over
//	# the monitoring windows, drift annotations, lifecycle log
//	open localhost:8080/dashboard
//
// Disable with -metrics=false / -dashboard=false.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/monitor"
	"dataaudit/internal/registry"
	"dataaudit/internal/serve"
	"dataaudit/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dir      = flag.String("dir", "./auditd-data", "registry directory (created if missing)")
		workers  = flag.Int("workers", 0, "default scoring pool size (0 = NumCPU)")
		cache    = flag.Int("cache", 8, "number of models kept resident")
		maxBody  = flag.Int64("max-body-mb", 64, "request body limit in MiB (buffered endpoints; the streaming endpoint is bounded by -max-batch-rows instead)")
		maxRows  = flag.Int("max-batch-rows", 1_000_000, "row limit per audit request")
		drainFor = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")

		coordinator = flag.String("coordinator", "", "comma-separated worker base URLs; non-empty enables coordinator mode (buffered audits are sharded across these auditd processes)")
		shards      = flag.Int("shards", 0, "shards per audit in coordinator mode (0 = one per worker)")

		metrics   = flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics and instrument every route with request/latency series")
		dashboard = flag.Bool("dashboard", true, "serve the embedded quality dashboard (control charts over monitoring windows) at GET /dashboard")

		monWindow  = flag.Int64("monitor-window", 1024, "quality-monitoring window size in audited rows")
		driftDelta = flag.Float64("drift-delta", 0.10, "drift threshold: window suspicious-rate excess over the model's baseline")
		nullDelta  = flag.Float64("null-delta", 0.05, "completeness-drift threshold: per-attribute window null-rate excess over the baseline null rate (reported, never re-induced)")
		phLambda   = flag.Float64("drift-ph-lambda", 0.25, "Page-Hinkley alarm threshold over the window suspicious-rate series")
		reinduce   = flag.Bool("auto-reinduce", false, "on drift, re-induce the model from a reservoir of recently audited rows and publish the next version (runs in a background worker; audits are never blocked)")
		reservoir  = flag.Int("reservoir-rows", 4096, "row capacity of the re-induction reservoir sample")
		reMode     = flag.String("reinduce-mode", "incremental", "how a partial re-induction rebuilds a drifted attribute: incremental (update the previous classifier over frozen discretization) or full (re-derive that attribute from scratch)")
		monState   = flag.String("monitor-state", "", "directory for crash-durable monitoring state (snapshots, events, drift state, reservoir); empty = <dir>/.state under the registry, \"disabled\" = keep monitoring state in memory only")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "auditd ", log.LstdFlags)

	switch audit.ReinduceMode(*reMode) {
	case audit.ReinduceIncremental, audit.ReinduceFull:
	default:
		logger.Fatalf("-reinduce-mode %q: want incremental or full", *reMode)
	}
	// The libraries read zero or negative as "use the default"; on the
	// command line such a value is a typo, so refuse to boot on it.
	if *workers < 0 {
		logger.Fatalf("-workers %d: want 0 (NumCPU) or more", *workers)
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"cache", float64(*cache)},
		{"max-body-mb", float64(*maxBody)},
		{"max-batch-rows", float64(*maxRows)},
		{"monitor-window", float64(*monWindow)},
		{"reservoir-rows", float64(*reservoir)},
		{"drift-delta", *driftDelta},
		{"null-delta", *nullDelta},
		{"drift-ph-lambda", *phLambda},
	} {
		if !(f.val > 0) { // NaN too
			logger.Fatalf("-%s %v: want a positive value", f.name, f.val)
		}
	}

	reg, err := registry.Open(*dir, registry.WithCacheSize(*cache))
	if err != nil {
		logger.Fatal(err)
	}

	var opts []serve.Option
	opts = append(opts,
		serve.WithLogger(logger),
		serve.WithMaxBodyBytes(*maxBody<<20),
		serve.WithMaxBatchRows(*maxRows),
		serve.WithMetrics(*metrics),
		serve.WithDashboard(*dashboard),
		serve.WithMonitorOptions(monitor.Options{
			WindowRows:    *monWindow,
			DriftDelta:    *driftDelta,
			NullDelta:     *nullDelta,
			PHLambda:      *phLambda,
			AutoReinduce:  *reinduce,
			ReservoirRows: *reservoir,
			ReinduceMode:  *reMode,
			StateDir:      *monState,
			Logger:        logger,
		}),
	)
	if *workers > 0 {
		opts = append(opts, serve.WithWorkers(*workers))
	}
	if *coordinator != "" {
		shardOpts := shard.Options{
			Workers: strings.Split(*coordinator, ","),
			Shards:  *shards,
		}
		// Validate up front: serve.New has no error path, so a bad worker
		// set should kill the boot here, not silently disable coordination.
		if _, err := shard.New(shardOpts); err != nil {
			logger.Fatalf("-coordinator: %v", err)
		}
		opts = append(opts, serve.WithCoordinator(shardOpts))
	}
	srv := serve.New(reg, opts...)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (registry %s)", *addr, *dir)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Printf("shutting down, draining for up to %s", *drainFor)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("forced shutdown: %v", err)
		}
		// With the HTTP server drained, let in-flight re-inductions land
		// and persist the final monitoring state so quality history
		// survives the restart.
		if err := srv.Close(); err != nil {
			logger.Printf("persisting monitoring state: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "auditd: stopped")
}
