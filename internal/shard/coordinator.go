package shard

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/obs"
	"dataaudit/internal/registry"
)

// maxConsecFails is how many dispatches in a row one worker may fail
// before the coordinator stops routing to it for the rest of the audit.
const maxConsecFails = 3

// Options configure a Coordinator.
type Options struct {
	// Workers are the worker auditd base URLs ("http://host:port").
	// Required, at least one.
	Workers []string
	// Shards is the number of shards per audit (default: #workers).
	// More shards than workers gives finer-grained reassignment when a
	// worker dies mid-audit.
	Shards int
	// ChunkRows is the wire chunk size (default 4096, capped at 65536).
	ChunkRows int
	// Retries is the per-shard re-dispatch budget after the first
	// attempt (default 2).
	Retries int
	// Backoff is the base failure backoff a worker's dispatch loop
	// sleeps after an error, doubling per consecutive failure
	// (default 100ms).
	Backoff time.Duration
	// HTTPClient overrides the transport (default: a client with no
	// overall timeout — shard audits are long-running streams; cancel
	// via the request context instead).
	HTTPClient *http.Client
	// Logger receives dispatch/retry/death events (default: discard).
	Logger *log.Logger
	// Metrics, when set, receives per-worker shard series.
	Metrics *obs.ShardMetrics
}

// Coordinator fans a batch audit out over worker auditd processes and
// merges the shard results into one Result byte-identical to a local
// audit. Safe for concurrent use; each Audit call dispatches
// independently.
type Coordinator struct {
	opts    Options
	workers []*workerClient
}

// New validates the options and builds a Coordinator.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("shard: no workers configured")
	}
	// Normalize into a private copy — never the caller's backing array,
	// which it may share with other coordinators.
	workers := make([]string, len(opts.Workers))
	for i, w := range opts.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("shard: worker %q: want an http(s) base URL", opts.Workers[i])
		}
		workers[i] = w
	}
	opts.Workers = workers
	if opts.Shards == 0 {
		opts.Shards = len(opts.Workers)
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", opts.Shards)
	}
	if opts.ChunkRows <= 0 {
		opts.ChunkRows = 4096
	}
	if opts.ChunkRows > 65536 {
		opts.ChunkRows = 65536
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("shard: invalid retry budget %d", opts.Retries)
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.Logger == nil {
		opts.Logger = log.New(discard{}, "", 0)
	}
	c := &Coordinator{opts: opts}
	for _, w := range opts.Workers {
		c.workers = append(c.workers, &workerClient{base: w, hc: opts.HTTPClient})
	}
	return c, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Workers returns the configured worker base URLs.
func (c *Coordinator) Workers() []string { return c.opts.Workers }

// Shards returns the configured shard count.
func (c *Coordinator) Shards() int { return c.opts.Shards }

// AuditTable audits the table across the workers and returns a Result
// identical (modulo CheckTime) to model.AuditTable(tab) run locally:
// same reports in the same row order, same Suspicious ranking, same
// tallies when folded. meta must be the coordinator registry's committed
// metadata for model — its (Version, SchemaHash, CreatedAt) identity is
// what workers are synced to and what shard requests pin.
func (c *Coordinator) AuditTable(ctx context.Context, model *audit.Model, meta registry.Meta, tab *dataset.Table) (*audit.Result, error) {
	start := time.Now()
	width := model.Schema.Len()
	if tab.NumCols() != width {
		return nil, &dataset.RowWidthError{Got: tab.NumCols(), Want: width}
	}
	shards, err := Split(tab, StrategyRange, c.opts.Shards)
	if err != nil {
		return nil, err
	}

	var jobs []*shardJob
	for id, rows := range shards {
		if len(rows) > 0 {
			jobs = append(jobs, &shardJob{id: id, lo: rows[0], hi: rows[len(rows)-1] + 1})
		}
	}
	// Every shard decodes straight into its row range of the merged
	// report list, so reports land in original row order with no copy.
	merged := &audit.Result{NumAttrs: width, Reports: make([]audit.RecordReport, tab.NumRows())}
	dims := make([][]audit.AttrDim, len(shards))
	if err := c.dispatch(ctx, model, meta, tab, jobs, merged.Reports, dims); err != nil {
		return nil, err
	}
	for _, d := range dims {
		if merged.Dims == nil {
			merged.Dims = d
		} else if d != nil {
			audit.MergeDims(merged.Dims, d)
		}
	}
	merged.CheckTime = time.Since(start)
	return merged, nil
}

// shardJob is one dispatchable shard.
type shardJob struct {
	id       int
	lo, hi   int // the shard's table rows [lo, hi)
	attempts int
}

// outcome is one finished dispatch attempt (or a worker bowing out).
type outcome struct {
	job    *shardJob
	dims   []audit.AttrDim
	err    error
	worker int
	dead   bool // the sending worker's loop exits after this outcome
}

// dispatch drives the shard queue to completion: one goroutine per worker
// pulls jobs, a failed attempt requeues its shard (bounded by the retry
// budget), and a worker that fails maxConsecFails times in a row is
// abandoned — its outstanding shard moves to the survivors. All workers
// dead with shards outstanding is the only unrecoverable state. Each
// shard's reports land in its range of reports and its dimensions in
// dims[shard id]; an attempt runs only after the previous attempt of its
// shard has finished, so no two attempts write one range at once.
func (c *Coordinator) dispatch(ctx context.Context, model *audit.Model, meta registry.Meta, tab *dataset.Table, pending []*shardJob, reports []audit.RecordReport, dims [][]audit.AttrDim) error {
	total := len(pending)
	if total == 0 {
		return nil
	}
	// Attempts still in flight when dispatch gives up are cancelled, so a
	// failed audit leaves no request decoding into the discarded reports.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobCh := make(chan *shardJob)
	outCh := make(chan outcome)
	quit := make(chan struct{})
	defer close(quit)

	for i := range c.workers {
		go c.workerLoop(ctx, i, quit, jobCh, outCh, model, meta, tab, reports)
	}
	defer close(jobCh)

	done, inflight, alive := 0, 0, len(c.workers)
	for done < total {
		var sendCh chan *shardJob
		var next *shardJob
		if len(pending) > 0 && alive > 0 {
			sendCh, next = jobCh, pending[len(pending)-1]
		}
		if alive == 0 && inflight == 0 {
			return fmt.Errorf("shard: all %d workers failed with %d of %d shards unfinished", len(c.workers), total-done, total)
		}
		select {
		case sendCh <- next:
			pending = pending[:len(pending)-1]
			inflight++
		case o := <-outCh:
			inflight--
			if o.dead {
				alive--
				c.opts.Logger.Printf("shard: abandoning worker %s after %d consecutive failures", c.opts.Workers[o.worker], maxConsecFails)
				if m := c.opts.Metrics; m != nil {
					m.WorkerDeaths.With(c.opts.Workers[o.worker]).Inc()
				}
			}
			if o.err != nil {
				o.job.attempts++
				if o.job.attempts > c.opts.Retries {
					return fmt.Errorf("shard %d (%d rows): giving up after %d attempts: %w", o.job.id, o.job.hi-o.job.lo, o.job.attempts, o.err)
				}
				c.opts.Logger.Printf("shard: shard %d attempt %d on %s failed, requeueing: %v", o.job.id, o.job.attempts, c.opts.Workers[o.worker], o.err)
				if m := c.opts.Metrics; m != nil {
					m.Retries.Inc()
				}
				pending = append(pending, o.job)
			} else {
				dims[o.job.id] = o.dims
				done++
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// workerLoop is one worker's dispatch loop: sync the model lazily before
// the first shard (and again after a 409), score shards until the job
// channel closes, back off after failures, and exit for good after
// maxConsecFails consecutive errors.
func (c *Coordinator) workerLoop(ctx context.Context, idx int, quit <-chan struct{}, jobCh <-chan *shardJob, outCh chan<- outcome, model *audit.Model, meta registry.Meta, tab *dataset.Table, reports []audit.RecordReport) {
	w := c.workers[idx]
	name := c.opts.Workers[idx]
	synced := false
	consec := 0
	for {
		var job *shardJob
		select {
		case j, ok := <-jobCh:
			if !ok {
				return
			}
			job = j
		case <-quit:
			return
		}

		start := time.Now()
		dims, err := c.runShard(ctx, w, &synced, name, model, meta, tab, job, reports)
		if m := c.opts.Metrics; m != nil {
			m.DispatchSeconds.With(name).Observe(time.Since(start).Seconds())
			if err != nil {
				m.Dispatches.With(name, "error").Inc()
			} else {
				m.Dispatches.With(name, "ok").Inc()
				m.RowsShipped.With(name).Add(uint64(job.hi - job.lo))
			}
		}
		if err != nil {
			consec++
		} else {
			consec = 0
		}
		dead := consec >= maxConsecFails
		select {
		case outCh <- outcome{job: job, dims: dims, err: err, worker: idx, dead: dead}:
		case <-quit:
			return
		}
		if dead {
			return
		}
		if err != nil {
			// Exponential backoff inside this worker's loop only: the
			// scheduler keeps feeding healthy workers meanwhile.
			backoff := c.opts.Backoff << (consec - 1)
			select {
			case <-time.After(backoff):
			case <-quit:
				return
			case <-ctx.Done():
				return
			}
		}
	}
}

// runShard executes one dispatch attempt: ensure the worker holds the
// pinned model version, stream the shard, decode the validated result
// into the job's range of reports and return its dimensions. A
// 409 (the worker's model moved between sync and scoring) flips the sync
// flag so the next attempt replicates first.
func (c *Coordinator) runShard(ctx context.Context, w *workerClient, synced *bool, name string, model *audit.Model, meta registry.Meta, tab *dataset.Table, job *shardJob, reports []audit.RecordReport) ([]audit.AttrDim, error) {
	if !*synced {
		pushed, err := w.ensureModel(ctx, meta, model)
		if err != nil {
			return nil, err
		}
		if pushed {
			c.opts.Logger.Printf("shard: replicated %s v%d to %s", meta.Name, meta.Version, name)
			if m := c.opts.Metrics; m != nil {
				m.Replications.With(name).Inc()
			}
		}
		*synced = true
	}
	dims, err := w.auditShard(ctx, meta, tab, job.lo, job.hi, c.opts.ChunkRows, reports)
	if isVersionConflict(err) {
		*synced = false
	}
	return dims, err
}
