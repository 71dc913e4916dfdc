package audit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dataaudit/internal/dataset"
)

// The scoring pipeline: the one driver around CheckChunk. AuditTable,
// AuditTableParallel, AuditStream and AuditChunks are each a feed, a sink
// and a worker count; all goroutine and channel orchestration for scoring
// lives in run.

// unit is one block of rows on its way through the pipeline; units, and
// the chunk buffers that travel with them, are recycled once scored.
type unit struct {
	seq      int   // position in feed order; the fold follows it
	firstRow int64 // table/stream row index of chunk row 0
	rows     int
	ck       *dataset.ColumnChunk
}

// feed produces the units of one audit.
type feed struct {
	schema *dataset.Schema
	units  int // how many next will hand out; math.MaxInt when unknown
	// next describes the next unit in u — whose chunk buffer is the
	// feed's to fill or replace — or returns io.EOF at the clean end of
	// the input. It runs on the goroutine that called run only: sources
	// are single-pass and not concurrency-safe.
	next func(u *unit) error
	// load, when set, runs on the scoring goroutine and fills that
	// goroutine's own chunk with rows [lo, hi) of the unit; feeds that fill
	// the unit's chunk in next leave it nil.
	load func(ck *dataset.ColumnChunk, lo, hi int)
}

// poolSize resolves a worker-count argument.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// run drives every unit of the feed through CheckChunk into a sink and
// returns the quality dimensions of the scored rows. The sink is two
// functions around P, what it keeps of one unit: collect runs on the
// scoring goroutine right after CheckChunk, while reps are still backed
// by that goroutine's scratch (firstRow is the row index of reps[0]);
// fold runs in unit order, one call at a time, and an error from it
// aborts the audit — no later part is folded. A feed error wins over a
// fold error; every goroutine run started has exited when it returns.
//
// With one worker, or a feed of a single unit, everything runs on the
// caller's goroutine and nothing is started. Otherwise the caller feeds
// workers+1 recycled units to the workers, which fold their parts in unit
// order — so workers+1 chunk buffers bound the memory of a long input. A
// panic on a worker (a classifier or a sink that panics) stops the feed
// like a fold error; once the pool has exited, run re-panics on the
// caller's goroutine with the first panic's value and its worker's
// stack, as the inline path would have panicked there.
func run[P any](m *Model, f feed, collect func(firstRow int64, reps []RecordReport) P, fold func(P) error, workers int) ([]AttrDim, error) {
	workers = max(1, min(poolSize(workers), f.units))
	type lane struct { // the private state of one scoring goroutine
		scratch *ChunkScratch
		dims    *DimTracker
		ck      *dataset.ColumnChunk
	}
	lanes := make([]lane, workers)
	for i := range lanes {
		lanes[i] = lane{NewChunkScratch(m), NewDimTracker(f.schema), dataset.NewColumnChunk(f.schema)}
	}
	score := func(u *unit, l lane) P {
		ck := u.ck
		if f.load != nil {
			ck = l.ck
			f.load(ck, int(u.firstRow), int(u.firstRow)+u.rows)
		}
		l.dims.ObserveChunk(ck)
		return collect(u.firstRow, m.CheckChunk(ck, u.firstRow, l.scratch))
	}

	var feedErr, foldErr error
	if workers == 1 {
		u := &unit{ck: dataset.NewColumnChunk(f.schema)}
		for foldErr == nil {
			if feedErr = f.next(u); feedErr != nil {
				break
			}
			foldErr = fold(score(u, lanes[0]))
		}
	} else {
		work := make(chan *unit, workers)
		free := make(chan *unit, workers+1)
		for range workers + 1 {
			free <- &unit{ck: dataset.NewColumnChunk(f.schema)}
		}
		var (
			mu      sync.Mutex // guards pending, folded, folding and foldErr
			pending = make(map[int]P)
			folded  int
			folding bool        // a worker is inside fold, with mu released
			failed  atomic.Bool // foldErr != nil or a worker panicked
			crash   atomic.Pointer[workerPanic]
			wg      sync.WaitGroup
		)
		for _, l := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						crash.CompareAndSwap(nil, &workerPanic{v, debug.Stack()})
						failed.Store(true)
						// Hand back what the caller still feeds, so it
						// cannot wait for good on free when every worker
						// has died.
						for u := range work {
							free <- u
						}
					}
				}()
				for u := range work {
					p, seq := score(u, l), u.seq
					free <- u
					// Whoever holds the next part in sequence folds it, and
					// any that arrive meanwhile; fold may call out
					// (OnSuspicious), so it runs with mu released.
					mu.Lock()
					pending[seq] = p
					for p, ok := pending[folded]; ok && !folding; p, ok = pending[folded] {
						delete(pending, folded)
						folded++
						if foldErr == nil { // else drain without folding
							folding = true
							mu.Unlock()
							err := fold(p)
							mu.Lock()
							folding, foldErr = false, err
							failed.Store(err != nil)
						}
					}
					mu.Unlock()
				}
			}()
		}
		// Neither channel operation can block for good: workers+1 units
		// exist, the workers return every one they take but the one each
		// panicked on, and work has room for all that are not in this
		// goroutine's hands. The pool is closed and waited for even when
		// the feed itself panics, so no worker outlives the call.
		func() {
			defer func() { close(work); wg.Wait() }()
			for seq := 0; !failed.Load(); seq++ {
				u := <-free
				u.seq = seq
				if feedErr = f.next(u); feedErr != nil {
					break
				}
				work <- u
			}
		}()
		if p := crash.Load(); p != nil {
			panic(p)
		}
	}
	if feedErr != nil && feedErr != io.EOF {
		return nil, feedErr
	}
	if foldErr != nil {
		return nil, foldErr
	}
	// The dimension accumulators commute, so the merged lanes equal a
	// single tracker's view no matter which lane scored which unit.
	dims := lanes[0].dims.Dims()
	for _, l := range lanes[1:] {
		MergeDims(dims, l.dims.Dims())
	}
	return dims, nil
}

// workerPanic is a scoring worker's panic, re-raised on run's caller.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v [recovered on a scoring worker]\n\n%s", p.value, p.stack)
}

const (
	// minUnitRows is the smallest unit a table is split into: a hand-off
	// to another goroutine costs more than scoring fewer rows, so a
	// smaller table is one unit and runs inline.
	minUnitRows = 256
	// unitsPerWorker over-partitions a table so that units with expensive
	// rows (deep tree paths, many findings) do not leave a straggler.
	unitsPerWorker = 4
)

// tableFeed hands out row spans of an in-memory table for the given
// worker count; the scoring goroutines transpose their own spans into
// their own buffers, so the chunk fill parallelises with the scoring.
func tableFeed(tab *dataset.Table, workers int) feed {
	n, lo, unitRows := tab.NumRows(), 0, batchChunkRows
	if workers = poolSize(workers); workers > 1 {
		perUnit := (n + workers*unitsPerWorker - 1) / (workers * unitsPerWorker)
		unitRows = min(batchChunkRows, max(minUnitRows, perUnit))
	}
	return feed{
		schema: tab.Schema(),
		units:  (n + unitRows - 1) / unitRows,
		next: func(u *unit) error {
			if lo >= n {
				return io.EOF
			}
			u.firstRow, u.rows = int64(lo), min(unitRows, n-lo)
			lo += u.rows
			return nil
		},
		load: tab.ChunkInto,
	}
}

// sourceFeed decodes a RowSource into units on the caller's goroutine
// through its NextChunk and owns the stream's row accounting: OnRow fires
// for every accepted row in source order before the row's unit is handed
// out; a row beyond MaxRows ends the feed with a RowLimitError before its
// OnRow and without handing out its unit; rows preceding a malformed row
// still get their OnRow before the error.
func sourceFeed(src dataset.RowSource, opts StreamOptions) feed {
	rowBuf := make([]dataset.Value, src.Schema().Len()) // OnRow's row
	var rows int64
	var srcErr error // what the source's last read ended with
	next := func(u *unit) error {
		if srcErr != nil {
			return srcErr
		}
		u.ck.Reset()
		// Pull at most one row past MaxRows, so the limit fires on the
		// first overflowing row exactly as a row-at-a-time read would.
		target := opts.ChunkSize
		if opts.MaxRows > 0 {
			if rem := opts.MaxRows - rows; rem < int64(target) {
				target = int(rem) + 1
			}
		}
		var n int
		n, srcErr = src.NextChunk(u.ck, target)
		overflow := opts.MaxRows > 0 && rows+int64(n) > opts.MaxRows
		if overflow {
			n = int(opts.MaxRows - rows) // the rows still accepted
		}
		if opts.OnRow != nil {
			for i := 0; i < n; i++ {
				opts.OnRow(u.ck.RowInto(i, rowBuf), u.ck.ID(i))
			}
		}
		if overflow {
			return &RowLimitError{Limit: opts.MaxRows}
		}
		if srcErr != nil && (n == 0 || !errors.Is(srcErr, io.EOF)) {
			return srcErr
		}
		u.firstRow, u.rows = rows, n
		rows += int64(n)
		return nil
	}
	return feed{schema: src.Schema(), units: math.MaxInt, next: next}
}

// chunkFeed passes on column chunks that were decoded elsewhere (the
// shard wire stream); read returns io.EOF at the clean end.
func chunkFeed(s *dataset.Schema, read func() (*dataset.ColumnChunk, error)) feed {
	var rows int64
	return feed{schema: s, units: math.MaxInt, next: func(u *unit) (err error) {
		if u.ck, err = read(); err != nil {
			return err
		}
		u.firstRow, u.rows = rows, u.ck.Rows()
		rows += int64(u.rows)
		return nil
	}}
}
