package audit

import (
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
// the buffers that travel with them, are recycled once scored, or once
// folded when the feed's accept reads them.
type unit struct {
	seq      int   // position in feed order; the fold follows it
	firstRow int64 // table/stream row index of chunk row 0
	rows     int
	ck       *dataset.ColumnChunk
	blk      *dataset.CSVBlock // the records load decodes into ck, for a cut feed
	err      error             // what ended the unit's rows, for accept to report
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
	// load, when set, runs on the scoring goroutine before the unit is
	// scored and fills ck with the unit's rows, so that filling
	// parallelises with scoring. ck is u.ck when the feed's accept reads
	// the unit, else the scoring goroutine's own chunk.
	load func(u *unit, ck *dataset.ColumnChunk)
	// accept, when set, runs in unit order, one call at a time, before the
	// unit's part is folded; an error from it ends the audit as a fold
	// error does. The unit, u.ck included, is intact until accept returns.
	accept func(u *unit) error
	// release, when set, runs once run has no goroutine left, however it
	// returns: nothing touches the units any more.
	release func()
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
// fold runs in unit order, one call at a time, after the feed's accept,
// and an error from either aborts the audit: no later unit is folded. So
// the first such error in input order wins, and a feed error wins over
// it. Every goroutine run started has exited when it returns.
//
// With one worker, or a feed of a single unit, everything runs on the
// caller's goroutine and nothing is started. Otherwise the caller feeds
// workers+1 recycled units to the workers, which fold their parts in unit
// order — so workers+1 units bound the memory of a long input. A unit
// goes back to the caller once scored, or, when the feed has an accept,
// once folded. A panic on a worker (a classifier or a sink that panics)
// stops the feed like a fold error; once the pool has exited, run
// re-panics on the caller's goroutine with the first panic's value and
// its worker's stack, as the inline path would have panicked there.
func run[P any](m *Model, f feed, collect func(firstRow int64, reps []RecordReport) P, fold func(P) error, workers int) ([]AttrDim, error) {
	if f.release != nil {
		defer f.release()
	}
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
			if f.accept == nil {
				ck = l.ck
			}
			f.load(u, ck)
		}
		l.dims.ObserveChunk(ck)
		return collect(u.firstRow, m.CheckChunk(ck, u.firstRow, l.scratch))
	}
	settle := func(u *unit, p P) error {
		if f.accept != nil {
			if err := f.accept(u); err != nil {
				return err
			}
		}
		return fold(p)
	}

	var feedErr, foldErr error
	if workers == 1 {
		u := &unit{ck: dataset.NewColumnChunk(f.schema)}
		for foldErr == nil {
			if feedErr = f.next(u); feedErr != nil {
				break
			}
			foldErr = settle(u, score(u, lanes[0]))
		}
	} else {
		// free has room for every unit, so returning one never blocks;
		// work has room for every unit but the one the caller is filling.
		work := make(chan *unit, workers)
		free := make(chan *unit, workers+1)
		for range workers + 1 {
			free <- &unit{ck: dataset.NewColumnChunk(f.schema)}
		}
		type scored struct {
			u *unit
			p P
		}
		var (
			mu       sync.Mutex // guards pending, folded, folding and foldErr
			pending  = make(map[int]scored)
			folded   int
			folding  bool                  // a worker is inside settle, with mu released
			stop     = make(chan struct{}) // closed once the audit has failed
			stopOnce sync.Once
			crashes  workerPanics
			wg       sync.WaitGroup
		)
		halt := func() { stopOnce.Do(func() { close(stop) }) }
		halted := func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		for _, l := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer crashes.catch(halt)
				for u := range work {
					if halted() { // drain what the caller still hands out
						continue
					}
					seq, p := u.seq, score(u, l)
					if f.accept == nil { // nothing reads the unit any more
						free <- u
						u = nil
					}
					// Whoever holds the next unit in sequence folds it, and
					// any that arrive meanwhile; settle may call out (OnRow,
					// OnSuspicious), so it runs with mu released.
					mu.Lock()
					pending[seq] = scored{u, p}
					for s, ok := pending[folded]; ok && !folding && !halted(); s, ok = pending[folded] {
						delete(pending, folded)
						folded++
						folding = true
						mu.Unlock()
						err := settle(s.u, s.p)
						if s.u != nil {
							free <- s.u
						}
						mu.Lock()
						folding = false
						if err != nil {
							foldErr = err
							halt()
						}
					}
					mu.Unlock()
				}
			}()
		}
		// The feed waits on free and work only until the audit fails: a
		// panicked worker takes its unit with it, and a failed fold leaves
		// later units unfolded. The pool is closed and waited for even
		// when the feed itself panics, so no worker outlives the call.
		func() {
			defer func() { close(work); wg.Wait() }()
			for seq := 0; !halted(); seq++ {
				var u *unit
				select {
				case u = <-free:
				case <-stop:
					return
				}
				u.seq = seq
				if feedErr = f.next(u); feedErr != nil {
					return
				}
				select {
				case work <- u:
				case <-stop:
					return
				}
			}
		}()
		crashes.rethrow()
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

// workerPanic is a worker goroutine's panic — a scoring worker's in run,
// an induction worker's in forEachAttr — re-raised on the caller.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v [recovered on a worker goroutine]\n\n%s", p.value, p.stack)
}

// workerPanics keeps the first of a worker pool's panics: each worker
// defers catch, which keeps its panic with the worker's stack and calls
// stop, and once every worker has exited the caller calls rethrow.
type workerPanics struct{ first atomic.Pointer[workerPanic] }

func (w *workerPanics) catch(stop func()) {
	if v := recover(); v != nil {
		w.first.CompareAndSwap(nil, &workerPanic{v, debug.Stack()})
		stop()
	}
}

func (w *workerPanics) rethrow() {
	if p := w.first.Load(); p != nil {
		panic(p)
	}
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
		load: func(u *unit, ck *dataset.ColumnChunk) {
			tab.ChunkInto(ck, int(u.firstRow), int(u.firstRow)+u.rows)
		},
	}
}

// sourceFeed reads a RowSource into units and owns the stream's row
// accounting. A CSVSource is only cut on the caller's goroutine, and each
// unit's block is decoded on the scoring goroutine that scores it; any
// other source decodes through NextChunk on the caller's goroutine. A
// unit carries the error its rows ended in, and accept reports it when
// the unit's turn to fold comes, so the first error in input order wins.
// In that fold order, OnRow fires for every accepted row, before the
// unit's part is folded; a row beyond MaxRows ends the audit with a
// RowLimitError before its OnRow; rows preceding a malformed row still
// get their OnRow before the error.
func sourceFeed(src dataset.RowSource, opts StreamOptions) feed {
	var fed int64 // rows cut or decoded so far
	// target is how many rows the next unit pulls: at most one past
	// MaxRows, so the limit fires on the first overflowing row exactly as a
	// row-at-a-time read would.
	target := func() int {
		if opts.MaxRows > 0 {
			return int(min(int64(opts.ChunkSize), opts.MaxRows-fed+1))
		}
		return opts.ChunkSize
	}
	f := feed{schema: src.Schema(), units: math.MaxInt}
	if csv, ok := src.(*dataset.CSVSource); ok {
		var blocks []*dataset.CSVBlock
		f.next = func(u *unit) error {
			if opts.MaxRows > 0 && fed > opts.MaxRows {
				return io.EOF
			}
			if u.blk == nil {
				u.blk = csvBlocks.Get().(*dataset.CSVBlock)
				blocks = append(blocks, u.blk)
			}
			n, err := csv.Cut(u.blk, target())
			if err != nil {
				return err
			}
			u.firstRow = fed
			fed += int64(n)
			return nil
		}
		f.load = func(u *unit, ck *dataset.ColumnChunk) {
			ck.Reset()
			u.rows, u.err = u.blk.Decode(ck)
		}
		f.release = func() {
			for _, b := range blocks {
				csvBlocks.Put(b)
			}
		}
	} else {
		var ended bool // the source has ended in an error
		f.next = func(u *unit) error {
			if ended || opts.MaxRows > 0 && fed > opts.MaxRows {
				return io.EOF
			}
			u.ck.Reset()
			n, err := src.NextChunk(u.ck, target())
			if err == io.EOF {
				if n == 0 {
					return io.EOF
				}
				err = nil
			}
			u.firstRow, u.rows, u.err = fed, n, err
			fed += int64(n)
			ended = err != nil
			return nil
		}
	}
	rowBuf := make([]dataset.Value, src.Schema().Len()) // OnRow's row
	var accepted int64
	f.accept = func(u *unit) error {
		n := u.rows
		overflow := opts.MaxRows > 0 && accepted+int64(n) > opts.MaxRows
		if overflow {
			n = int(opts.MaxRows - accepted) // the rows still accepted
		}
		if opts.OnRow != nil {
			for i := 0; i < n; i++ {
				opts.OnRow(u.ck.RowInto(i, rowBuf), u.ck.ID(i))
			}
		}
		accepted += int64(n)
		if overflow {
			return &RowLimitError{Limit: opts.MaxRows}
		}
		return u.err
	}
	return f
}

// csvBlocks keeps the blocks of finished CSV audits, so a stream's units
// take buffers already grown to a block's size instead of growing their
// own.
var csvBlocks = sync.Pool{New: func() any { return new(dataset.CSVBlock) }}

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
