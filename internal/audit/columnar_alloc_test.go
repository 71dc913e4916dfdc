package audit

import (
	"runtime"
	"testing"

	"dataaudit/internal/dataset"
)

// Allocation pinning for the columnar core: the chunked scoring loop —
// chunk fill, signature memo, batched descent, report assembly — must
// reach a steady state that allocates nothing per chunk, and the
// streaming pipeline must recycle its ColumnChunk buffers through the
// free list instead of building fresh ones per chunk.

// TestCheckChunkZeroAlloc pins the columnar inner loop at zero heap
// allocations per chunk once warm: the default model trained on the whole
// fixture, and a model of every inducer trained on its first 1 000 rows,
// so the per-row kernel is pinned for every family that runs it. Each
// case scores its chunks once to warm up, so every buffer (partition
// slabs, finding arenas, the signature memo's table and arena, the
// per-row kernel's row and distribution) has grown to its high-water mark
// and every distinct row signature is cached.
func TestCheckChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	m, dirty := streamQUIS(t)
	t.Run("default", func(t *testing.T) {
		checkChunkZeroAlloc(t, m, dirty, dirty.NumRows(), batchChunkRows, 100)
	})
	train := dataset.NewTable(dirty.Schema())
	for r := 0; r < 1000; r++ {
		train.AppendRow(dirty.Row(r))
	}
	for _, kind := range []InducerKind{
		InducerC45Audit, InducerC45, InducerID3,
		InducerNaiveBayes, InducerKNN, InducerOneR, InducerPrism,
	} {
		t.Run(string(kind), func(t *testing.T) {
			m, err := Induce(train, Options{MinConfidence: 0.8, Inducer: kind})
			if err != nil {
				t.Fatal(err)
			}
			// kNN scans its 1 000 stored rows per prediction, so every
			// case scores a short span in small chunks.
			checkChunkZeroAlloc(t, m, dirty, 1024, 128, 16)
		})
	}
}

// TestCheckChunkFreshScratchBytes pins what a short call pays once its
// model is warm: the model's scoring plan is built by then, so a fresh
// ChunkScratch's first CheckChunk on a one-row chunk allocates only the
// scratch's own buffers, under 32 KB. A scratch that derived the rule
// findings itself allocated a slot per rule and observed class on every
// call, ~56 KB on the benchmark's QUIS model.
func TestCheckChunkFreshScratchBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	m, dirty := streamQUIS(t)
	m.AuditTable(cloneRows(dirty, 0, 1))
	ck := dataset.NewColumnChunk(dirty.Schema())
	dirty.ChunkInto(ck, 0, 1)
	// The least of a few tries, so a background allocation cannot fail it.
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.CheckChunk(ck, 0, NewChunkScratch(m))
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 32<<10 {
		t.Fatalf("a fresh scratch's first one-row CheckChunk allocated %d bytes, want under %d", least, 32<<10)
	}
	t.Logf("a fresh scratch's first one-row CheckChunk allocated %d bytes", least)
}

// checkChunkZeroAlloc scores tab's first rows rows in chunks of
// chunkRows, once to warm up, then runs more chunks cycling over the same
// span, and fails if a chunk allocates.
func checkChunkZeroAlloc(t *testing.T, m *Model, tab *dataset.Table, rows, chunkRows, runs int) {
	t.Helper()
	ck := dataset.NewColumnChunk(tab.Schema())
	scratch := NewChunkScratch(m)
	for lo := 0; lo < rows; lo += chunkRows {
		hi := min(lo+chunkRows, rows)
		tab.ChunkInto(ck, lo, hi)
		m.CheckChunk(ck, int64(lo), scratch)
	}

	lo := 0
	allocs := testing.AllocsPerRun(runs, func() {
		hi := min(lo+chunkRows, rows)
		tab.ChunkInto(ck, lo, hi)
		m.CheckChunk(ck, int64(lo), scratch)
		lo += chunkRows
		if lo >= rows {
			lo = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckChunk allocated %.1f times per chunk in steady state, want 0", allocs)
	}
}

// TestAuditTableAllocatesOnlyForFlaggedRows pins the sparse Result: a
// batch audit materialises reports only for the rows that have one, so on
// a table where no row is flagged, what AuditTableParallel allocates does
// not grow with the row count. The table tiles the rows of an engine
// sample whose reports are Empty; from 20 000 to 200 000 rows the bytes
// allocated may grow by less than 4 per added row (a dense report slice
// alone costs 64). One worker scores both tables in units of the same
// size, so the scoring buffers, sized by the unit, cost the same.
func TestAuditTableAllocatesOnlyForFlaggedRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	sample := engineTable(t, 2000, 91)
	m, err := Induce(sample, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var clean [][]dataset.Value
	for row, rep := range m.AuditTable(sample).ByRow(sample.NumRows()) {
		if rep == nil {
			clean = append(clean, sample.Row(row))
		}
	}
	if len(clean) < 1000 {
		t.Fatalf("only %d of %d sample rows are clean", len(clean), sample.NumRows())
	}
	tiled := func(rows int) *dataset.Table {
		tab := dataset.NewTable(sample.Schema())
		for r := 0; r < rows; r++ {
			tab.AppendRow(clean[r%len(clean)])
		}
		return tab
	}
	// allocated is the least of a few audits, so a background allocation
	// cannot fail the test.
	allocated := func(tab *dataset.Table) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := m.AuditTableParallel(tab, 1)
			runtime.ReadMemStats(&after)
			if res.Rows != tab.NumRows() || len(res.Reports) != 0 {
				t.Fatalf("%d-row audit counts %d rows and keeps %d reports", tab.NumRows(), res.Rows, len(res.Reports))
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := tiled(20_000), tiled(200_000)
	a, b := allocated(small), allocated(large)
	perRow := (float64(b) - float64(a)) / float64(large.NumRows()-small.NumRows())
	t.Logf("20 000 rows: %d bytes; 200 000 rows: %d bytes; %.2f B per added row", a, b, perRow)
	if perRow >= 4 {
		t.Fatalf("a clean table's audit allocates %.2f B per added row, want under 4", perRow)
	}
}

// chunkSpySource wraps a RowSource and records the identity of every
// *ColumnChunk the caller hands it, so a test can count how many
// distinct chunk buffers a whole streaming audit ever used.
type chunkSpySource struct {
	inner  dataset.RowSource
	seen   map[*dataset.ColumnChunk]int
	chunks int
}

func (s *chunkSpySource) Schema() *dataset.Schema { return s.inner.Schema() }

func (s *chunkSpySource) NextChunk(ck *dataset.ColumnChunk, max int) (int, error) {
	s.seen[ck]++
	s.chunks++
	return s.inner.NextChunk(ck, max)
}

// TestAuditStreamReusesChunkBuffers proves the stream's ColumnChunk
// buffers are recycled: across a 55k-row audit in 64-row chunks (several
// hundred chunk fills) the reader only ever presents the workers+1
// buffers the free list was seeded with.
func TestAuditStreamReusesChunkBuffers(t *testing.T) {
	m, dirty := streamQUIS(t)
	const workers = 2
	spy := &chunkSpySource{
		inner: dataset.NewTableSource(dirty),
		seen:  make(map[*dataset.ColumnChunk]int),
	}
	if _, err := m.AuditStream(spy, StreamOptions{ChunkSize: 64, Workers: workers, TopK: 10}); err != nil {
		t.Fatal(err)
	}
	minChunks := dirty.NumRows() / 64
	if spy.chunks < minChunks {
		t.Fatalf("stream filled only %d chunks, expected at least %d", spy.chunks, minChunks)
	}
	if len(spy.seen) > workers+1 {
		t.Fatalf("stream used %d distinct chunk buffers over %d fills, want at most workers+1 = %d",
			len(spy.seen), spy.chunks, workers+1)
	}
}
