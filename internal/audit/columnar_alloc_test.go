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
