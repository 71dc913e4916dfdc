package audit

import (
	"testing"

	"dataaudit/internal/dataset"
)

// Allocation pinning for the columnar core: the chunked scoring loop —
// chunk fill, signature memo, batched descent, report assembly — must
// reach a steady state that allocates nothing per chunk, and the
// streaming pipeline must recycle its ColumnChunk buffers through the
// free list instead of building fresh ones per chunk.

// TestCheckChunkZeroAlloc pins the columnar inner loop at zero heap
// allocations per chunk once warm. The warm-up pass covers the whole
// fixture so every buffer (partition slabs, finding arenas, the
// signature memo's table and arena) has grown to its high-water mark
// and every distinct row signature is cached.
func TestCheckChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	m, dirty := streamQUIS(t)
	n := dirty.NumRows()
	ck := dataset.NewColumnChunk(dirty.Schema())
	scratch := NewChunkScratch(m)
	for lo := 0; lo < n; lo += batchChunkRows {
		hi := min(lo+batchChunkRows, n)
		dirty.ChunkInto(ck, lo, hi)
		m.CheckChunk(ck, int64(lo), scratch)
	}

	lo := 0
	allocs := testing.AllocsPerRun(100, func() {
		hi := min(lo+batchChunkRows, n)
		dirty.ChunkInto(ck, lo, hi)
		m.CheckChunk(ck, int64(lo), scratch)
		lo += batchChunkRows
		if lo >= n {
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
