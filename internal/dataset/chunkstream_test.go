package dataset

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestChunkStreamRoundTrip streams a table through the chunk-stream codec
// in several chunk sizes and checks every value, ID and null comes back.
func TestChunkStreamRoundTrip(t *testing.T) {
	tab := chunkFixtureTable(t)
	for _, chunkRows := range []int{1, 7, 64, 1000} {
		var buf bytes.Buffer
		sw := NewChunkStreamWriter(&buf)
		ck := NewColumnChunk(tab.Schema())
		for lo := 0; lo < tab.NumRows(); lo += chunkRows {
			hi := min(lo+chunkRows, tab.NumRows())
			tab.ChunkInto(ck, lo, hi)
			if err := sw.Write(ck); err != nil {
				t.Fatalf("chunk %d: Write: %v", chunkRows, err)
			}
		}

		sr := NewChunkStreamReader(&buf)
		if sr.Schema() != nil {
			t.Fatalf("chunk %d: schema resolved before first Read", chunkRows)
		}
		row, want := make([]Value, tab.NumCols()), make([]Value, tab.NumCols())
		r := 0
		for {
			got, err := sr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunk %d: Read: %v", chunkRows, err)
			}
			for i := 0; i < got.Rows(); i++ {
				if got.ID(i) != tab.ID(r) {
					t.Fatalf("chunk %d row %d: ID %d, want %d", chunkRows, r, got.ID(i), tab.ID(r))
				}
				got.RowInto(i, row)
				tab.RowInto(r, want)
				for c := range want {
					if !row[c].Equal(want[c]) {
						t.Fatalf("chunk %d row %d col %d: %v, want %v", chunkRows, r, c, row[c], want[c])
					}
				}
				r++
			}
		}
		if r != tab.NumRows() {
			t.Fatalf("chunk %d: decoded %d rows, want %d", chunkRows, r, tab.NumRows())
		}
		if sr.Schema() == nil || sr.Schema().Len() != tab.Schema().Len() {
			t.Fatalf("chunk %d: stream schema not resolved", chunkRows)
		}
	}
}

// TestChunkStreamEmpty: a stream with zero Write calls decodes as an
// immediate clean io.EOF, not a header error.
func TestChunkStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	_ = NewChunkStreamWriter(&buf) // never written
	sr := NewChunkStreamReader(&buf)
	if _, err := sr.Read(); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestChunkStreamCorrupt: truncated streams and garbage bytes surface as
// errors, never as silently short or misaligned chunks.
func TestChunkStreamCorrupt(t *testing.T) {
	tab := chunkFixtureTable(t)
	var buf bytes.Buffer
	sw := NewChunkStreamWriter(&buf)
	ck := NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, tab.NumRows())
	if err := sw.Write(ck); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		sr := NewChunkStreamReader(bytes.NewReader(full[:len(full)/2]))
		if _, err := sr.Read(); err == nil || err == io.EOF {
			t.Fatalf("truncated stream: err = %v, want decode error", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		sr := NewChunkStreamReader(strings.NewReader("not a gob stream at all"))
		if _, err := sr.Read(); err == nil || err == io.EOF {
			t.Fatalf("garbage stream: err = %v, want decode error", err)
		}
	})
	t.Run("schema-change-mid-stream", func(t *testing.T) {
		var b bytes.Buffer
		w := NewChunkStreamWriter(&b)
		if err := w.Write(ck); err != nil {
			t.Fatal(err)
		}
		other := NewColumnChunk(fuzzSchema(t))
		if err := w.Write(other); err == nil {
			t.Fatal("schema change mid-stream: want error")
		}
	})
}

// TestChunkStreamValidation: a decoded chunk passes through
// chunkFromWire's corrupt-chunk checks — here, an out-of-domain nominal
// index injected into an otherwise valid wire message.
func TestChunkStreamValidation(t *testing.T) {
	tab := chunkFixtureTable(t)
	ck := NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, 10)
	// Corrupt in place, encode, restore.
	orig := ck.cols[0].Nom[1]
	ck.cols[0].Nom[1] = 99 // fuzzSchema's nominal attr has 3 values
	var buf bytes.Buffer
	sw := NewChunkStreamWriter(&buf)
	err := sw.Write(ck)
	ck.cols[0].Nom[1] = orig
	if err != nil {
		t.Fatal(err)
	}
	sr := NewChunkStreamReader(&buf)
	if _, err := sr.Read(); err == nil {
		t.Fatal("out-of-domain nominal index decoded without error")
	}
}

// TestReadAllKeepIDs: IDs survive materialization, unlike ReadAll.
func TestReadAllKeepIDs(t *testing.T) {
	tab := chunkFixtureTable(t)
	tab.DeleteRow(3) // make IDs != row ordinals
	got, err := ReadAllKeepIDs(NewTableSource(tab))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), tab.NumRows())
	}
	for r := 0; r < tab.NumRows(); r++ {
		if got.ID(r) != tab.ID(r) {
			t.Fatalf("row %d: ID %d, want %d", r, got.ID(r), tab.ID(r))
		}
	}
}
