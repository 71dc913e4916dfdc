package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// The chunk-stream codec carries many chunks of one relation over a single
// gob stream: the schema is sent once as a header message, then each chunk
// as an IDs/columns message without the schema repetition. It is the only
// wire format rows have. The sharded audit protocol (internal/shard)
// uses it so that a coordinator streams a shard's chunks to a worker's
// shard endpoint without buffering the shard in wire form, and the worker
// scores chunks as they decode; EncodeTable writes a table's row spans
// through it for the monitor's persisted reservoir and table files.
//
// One gob.Encoder/gob.Decoder pair lives for the whole stream — gob
// buffers reads, so layering a fresh decoder per message over the same
// reader would lose bytes.

// wireStreamChunk is the per-chunk message of a chunk stream; the schema
// travels once, in the stream header.
type wireStreamChunk struct {
	IDs  []int64
	N    int
	Cols []wireCol
}

// ChunkStreamWriter encodes a sequence of ColumnChunks sharing one schema
// onto a single gob stream. The schema header is written lazily with the
// first chunk; a stream with zero Write calls is empty and decodes as an
// immediate io.EOF.
type ChunkStreamWriter struct {
	enc    *gob.Encoder
	schema *Schema
}

// NewChunkStreamWriter returns a writer encoding onto w.
func NewChunkStreamWriter(w io.Writer) *ChunkStreamWriter {
	return &ChunkStreamWriter{enc: gob.NewEncoder(w)}
}

// Write appends one chunk to the stream. Every chunk must share the first
// chunk's schema (pointer identity — chunks of one stream come from one
// source). The chunk's buffers are read synchronously and may be reused by
// the caller after Write returns.
func (sw *ChunkStreamWriter) Write(ck *ColumnChunk) error {
	if sw.schema == nil {
		if err := sw.enc.Encode(toWireSchema(ck.schema)); err != nil {
			return fmt.Errorf("dataset: chunk stream header: %w", err)
		}
		sw.schema = ck.schema
	} else if ck.schema != sw.schema {
		return fmt.Errorf("dataset: chunk stream: schema changed mid-stream")
	}
	wc := wireStreamChunk{IDs: ck.ids, N: ck.n, Cols: make([]wireCol, len(ck.cols))}
	for c := range ck.cols {
		wc.Cols[c] = wireCol{Nom: ck.cols[c].Nom, Num: ck.cols[c].Num, Nulls: ck.cols[c].nulls}
	}
	return sw.enc.Encode(&wc)
}

// ChunkStreamReader decodes a stream written by ChunkStreamWriter, applying
// chunkFromWire's validation to every chunk (arity, lengths, nominal
// domain bounds, null canonicalization).
type ChunkStreamReader struct {
	dec    *gob.Decoder
	schema *Schema
}

// NewChunkStreamReader returns a reader decoding from r. The header is
// decoded lazily on the first Read, so construction never blocks.
func NewChunkStreamReader(r io.Reader) *ChunkStreamReader {
	return &ChunkStreamReader{dec: gob.NewDecoder(r)}
}

// Schema returns the stream's schema, or nil before the first successful
// Read has decoded the header.
func (sr *ChunkStreamReader) Schema() *Schema { return sr.schema }

// Read decodes and validates the next chunk. It returns io.EOF at the
// clean end of the stream (including an empty stream with no header); any
// other error means the stream is corrupt or truncated.
func (sr *ChunkStreamReader) Read() (*ColumnChunk, error) {
	if sr.schema == nil {
		var ws wireSchema
		if err := sr.dec.Decode(&ws); err != nil {
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("dataset: chunk stream header: %w", err)
		}
		s, err := fromWireSchema(ws)
		if err != nil {
			return nil, err
		}
		sr.schema = s
	}
	var wc wireStreamChunk
	if err := sr.dec.Decode(&wc); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dataset: chunk stream: %w", err)
	}
	return chunkFromWire(sr.schema, wc)
}

// wireCol is the gob wire form of one chunk column.
type wireCol struct {
	Nom   []int32
	Num   []float64
	Nulls []uint64
}

// chunkFromWire validates decoded wire columns against a resolved schema
// — column arity, lengths, nominal domain bounds — and materializes the
// chunk, so a corrupt or adversarial stream cannot produce a misaligned
// one. It is the one validator behind ChunkStreamReader and DecodeTable.
func chunkFromWire(s *Schema, wc wireStreamChunk) (*ColumnChunk, error) {
	if wc.N < 0 || len(wc.IDs) != wc.N {
		return nil, fmt.Errorf("dataset: chunk has %d IDs for %d rows", len(wc.IDs), wc.N)
	}
	if len(wc.Cols) != s.Len() {
		return nil, fmt.Errorf("dataset: chunk has %d columns, schema has %d attributes", len(wc.Cols), s.Len())
	}
	ck := &ColumnChunk{schema: s, ids: wc.IDs, n: wc.N}
	ck.cols = make([]ChunkCol, len(wc.Cols))
	for c := range wc.Cols {
		col := ChunkCol{Nom: wc.Cols[c].Nom, Num: wc.Cols[c].Num, nulls: wc.Cols[c].Nulls}
		if len(col.nulls) < nullWords(wc.N) {
			return nil, fmt.Errorf("dataset: chunk column %d null bitmap has %d words, need %d", c, len(col.nulls), nullWords(wc.N))
		}
		a := s.Attr(c)
		if a.Type == NominalType {
			if len(col.Nom) != wc.N || len(col.Num) != 0 {
				return nil, fmt.Errorf("dataset: chunk column %d (%s) is not a nominal column of %d rows", c, a.Name, wc.N)
			}
			k := int32(a.NumValues())
			for r, idx := range col.Nom {
				if col.Null(r) {
					if idx != -1 {
						return nil, fmt.Errorf("dataset: chunk column %d row %d: null row encodes index %d", c, r, idx)
					}
					continue
				}
				if idx < 0 || idx >= k {
					return nil, fmt.Errorf("dataset: chunk column %d row %d: index %d outside domain of %d", c, r, idx, k)
				}
			}
		} else {
			if len(col.Num) != wc.N || len(col.Nom) != 0 {
				return nil, fmt.Errorf("dataset: chunk column %d (%s) is not a numeric column of %d rows", c, a.Name, wc.N)
			}
			for r := range col.Num {
				if col.Null(r) {
					col.Num[r] = math.NaN() // canonicalize the null payload
				}
			}
		}
		ck.cols[c] = col
	}
	return ck, nil
}
