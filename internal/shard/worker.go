package shard

import (
	"fmt"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// ScoreStream is the worker half of the shard protocol: it decodes a
// chunk stream and scores each chunk as it arrives, so the worker never
// buffers the shard in wire form. Reports carry shard-local row indices
// (0..n-1 in stream order) — the coordinator owns the mapping back to
// global rows — and the record IDs ride through the chunk stream
// unchanged. The shard's quality dimensions fold back to the single-node
// values at the coordinator: every accumulator is a sum or set union.
//
// wantSchemaHash, when non-empty, must match the stream schema's
// registry.SchemaHash fingerprint (ErrSchemaMismatch otherwise); maxRows,
// when positive, bounds the stream (an *audit.RowLimitError, which wraps
// audit.ErrRowLimit, beyond it).
func ScoreStream(model *audit.Model, sr *dataset.ChunkStreamReader, wantSchemaHash string, maxRows int) (*ShardResult, error) {
	checked := false
	rows := 0
	res, err := model.AuditChunks(func() (*dataset.ColumnChunk, error) {
		ck, err := sr.Read()
		if err != nil {
			return nil, err // io.EOF is the clean end
		}
		if !checked {
			if wantSchemaHash != "" && registry.SchemaHash(sr.Schema()) != wantSchemaHash {
				return nil, ErrSchemaMismatch
			}
			if sr.Schema().Len() != model.Schema.Len() {
				return nil, fmt.Errorf("shard: stream arity %d != model arity %d", sr.Schema().Len(), model.Schema.Len())
			}
			checked = true
		}
		if maxRows > 0 && rows+ck.Rows() > maxRows {
			return nil, &audit.RowLimitError{Limit: int64(maxRows)}
		}
		rows += ck.Rows()
		return ck, nil
	})
	if err != nil {
		return nil, err
	}
	return &ShardResult{Rows: rows, Result: res}, nil
}
