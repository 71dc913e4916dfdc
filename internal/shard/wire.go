// Package shard scales the audit pipeline across processes: a Coordinator
// splits a batch into shards (contiguous row ranges), streams each shard's
// column chunks to a worker auditd over HTTP, and reassembles the workers'
// per-shard Results into one Result that is gob-byte-identical to a
// single-node audit of the same batch.
//
// The protocol rides the existing auditd surface: workers are plain auditd
// processes. Two worker-side routes carry it —
//
//	POST /v1/models/{name}/audit/shard?version=V&createdAt=T
//	    body: dataset chunk stream (Content-Type application/x-dataaudit-chunks)
//	    resp: gob ShardResult      (Content-Type application/x-dataaudit-result)
//	PUT  /v1/models/{name}/replicate
//	    body: gob ReplicaEnvelope  (Content-Type application/x-dataaudit-model)
//
// Model sync is pull-on-version-mismatch: before its first shard, the
// coordinator GETs the worker's /v1/models/{name} metadata and pushes a
// replica only when (Version, SchemaHash, CreatedAt) disagree —
// registry.InstallReplica's CreatedAt guard means a deleted-and-recreated
// model on either side can never silently poison a worker. Shard requests
// then pin both version and CreatedAt; a worker whose model changed
// underneath answers 409 and the coordinator resyncs and retries.
//
// Failure handling is shard-grained: a worker that dies mid-shard has its
// partial response discarded and the whole shard re-dispatched to a
// surviving worker, so the merged report is deterministic regardless of
// which workers failed when.
package shard

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"dataaudit/internal/audit"
	"dataaudit/internal/registry"
)

// Content types of the shard protocol. They are deliberately not generic
// ("application/octet-stream"): a worker can reject a mis-routed body
// before decoding a byte.
const (
	ContentTypeChunkStream = "application/x-dataaudit-chunks"
	ContentTypeShardResult = "application/x-dataaudit-result"
	ContentTypeReplica     = "application/x-dataaudit-model"
)

// ShardResult is a worker's response to one shard dispatch: the scored
// reports in dispatch order. Rows duplicates len(Result.Reports) so a
// truncated body fails validation instead of merging short.
type ShardResult struct {
	Rows   int
	Result *audit.Result
}

// EncodeShardResult writes the gob wire form.
func EncodeShardResult(w io.Writer, sr *ShardResult) error {
	return gob.NewEncoder(w).Encode(sr)
}

// DecodeShardResult reads and validates a worker response. wantRows is the
// dispatched shard size and wantAttrs the relation width; any disagreement
// — short report list, foreign width, out-of-range finding attributes,
// shard-local row indices that are not 0..n-1 in order — is a protocol
// error, never a silent partial merge.
func DecodeShardResult(r io.Reader, wantRows, wantAttrs int) (*ShardResult, error) {
	var sr ShardResult
	if err := gob.NewDecoder(r).Decode(&sr); err != nil {
		return nil, fmt.Errorf("shard: decoding result: %w", err)
	}
	if sr.Result == nil {
		return nil, fmt.Errorf("shard: result missing from response")
	}
	if sr.Rows != wantRows || len(sr.Result.Reports) != wantRows {
		return nil, fmt.Errorf("shard: worker returned %d/%d reports for a %d-row shard", sr.Rows, len(sr.Result.Reports), wantRows)
	}
	if sr.Result.NumAttrs != wantAttrs {
		return nil, fmt.Errorf("shard: worker scored %d attributes, want %d", sr.Result.NumAttrs, wantAttrs)
	}
	for i := range sr.Result.Reports {
		rep := &sr.Result.Reports[i]
		if rep.Row != i {
			return nil, fmt.Errorf("shard: report %d carries shard-local row %d", i, rep.Row)
		}
		for _, f := range rep.Findings {
			if f.Attr < 0 || f.Attr >= wantAttrs {
				return nil, fmt.Errorf("shard: report %d finding names attribute %d of %d", i, f.Attr, wantAttrs)
			}
		}
		// Gob decodes Best as a standalone Finding; re-aim it into the
		// report's own slice so downstream holds the usual invariant.
		rep.RepointBest()
	}
	return &sr, nil
}

// ReplicaEnvelope is the replication payload: the source registry's meta
// sidecar verbatim plus the model's gob bytes (audit.Marshal). The model
// travels as opaque bytes so the envelope decode cannot partially
// materialize a model the meta guard then rejects.
type ReplicaEnvelope struct {
	Meta  registry.Meta
	Model []byte
}

// EncodeReplica writes the gob wire form of a replication push.
func EncodeReplica(w io.Writer, meta registry.Meta, m *audit.Model) error {
	b, err := audit.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: marshalling replica: %w", err)
	}
	return gob.NewEncoder(w).Encode(&ReplicaEnvelope{Meta: meta, Model: b})
}

// DecodeReplica reads a replication push and materializes the model.
// Identity validation (schema hash vs meta, CreatedAt guard) belongs to
// registry.InstallReplica — this only gets the bytes back into shape.
func DecodeReplica(r io.Reader) (registry.Meta, *audit.Model, error) {
	var env ReplicaEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return registry.Meta{}, nil, fmt.Errorf("shard: decoding replica: %w", err)
	}
	m, err := audit.Unmarshal(env.Model)
	if err != nil {
		return registry.Meta{}, nil, fmt.Errorf("shard: replica model: %w", err)
	}
	return env.Meta, m, nil
}

// ErrSchemaMismatch marks a shard stream whose schema does not hash to the
// model's recorded fingerprint. Workers map it to 400.
var ErrSchemaMismatch = errors.New("shard: stream schema does not match the model's schema hash")
