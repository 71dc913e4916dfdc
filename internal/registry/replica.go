package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dataaudit/internal/audit"
)

// ErrReplicaConflict marks a replica install that would silently overwrite
// a different committed model under the same (name, version) key. Match
// with errors.Is.
var ErrReplicaConflict = errors.New("registry: replica conflict")

// ReplicaConflictError details the conflicting publish: the local version
// exists but was committed at a different time (or with a different
// schema) than the replica — the classic recreated-model hazard, where a
// model was deleted and re-published so version numbers restarted and
// collide. The resolution belongs to the caller: a worker resolving a
// coordinator push deletes its local copy and re-installs, because the
// coordinator's registry is the source of truth.
type ReplicaConflictError struct {
	Name    string
	Version int
}

func (e *ReplicaConflictError) Error() string {
	return fmt.Sprintf("registry: replica of %s v%d conflicts with a locally committed version (deleted/recreated model?)", e.Name, e.Version)
}

func (e *ReplicaConflictError) Unwrap() error { return ErrReplicaConflict }

// InstallReplica commits a model under the exact (version, createdAt,
// quality) identity of a publish made elsewhere — registry replication.
// Unlike Publish it allocates no version: meta travels verbatim from the
// source registry, so a worker's copy of "model v3" is indistinguishable
// from the coordinator's (same sidecar, same gob model bytes on load).
//
// The install is atomic like Publish (model file first, meta sidecar as
// the commit point) and idempotent: re-installing a version that is
// already committed with the same CreatedAt and SchemaHash is a no-op.
// A committed version with a *different* identity fails with
// ErrReplicaConflict and changes nothing — the caller decides whether to
// delete and re-install.
func (r *Registry) InstallReplica(meta Meta, m *audit.Model) error {
	if !ValidName(meta.Name) {
		return fmt.Errorf("registry: invalid model name %q", meta.Name)
	}
	if meta.Version < 1 {
		return fmt.Errorf("registry: replica of %s: invalid version %d", meta.Name, meta.Version)
	}
	if m == nil || m.Schema == nil {
		return fmt.Errorf("registry: nil replica model")
	}
	if meta.CreatedAt.IsZero() {
		return fmt.Errorf("registry: replica of %s v%d has no CreatedAt (cannot guard against recreated models)", meta.Name, meta.Version)
	}
	// The payload must match its metadata: a replica whose model hashes
	// differently from its meta is corrupt in flight, and committing it
	// would poison every schema-drift check downstream.
	if hash := SchemaHash(m.Schema); hash == "" || hash != meta.SchemaHash {
		return fmt.Errorf("registry: replica of %s v%d: model schema hash %.12s does not match meta %.12s", meta.Name, meta.Version, SchemaHash(m.Schema), meta.SchemaHash)
	}

	r.pubMu.Lock()
	defer r.pubMu.Unlock()

	dir := r.modelDir(meta.Name)
	if existing, err := r.readMeta(meta.Name, meta.Version); err == nil {
		if existing.CreatedAt.Equal(meta.CreatedAt) && existing.SchemaHash == meta.SchemaHash {
			return nil // already committed — idempotent
		}
		return &ReplicaConflictError{Name: meta.Name, Version: meta.Version}
	} else if !IsNotFound(err) {
		return err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	modelFile, metaFile := versionFiles(meta.Version)
	if err := audit.Save(filepath.Join(dir, modelFile), m); err != nil {
		return fmt.Errorf("registry: writing replica model: %w", err)
	}
	if err := writeMeta(filepath.Join(dir, metaFile), meta); err != nil {
		os.Remove(filepath.Join(dir, modelFile)) // roll back the orphan
		return fmt.Errorf("registry: committing replica meta: %w", err)
	}

	fi := statSidecar(dir, meta.Version)

	r.mu.Lock()
	// A replica may land above a gap that latestVersion's step would not
	// cross.
	r.latest[meta.Name] = max(r.latest[meta.Name], meta.Version)
	r.cachePutLocked(cacheKey{meta.Name, meta.Version}, m, meta, fi)
	r.mu.Unlock()
	return nil
}
