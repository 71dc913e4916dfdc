package serve

import (
	"errors"
	"mime"
	"net/http"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/obs"
	"dataaudit/internal/registry"
	"dataaudit/internal/shard"
)

// Coordinator mode. Every auditd is always a capable shard *worker* (the
// shard and replicate routes below are part of the standard surface); an
// auditd becomes a *coordinator* when WithCoordinator hands it a worker
// set. A coordinator's buffered audit route then fans batches out to the
// workers and merges, while ?local=1 forces the in-process path — the
// escape hatch differential tests diff against.

// WithCoordinator enables coordinator mode over the given shard options.
// Logger and Metrics are wired by the server (options passed here for
// those fields are overridden); the worker list must be non-empty and
// pre-validated by the caller via shard.New, because server construction
// has no error path — an invalid set here logs and disables coordination.
func WithCoordinator(opts shard.Options) Option {
	return func(s *Server) { s.coordOpts = &opts }
}

// initCoordinator builds the coordinator once logger and metrics exist.
func (s *Server) initCoordinator() {
	opts := *s.coordOpts
	opts.Logger = s.logger
	if s.metricsOn {
		opts.Metrics = obs.NewShardMetrics(s.obsReg)
	}
	coord, err := shard.New(opts)
	if err != nil {
		s.logger.Printf("serve: coordinator disabled: %v", err)
		return
	}
	s.coord = coord
}

// handleAuditShard implements POST /v1/models/{name}/audit/shard — the
// worker half of the shard protocol. The body is a dataset chunk stream;
// the response a binary shard result frame (shard.EncodeShardResult,
// written through a fixed buffer) with shard-local row indices. The
// request pins the model identity: ?version= selects it and &createdAt=
// (RFC3339Nano) must match the committed sidecar, so a worker whose model
// was deleted/recreated answers 409 instead of scoring with an impostor.
// This route does not feed the worker's quality monitor: the coordinator
// observes the merged batch exactly once on its side.
func (s *Server) handleAuditShard(w http.ResponseWriter, r *http.Request) {
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct != shard.ContentTypeChunkStream {
		s.writeError(w, http.StatusUnsupportedMediaType, "shard audits take Content-Type %s", shard.ContentTypeChunkStream)
		return
	}
	version, err := versionParam(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	model, meta, err := s.reg.GetVersion(r.PathValue("name"), version)
	if err != nil {
		s.writeError(w, s.errStatus(err), "%v", err)
		return
	}
	if pinned := r.URL.Query().Get("createdAt"); pinned != "" {
		at, err := time.Parse(time.RFC3339Nano, pinned)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad createdAt %q: %v", pinned, err)
			return
		}
		if !meta.CreatedAt.Equal(at) {
			s.writeError(w, http.StatusConflict,
				"model %s v%d was published at %s, request pinned %s (deleted/recreated model?)",
				meta.Name, meta.Version, meta.CreatedAt.UTC().Format(time.RFC3339Nano), pinned)
			return
		}
	}

	res, err := shard.ScoreStream(model, dataset.NewChunkStreamReader(r.Body), meta.SchemaHash, s.maxBatch)
	if err != nil {
		switch {
		case errors.Is(err, audit.ErrRowLimit):
			s.writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", shard.ContentTypeShardResult)
	w.WriteHeader(http.StatusOK)
	if err := shard.EncodeShardResult(w, res); err != nil {
		s.logger.Printf("serve: writing shard result: %v", err)
	}
}

// handleReplicate implements PUT /v1/models/{name}/replicate: install a
// model under the exact identity committed elsewhere. On a replica
// conflict — same (name, version) committed locally with a different
// CreatedAt, i.e. a deleted-and-recreated model — the local copy is
// dropped wholesale (monitoring state included) and the push re-applied:
// the coordinator's registry is the source of truth for replicated names.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct != shard.ContentTypeReplica {
		s.writeError(w, http.StatusUnsupportedMediaType, "replication takes Content-Type %s", shard.ContentTypeReplica)
		return
	}
	meta, model, err := shard.DecodeReplica(r.Body)
	if err != nil {
		s.writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	if meta.Name != r.PathValue("name") {
		s.writeError(w, http.StatusBadRequest, "replica names model %q, route names %q", meta.Name, r.PathValue("name"))
		return
	}
	err = s.reg.InstallReplica(meta, model)
	if errors.Is(err, registry.ErrReplicaConflict) {
		s.logger.Printf("serve: replica conflict on %s v%d; dropping local copy", meta.Name, meta.Version)
		if derr := s.reg.Delete(meta.Name); derr != nil {
			s.writeError(w, s.errStatus(derr), "resolving replica conflict: %v", derr)
			return
		}
		s.mon.Forget(meta.Name)
		err = s.reg.InstallReplica(meta, model)
	}
	if err != nil {
		s.writeError(w, badRequestStatus(err), "%v", err)
		return
	}
	s.logger.Printf("serve: installed replica %s v%d", meta.Name, meta.Version)
	w.WriteHeader(http.StatusNoContent)
}

// handleShardWorkers implements GET /v1/shard/workers (coordinator mode
// only): the configured worker set and shard count.
func (s *Server) handleShardWorkers(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, ShardWorkersResponse{
		Workers: s.coord.Workers(),
		Shards:  s.coord.Shards(),
	})
}
