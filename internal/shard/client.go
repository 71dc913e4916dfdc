package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// workerClient speaks the shard protocol to one worker auditd.
type workerClient struct {
	base string // "http://host:port", no trailing slash
	hc   *http.Client
}

// statusError is a non-2xx worker reply, with the body's error string when
// the worker sent the usual JSON error shape.
type statusError struct {
	Status int
	Msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("worker replied %d: %s", e.Status, e.Msg)
}

// isVersionConflict reports the 409 a worker sends when the pinned
// (version, createdAt) no longer matches its local model — the signal to
// resync the replica and retry the shard.
func isVersionConflict(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.Status == http.StatusConflict
}

func (w *workerClient) url(path string, query url.Values) string {
	u := w.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return u
}

// readStatusError drains a non-2xx response into a *statusError.
func readStatusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var er struct {
		Error string `json:"error"`
	}
	msg := string(body)
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	return &statusError{Status: resp.StatusCode, Msg: msg}
}

// meta fetches the worker's latest committed metadata for name over the
// plain model route. A 404 comes back as registry.NotFoundError so the
// caller can treat "worker has no copy" uniformly with "worker has the
// wrong copy".
func (w *workerClient) meta(ctx context.Context, name string) (registry.Meta, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url("/v1/models/"+name, nil), nil)
	if err != nil {
		return registry.Meta{}, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return registry.Meta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return registry.Meta{}, &registry.NotFoundError{Name: name}
	}
	if resp.StatusCode != http.StatusOK {
		return registry.Meta{}, readStatusError(resp)
	}
	var meta registry.Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return registry.Meta{}, fmt.Errorf("decoding worker meta: %w", err)
	}
	return meta, nil
}

// ensureModel makes the worker hold exactly the coordinator's model
// version: it pulls the worker's metadata and pushes a replica only on
// mismatch (missing model, foreign version, schema-hash or CreatedAt
// disagreement — the last is the recreated-model guard). It reports
// whether a replica was actually pushed.
func (w *workerClient) ensureModel(ctx context.Context, meta registry.Meta, m *audit.Model) (pushed bool, err error) {
	remote, err := w.meta(ctx, meta.Name)
	if err == nil &&
		remote.Version == meta.Version &&
		remote.SchemaHash == meta.SchemaHash &&
		remote.CreatedAt.Equal(meta.CreatedAt) {
		return false, nil
	}
	if err != nil && !registry.IsNotFound(err) {
		return false, fmt.Errorf("checking worker model: %w", err)
	}
	if err := w.replicate(ctx, meta, m); err != nil {
		return false, err
	}
	return true, nil
}

// replicate pushes the model to the worker's replicate route.
func (w *workerClient) replicate(ctx context.Context, meta registry.Meta, m *audit.Model) error {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(EncodeReplica(pw, meta, m)) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, w.url("/v1/models/"+meta.Name+"/replicate", nil), pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ContentTypeReplica)
	resp, err := w.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replicating %s v%d: %w", meta.Name, meta.Version, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replicating %s v%d: %w", meta.Name, meta.Version, readStatusError(resp))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// auditShard streams rows [lo, hi) of tab to the worker and decodes the
// validated result: the shard's reports, their rows numbered from lo, and
// its quality dimensions. The request pins (version, createdAt) so a
// worker whose model moved replies 409 instead of scoring with the wrong
// model.
func (w *workerClient) auditShard(ctx context.Context, meta registry.Meta, tab *dataset.Table, lo, hi, chunkRows int) (shardPart, error) {
	query := url.Values{
		"version":   {strconv.Itoa(meta.Version)},
		"createdAt": {meta.CreatedAt.UTC().Format(time.RFC3339Nano)},
	}
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(writeShardStream(pw, tab, lo, hi, chunkRows)) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url("/v1/models/"+meta.Name+"/audit/shard", query), pr)
	if err != nil {
		return shardPart{}, err
	}
	req.Header.Set("Content-Type", ContentTypeChunkStream)
	resp, err := w.hc.Do(req)
	if err != nil {
		return shardPart{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return shardPart{}, readStatusError(resp)
	}
	fr := newFrameReader(resp.Body)
	h, err := fr.header(hi-lo, tab.NumCols())
	if err != nil {
		return shardPart{}, err
	}
	reports, dims, _, err := fr.body(h, lo)
	if err != nil {
		return shardPart{}, err
	}
	if err := checkDims(tab.Schema(), dims); err != nil {
		return shardPart{}, err
	}
	return shardPart{reports, dims}, nil
}

// checkDims holds a shard's quality dimensions to the shapes a local
// audit of the schema builds — a domain bitmap per nominal column, a
// sketch per number-like one — so audit.MergeDims can fold them.
func checkDims(s *dataset.Schema, dims []audit.AttrDim) error {
	for i := range dims {
		d, a := &dims[i], s.Attr(i)
		ok := d.Sketch != nil && d.NomSeen == nil
		if !a.IsNumberLike() {
			ok = d.Sketch == nil && d.NomSeen != nil && len(d.NomSeen) == len(a.Domain)
		}
		if !ok {
			return fmt.Errorf("shard: worker's dimension %d does not fit attribute %q", i, a.Name)
		}
	}
	return nil
}

// writeShardStream encodes rows [lo, hi) of the table as a chunk stream,
// filled column-wise through ChunkInto. Record IDs ride through unchanged.
func writeShardStream(w io.Writer, tab *dataset.Table, lo, hi, chunkRows int) error {
	sw := dataset.NewChunkStreamWriter(w)
	ck := dataset.NewColumnChunk(tab.Schema())
	for ; lo < hi; lo += chunkRows {
		tab.ChunkInto(ck, lo, min(lo+chunkRows, hi))
		if err := sw.Write(ck); err != nil {
			return err
		}
	}
	return nil
}
