package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dataaudit/internal/atomicfile"
	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
)

// Meta describes one published model version.
type Meta struct {
	// Name is the registry key; Version the monotonic publish counter.
	Name    string `json:"name"`
	Version int    `json:"version"`
	// SchemaHash fingerprints the model's relation schema (sha256 over the
	// canonical schema text format) so clients can detect drift between
	// the data they score and the data the model was trained on.
	SchemaHash string `json:"schemaHash"`
	// Attributes are the schema's attribute names, for display.
	Attributes []string `json:"attributes"`
	// Inducer is the structure-induction algorithm the model was built with.
	Inducer audit.InducerKind `json:"inducer"`
	// TrainRows is the induction sample size.
	TrainRows int `json:"trainRows"`
	// NumAttrModels is the number of per-attribute classifiers, recorded
	// here so metadata reads never have to load the model itself.
	NumAttrModels int `json:"numAttrModels"`
	// InduceMillis is the induction wall time in milliseconds.
	InduceMillis int64 `json:"induceMillis"`
	// CreatedAt is the publish timestamp (UTC).
	CreatedAt time.Time `json:"createdAt"`
	// Quality is the model's quality baseline on its training table
	// (audit.Model.QualityProfile), persisted with the meta sidecar so the
	// monitoring layer can compare fresh audits against it without
	// re-scoring the training data. Nil on versions published without a
	// profile.
	Quality *audit.QualityProfile `json:"quality,omitempty"`
}

// SchemaHash computes the canonical schema fingerprint recorded in Meta.
// It returns "" when the schema does not render to a well-formed text form
// (e.g. an attribute of unknown type, which renders an empty line) — a
// fingerprint over such text would not round-trip through ParseSchema.
// Publish refuses to commit a Meta with an empty hash, so a corrupt
// fingerprint can never be published.
func SchemaHash(s *dataset.Schema) string {
	var b strings.Builder
	if err := dataset.WriteSchemaText(&b, s); err != nil {
		return "" // strings.Builder never errors; defensive only
	}
	text := b.String()
	if text == "" {
		return ""
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			return ""
		}
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidName reports whether a model name is acceptable as a registry key
// (and therefore as a directory name and URL path segment).
func ValidName(name string) bool { return nameRe.MatchString(name) }

// Registry is the catalogue handle. All methods are safe for concurrent
// use; a single Registry is meant to be shared by every goroutine of a
// serving process.
//
// Locking: mu guards only the in-memory cache and is never held across
// disk I/O, so a slow publish or cold load cannot stall cache hits.
// pubMu serializes the writers (Publish, Delete) — version allocation
// and the two-file commit must not interleave. Readers need no disk
// lock at all: committed meta sidecars are immutable, and a mid-publish
// version is invisible until its sidecar (the commit point) lands. Lock
// order where both are held: pubMu before mu.
type Registry struct {
	root string

	pubMu sync.Mutex // serializes Publish/Delete disk mutations

	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry
	clock int64 // logical clock for LRU bookkeeping
	gen   int64 // bumped by Delete; stale loads skip the cache
	max   int
	// latest is, per model name, the highest committed version seen: the
	// starting point of the next "latest" lookup (see latestVersion).
	latest map[string]int

	// Cache statistics, atomic so CacheStats never contends with the
	// cache lock. The registry stays dependency-free: the serving layer
	// bridges these into its metric registry with scrape-time functions.
	hits, misses, evictions atomic.Uint64
}

// CacheStats reports the model cache's cumulative hit/miss/eviction
// counts and the number of currently resident models.
func (r *Registry) CacheStats() (hits, misses, evictions uint64, resident int) {
	r.mu.Lock()
	resident = len(r.cache)
	r.mu.Unlock()
	return r.hits.Load(), r.misses.Load(), r.evictions.Load(), resident
}

// cacheKey names one resident model version.
type cacheKey struct {
	name    string
	version int
}

// cacheEntry is a resident model version. file is the meta sidecar it
// was loaded under: a hit is served only while the version's sidecar on
// disk is still that file (sameSidecar), because another Registry over
// the same directory may have deleted the model and published the
// version number again.
type cacheEntry struct {
	model *audit.Model
	meta  Meta
	file  os.FileInfo
	used  int64
}

// Option customizes Open.
type Option func(*Registry)

// WithCacheSize caps the number of models kept resident (default 8).
func WithCacheSize(n int) Option {
	return func(r *Registry) {
		if n > 0 {
			r.max = n
		}
	}
}

// Open creates (if needed) and opens a registry rooted at dir.
func Open(dir string, opts ...Option) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{root: dir, cache: make(map[cacheKey]*cacheEntry), max: 8, latest: make(map[string]int)}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

// StateDir returns the directory reserved under the registry root for
// sidecar state that should live and die with the catalogue — e.g. the
// quality monitor's persisted lifecycle state. The leading dot keeps it
// out of the model namespace: ValidName rejects it, so List and the model
// directories can never collide with it. The directory is created lazily
// by its users.
func (r *Registry) StateDir() string { return filepath.Join(r.root, ".state") }

func (r *Registry) modelDir(name string) string { return filepath.Join(r.root, name) }

func versionFiles(version int) (model, meta string) {
	return fmt.Sprintf("v%06d.model", version), fmt.Sprintf("v%06d.json", version)
}

// parseVersionName returns the version in a file name v<digits><suffix>,
// the form versionFiles writes at any width (seven digits from the
// millionth version on). ok is false for any other name: a signed number,
// a longer suffix such as .json.tmp, or digits that overflow an int.
func parseVersionName(name, suffix string) (version int, ok bool) {
	digits, ok := strings.CutPrefix(name, "v")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, suffix); !ok || digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.Atoi(digits)
	if err != nil {
		return 0, false
	}
	return v, true
}

// statSidecar returns the version's meta sidecar, its commit point, or
// nil when the version is not committed in the model directory.
func statSidecar(dir string, version int) os.FileInfo {
	_, meta := versionFiles(version)
	fi, err := os.Stat(filepath.Join(dir, meta))
	if err != nil {
		return nil
	}
	return fi
}

// sameSidecar reports whether two Stats of a sidecar found one and the
// same file. A committed sidecar is only ever renamed into place, so a
// new publish of a version number is a new file; the modification time
// and size must match too, because a delete frees inode numbers that the
// next publish may reuse.
func sameSidecar(a, b os.FileInfo) bool {
	return a != nil && b != nil && os.SameFile(a, b) && a.ModTime().Equal(b.ModTime()) && a.Size() == b.Size()
}

// latestVersion resolves the named model's latest committed version and
// its sidecar, or 0 when it has none, without reading the directory.
// Versions are committed highest-plus-one, so from the highest version v
// this registry has seen, a later publish — through this registry or any
// other over the same directory — shows as v+1's sidecar; it steps while
// one exists. Only when v's own sidecar is gone (the model was deleted)
// does it scan. What it finds replaces v unless a writer recorded a
// version in the meantime. The sidecar is nil when the version found by
// a scan was removed before it could be Stat'ed.
func (r *Registry) latestVersion(name string) (int, os.FileInfo, error) {
	dir := r.modelDir(name)
	r.mu.Lock()
	seen := r.latest[name]
	r.mu.Unlock()
	v := seen
	var fi os.FileInfo
	if v != 0 {
		fi = statSidecar(dir, v)
	}
	if fi == nil {
		versions, err := committedVersions(dir)
		if err != nil || len(versions) == 0 {
			return 0, nil, err
		}
		v = versions[len(versions)-1]
		fi = statSidecar(dir, v)
	}
	for next := statSidecar(dir, v+1); next != nil; next = statSidecar(dir, v+1) {
		v, fi = v+1, next
	}
	r.mu.Lock()
	if r.latest[name] == seen {
		r.latest[name] = v
	}
	r.mu.Unlock()
	return v, fi, nil
}

// committedVersions scans a model directory for versions whose meta
// sidecar (the commit point) exists, ascending.
func committedVersions(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []int
	for _, e := range ents {
		if v, ok := parseVersionName(e.Name(), ".json"); ok {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Publish stores the model under name with the next monotonic version and
// returns the committed metadata. The publish is atomic (write-temp-then-
// rename for both files): concurrent readers either see the previous
// latest version or the new one, never a torn state.
func (r *Registry) Publish(name string, m *audit.Model) (Meta, error) {
	return r.PublishWithQuality(name, m, nil)
}

// PublishWithQuality is Publish with a quality baseline attached: the
// profile is committed inside the meta sidecar (the same atomic rename),
// so a version either carries its baseline or does not exist.
func (r *Registry) PublishWithQuality(name string, m *audit.Model, quality *audit.QualityProfile) (Meta, error) {
	if !ValidName(name) {
		return Meta{}, fmt.Errorf("registry: invalid model name %q", name)
	}
	if m == nil || m.Schema == nil {
		return Meta{}, fmt.Errorf("registry: nil model")
	}
	hash := SchemaHash(m.Schema)
	if hash == "" {
		// SchemaHash's defensive error path must never become a published
		// fingerprint: an empty hash would make every schema-drift
		// comparison silently pass.
		return Meta{}, fmt.Errorf("registry: refusing to publish %q: empty schema hash", name)
	}

	// Serialize writers only: the encode + two renames below can take a
	// while for a large model, and readers must not queue behind them.
	r.pubMu.Lock()
	defer r.pubMu.Unlock()

	dir := r.modelDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	versions, err := committedVersions(dir)
	if err != nil {
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	version := 1
	if len(versions) > 0 {
		version = versions[len(versions)-1] + 1
	}

	meta := Meta{
		Name:          name,
		Version:       version,
		SchemaHash:    hash,
		Attributes:    m.Schema.Names(),
		Inducer:       m.Opts.Inducer,
		TrainRows:     m.TrainRows,
		NumAttrModels: len(m.Attrs),
		InduceMillis:  m.InduceTime.Milliseconds(),
		CreatedAt:     time.Now().UTC(),
		Quality:       quality,
	}

	modelFile, metaFile := versionFiles(version)
	if err := audit.Save(filepath.Join(dir, modelFile), m); err != nil {
		return Meta{}, fmt.Errorf("registry: writing model: %w", err)
	}
	if err := writeMeta(filepath.Join(dir, metaFile), meta); err != nil {
		os.Remove(filepath.Join(dir, modelFile)) // roll back the orphan
		return Meta{}, fmt.Errorf("registry: committing meta: %w", err)
	}
	gcAborted(dir, version)
	fi := statSidecar(dir, version)

	r.mu.Lock()
	r.latest[name] = version
	r.cachePutLocked(cacheKey{name, version}, m, meta, fi)
	r.mu.Unlock()
	return meta, nil
}

// writeMeta commits a meta sidecar as indented JSON via atomicfile.Write.
func writeMeta(path string, meta Meta) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	})
}

// gcAborted removes .model files (below the just-committed version) that
// never got their meta sidecar — leftovers of crashed publishes.
func gcAborted(dir string, committed int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		v, ok := parseVersionName(e.Name(), ".model")
		if !ok || v >= committed {
			continue
		}
		_, meta := versionFiles(v)
		if _, err := os.Stat(filepath.Join(dir, meta)); os.IsNotExist(err) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Get returns the latest committed version of the named model, loading it
// from disk on a cache miss.
func (r *Registry) Get(name string) (*audit.Model, Meta, error) {
	return r.GetVersion(name, 0)
}

// GetVersion returns a specific version (0 selects the latest). The disk
// load of a cache miss happens outside the registry lock, so one cold
// load never stalls cache hits for other models. A cache hit costs the
// Stat of the version's sidecar (which resolving "latest" makes anyway):
// an entry whose sidecar is gone or is another file is dropped and the
// version loaded again.
func (r *Registry) GetVersion(name string, version int) (*audit.Model, Meta, error) {
	if !ValidName(name) {
		return nil, Meta{}, fmt.Errorf("registry: invalid model name %q", name)
	}
	dir := r.modelDir(name)

	// Resolving "latest" takes no disk lock: committed sidecars are
	// immutable and a mid-publish version is invisible until its sidecar
	// lands.
	fi, version, err := r.resolve(name, version)
	if err != nil {
		return nil, Meta{}, err
	}
	key := cacheKey{name, version}
	r.mu.Lock()
	if e := r.validLocked(key, fi); e != nil {
		r.clock++
		e.used = r.clock
		m, meta := e.model, e.meta
		r.mu.Unlock()
		r.hits.Add(1)
		return m, meta, nil
	}
	genAtMiss := r.gen
	r.mu.Unlock()
	r.misses.Add(1)

	meta, err := r.readMeta(name, version)
	if err != nil {
		return nil, Meta{}, err
	}
	modelFile, _ := versionFiles(version)
	m, err := audit.Load(filepath.Join(dir, modelFile))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("registry: loading %s v%d: %w", name, version, err)
	}

	r.mu.Lock()
	// A concurrent miss may have loaded the same version; keep the first
	// entry so every caller shares one resident copy.
	if e := r.validLocked(key, fi); e != nil {
		r.clock++
		e.used = r.clock
		m, meta = e.model, e.meta
	} else if r.gen == genAtMiss {
		// Cache only when no Delete ran during the lock-free disk load:
		// a model read concurrently with its deletion may be returned
		// (it was committed when the read began) but must not be
		// re-inserted, or the stale entry would stay resident. The
		// sidecar was Stat'ed before the read, so an entry loaded from a
		// newer publish than its file names is reloaded on its next hit,
		// never served stale.
		r.cachePutLocked(key, m, meta, fi)
	}
	r.mu.Unlock()
	return m, meta, nil
}

// resolve Stats the sidecar of the named version, resolving version 0
// to the latest. The sidecar is nil when the version is not committed.
func (r *Registry) resolve(name string, version int) (os.FileInfo, int, error) {
	if version != 0 {
		return statSidecar(r.modelDir(name), version), version, nil
	}
	latest, fi, err := r.latestVersion(name)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: %w", err)
	}
	if latest == 0 {
		return nil, 0, &NotFoundError{Name: name}
	}
	return fi, latest, nil
}

// validLocked returns the resident entry for key if it was loaded under
// the sidecar fi, and drops an entry loaded under another (or a missing)
// sidecar; r.mu must be held.
func (r *Registry) validLocked(key cacheKey, fi os.FileInfo) *cacheEntry {
	e, ok := r.cache[key]
	if !ok {
		return nil
	}
	if !sameSidecar(e.file, fi) {
		delete(r.cache, key)
		return nil
	}
	return e
}

// cachedMeta returns the resident meta of a version whose sidecar is
// still fi, without touching the LRU order or the hit counters.
func (r *Registry) cachedMeta(name string, version int, fi os.FileInfo) (Meta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.validLocked(cacheKey{name, version}, fi); e != nil {
		return e.meta, true
	}
	return Meta{}, false
}

// MetaOf returns the latest committed metadata of the named model without
// loading (or caching) the model itself. A resident entry answers it under
// GetVersion's rule: only while its sidecar is still the file on disk.
func (r *Registry) MetaOf(name string) (Meta, error) {
	if !ValidName(name) {
		return Meta{}, fmt.Errorf("registry: invalid model name %q", name)
	}
	return r.metaOfVersion(name, 0)
}

// metaOfVersion answers MetaOf and MetaOfVersion: from a resident entry
// loaded under the version's current sidecar, else from the sidecar.
func (r *Registry) metaOfVersion(name string, version int) (Meta, error) {
	fi, version, err := r.resolve(name, version)
	if err != nil {
		return Meta{}, err
	}
	if meta, ok := r.cachedMeta(name, version, fi); ok {
		return meta, nil
	}
	return r.readMeta(name, version)
}

// MetaOfVersion returns the committed metadata of one specific version
// without loading (or caching) the model itself, under MetaOf's rule.
// Like MetaOf it takes no disk lock: committed sidecars are immutable.
// Callers use it to validate that a (version, createdAt) pair they
// tracked across a process boundary still names a live publish — a
// deleted or recreated model fails the CreatedAt comparison even when
// the version number exists again.
func (r *Registry) MetaOfVersion(name string, version int) (Meta, error) {
	if !ValidName(name) {
		return Meta{}, fmt.Errorf("registry: invalid model name %q", name)
	}
	if version < 1 {
		return Meta{}, fmt.Errorf("registry: invalid version %d", version)
	}
	return r.metaOfVersion(name, version)
}

// readMeta reads one version's meta sidecar (no locking needed: the
// sidecar is immutable once renamed into place).
func (r *Registry) readMeta(name string, version int) (Meta, error) {
	_, metaFile := versionFiles(version)
	metaBytes, err := os.ReadFile(filepath.Join(r.modelDir(name), metaFile))
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, &NotFoundError{Name: name, Version: version}
		}
		return Meta{}, fmt.Errorf("registry: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return Meta{}, fmt.Errorf("registry: corrupt meta for %s v%d: %w", name, version, err)
	}
	return meta, nil
}

// List returns the latest committed metadata of every model, sorted by
// name. Like MetaOf it takes no lock: it reads only immutable committed
// sidecars.
func (r *Registry) List() ([]Meta, error) {
	ents, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []Meta
	for _, e := range ents {
		if !e.IsDir() || !ValidName(e.Name()) {
			continue
		}
		dir := r.modelDir(e.Name())
		versions, err := committedVersions(dir)
		if err != nil || len(versions) == 0 {
			continue
		}
		_, metaFile := versionFiles(versions[len(versions)-1])
		b, err := os.ReadFile(filepath.Join(dir, metaFile))
		if err != nil {
			continue
		}
		var meta Meta
		if json.Unmarshal(b, &meta) == nil {
			out = append(out, meta)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Delete removes the named model — every version — from disk and cache.
func (r *Registry) Delete(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("registry: invalid model name %q", name)
	}
	// A writer: must not interleave with a publish into the same
	// directory (pubMu), and must purge the cache atomically (mu).
	r.pubMu.Lock()
	defer r.pubMu.Unlock()

	dir := r.modelDir(name)
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return &NotFoundError{Name: name}
	}
	err := os.RemoveAll(dir)
	// Purge and bump gen only after the files are gone: a lock-free load
	// that started before the removal recorded the old gen and will skip
	// its cache insert; one that starts after the purge finds nothing on
	// disk. Purging first would leave a window to re-cache the dead
	// model from still-present files.
	r.mu.Lock()
	r.gen++
	delete(r.latest, name)
	for key := range r.cache {
		if key.name == name {
			delete(r.cache, key)
		}
	}
	r.mu.Unlock()
	return err
}

// NotFoundError reports a missing model (or model version).
type NotFoundError struct {
	Name    string
	Version int
}

func (e *NotFoundError) Error() string {
	if e.Version > 0 {
		return fmt.Sprintf("registry: model %q version %d not found", e.Name, e.Version)
	}
	return fmt.Sprintf("registry: model %q not found", e.Name)
}

// IsNotFound reports whether err is a registry NotFoundError.
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// cachePutLocked inserts a version loaded or committed under the sidecar
// fi into the LRU cache, and nothing when fi is nil (the sidecar was gone
// when Stat'ed); r.mu must be held.
func (r *Registry) cachePutLocked(key cacheKey, m *audit.Model, meta Meta, fi os.FileInfo) {
	if fi == nil {
		return
	}
	r.clock++
	r.cache[key] = &cacheEntry{model: m, meta: meta, file: fi, used: r.clock}
	for len(r.cache) > r.max {
		oldestKey, oldest := cacheKey{}, int64(1<<62)
		for k, e := range r.cache {
			if e.used < oldest {
				oldestKey, oldest = k, e.used
			}
		}
		delete(r.cache, oldestKey)
		r.evictions.Add(1)
	}
}
