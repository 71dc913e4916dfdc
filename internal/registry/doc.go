// Package registry is a thread-safe, disk-backed catalogue of named audit
// models. It operationalizes the paper's asynchronous auditing workflow
// (§2.2): structure models are induced once — possibly in another process
// or on another machine — published under a stable name with a monotonic
// version, and later loaded by scoring services to check incoming data.
//
// # Layout on disk
//
// One directory per model name:
//
//	<root>/<name>/v000042.model   gob-encoded audit.Model (via audit.Save)
//	<root>/<name>/v000042.json    Meta sidecar — the commit record
//
// # Atomicity and crash safety
//
// Publishing is atomic: both files are written to temporaries in the
// target directory and moved into place with os.Rename, model first, meta
// second. The meta sidecar is the commit point — a version without its
// .json is an aborted publish and is ignored (and garbage-collected on
// the next publish). Concurrent readers either see the previous latest
// version or the new one, never a torn state.
//
// # Latest version
//
// Get and MetaOf resolve "latest" without reading the directory. A
// Registry remembers, per name, the highest committed version v it has
// seen; versions are committed highest-plus-one, so a later publish by any
// process shows as v+1's sidecar, and a lookup steps while the next one
// exists. Only when v's own sidecar is gone (the model was deleted) does
// it scan the directory. A lookup thus costs two os.Stat calls however
// many versions are kept.
//
// # Caching
//
// Loads are lazy and cached with LRU eviction (WithCacheSize, default 8
// resident models), so a serving process keeps its hot models resident
// while rarely-used ones are re-read from disk on demand. The disk load
// of a cache miss happens outside the registry lock: one cold load never
// stalls cache hits for other models, and when two goroutines miss on the
// same version the first inserted copy wins so every caller shares one
// resident model. A resident model is served only while its version's
// sidecar is still the file it was loaded under (os.SameFile): a model
// another process deleted and published again under the same version
// number is loaded afresh, never answered from the cache.
//
// # Drift detection
//
// Meta.SchemaHash (see SchemaHash) fingerprints the model's relation
// schema, letting clients detect drift between the data they score and
// the data the model was trained on without loading the model.
//
// Missing models surface as *NotFoundError; test with IsNotFound.
package registry
