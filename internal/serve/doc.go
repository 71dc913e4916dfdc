// Package serve exposes the audit tool as a long-running JSON-over-HTTP
// service — the deployment shape the paper sketches in §2.2: "While the
// time-consuming structure induction can be prepared off-line, new data
// can be checked for deviations and loaded quickly". Models live in an
// internal/registry catalogue shared by every request, so a model is
// loaded (and its classifiers deserialized) once and then scored
// concurrently by any number of audit requests.
//
// # API surface
//
// All bodies JSON unless noted; docs/api.md documents every route field
// by field:
//
//	GET    /healthz                         liveness + model count
//	GET    /v1/models                       list published models
//	POST   /v1/models                       induce + publish (JSON or multipart)
//	GET    /v1/models/{name}                latest metadata
//	DELETE /v1/models/{name}                drop a model
//	POST   /v1/models/{name}/audit          score a batch (JSON rows or text/csv)
//	POST   /v1/models/{name}/audit/stream   bounded-memory scoring (text/csv in, NDJSON out)
//
// # Two scoring endpoints
//
// Both run the same scoring pipeline (internal/audit); they differ in
// what feeds it and what it keeps.
//
// The buffered endpoint parses the whole batch into a dataset.Table and
// fans it out over the parallel table scorer (audit.AuditTableParallel);
// it is capped by WithMaxBodyBytes and WithMaxBatchRows and answers with
// one ranked JSON document.
//
// The streaming endpoint decodes the CSV upload incrementally
// (dataset.CSVSource), scores it chunk by chunk (audit.AuditStream) and
// writes suspicious records back as NDJSON lines while the upload is
// still being read (full-duplex HTTP). Server memory stays
// O(chunk × workers + top-K) regardless of upload size, so it is exempt
// from the body byte cap; WithMaxBatchRows still bounds the row count,
// and a request tunes its chunk size (default 1024) and ranking depth
// (default 1000) with ?chunk= and ?top=. Failures before
// the first row are ordinary 4xx JSON responses; once the 200 stream has
// begun, failures arrive as a terminal {"error": ...} line.
//
// # Error envelope
//
// Every non-2xx response body is ErrorResponse: {"error": "<message>"}.
// Malformed rows — wrong arity anywhere, CSV or JSON — carry the typed
// dataset.ErrRowWidth rendering ("row at line N has X values, schema has
// Y attributes").
package serve
