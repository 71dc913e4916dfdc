// Package dataaudit is a Go implementation of the data-auditing
// environment from
//
//	D. Lübbers, U. Grimmer, M. Jarke:
//	"Systematic Development of Data Mining-Based Data Quality Tools",
//	Proceedings of the 29th VLDB Conference, Berlin, 2003.
//
// It bundles the paper's three building blocks behind one import path:
//
//   - a rule-pattern-based artificial test data generator (§4.1) with
//     TDG-formulae, TDG-negation, a pragmatic satisfiability test, natural
//     rule sets and Bayesian-network start distributions,
//   - controlled data corruption with a logged ground truth (§4.2) and the
//     sensitivity / specificity / quality-of-correction measures (§4.3),
//   - the data auditing tool itself (§5): the multiple classification /
//     regression approach on an audit-adjusted C4.5, error confidences
//     (Definitions 7–9), ranked deviation reports and proposed
//     corrections.
//
// Beyond the reproduction, the package carries a serving layer for the
// paper's asynchronous deployment shape (§2.2):
//
//   - AuditModel.AuditTable, AuditTableParallel and AuditStream are thin
//     wrappers over one scoring pipeline (a feed of row blocks, a worker
//     pool, an in-order fold into a sink), so their outputs agree by
//     construction: AuditTableParallel spreads a table over a worker
//     pool with output identical to AuditTable,
//   - AuditModel.AuditStream scores rows pulled from a RowSource (e.g. a
//     streaming CSV decoder) in bounded chunks, so peak memory is
//     independent of the input size while the suspicious set and its
//     confidence ranking stay identical to the batch path,
//   - ModelRegistry (OpenRegistry) is a thread-safe, disk-backed catalogue
//     of named models with monotonic versions, atomic publish and an LRU
//     cache of resident models,
//   - NewAuditServer exposes induction, batch scoring and NDJSON
//     streaming scoring as a JSON HTTP API; cmd/auditd is the
//     ready-to-run daemon,
//   - QualityMonitor turns one-shot auditing into a continuous loop: a
//     QualityProfile baseline is frozen at induction, every scored batch
//     and stream folds into windowed quality snapshots, drift detection
//     (threshold + Page-Hinkley) watches them, and drift can trigger
//     automatic re-induction of the next model version from a reservoir
//     of recently audited rows.
//
// See ARCHITECTURE.md for the package map and data-flow diagrams, and
// docs/api.md for the complete HTTP API reference.
//
// The subpackages under internal/ carry the implementation; this package
// re-exports the stable surface. See the package examples (Example_quickstart
// runs the complete loop) and cmd/experiments for the reproduction of every
// table and figure of the paper's evaluation.
package dataaudit

import (
	"math/rand"

	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/dedup"
	"dataaudit/internal/evalx"
	"dataaudit/internal/monitor"
	"dataaudit/internal/obs"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
	"dataaudit/internal/registry"
	"dataaudit/internal/serve"
	"dataaudit/internal/stats"
	"dataaudit/internal/tdg"
)

// ---------------------------------------------------------------------------
// Relational substrate (internal/dataset)

// Value is one table cell: null, nominal (domain index) or number.
type Value = dataset.Value

// Attribute describes a column: name, type and domain range.
type Attribute = dataset.Attribute

// Schema is the ordered attribute list of the target relation.
type Schema = dataset.Schema

// Table is a column-oriented relation instance with stable record IDs.
type Table = dataset.Table

// RowSource is a pull iterator over rows — the streaming counterpart of a
// materialized Table. Every source fills typed column chunks through
// NextChunk; there is no row-at-a-time read. CSVSource decodes CSV
// incrementally; JSONLSource decodes newline-delimited JSON objects keyed
// by attribute name; TableSource adapts an existing table. Differential
// tests pin every source to byte-identical audit results for the same
// rows.
type (
	RowSource   = dataset.RowSource
	CSVSource   = dataset.CSVSource
	JSONLSource = dataset.JSONLSource
	TableSource = dataset.TableSource
)

// ErrRowWidth is the sentinel every row-arity failure wraps (CSV decode,
// JSON rows, Schema.CheckRow, AuditResult.Merge); test with errors.Is.
var ErrRowWidth = dataset.ErrRowWidth

// ErrHeader is the sentinel every CSV-header failure wraps: an upload
// whose header has the schema's arity but the wrong column names or
// order. HeaderMismatchError carries the offending columns. Test with
// errors.Is.
var ErrHeader = dataset.ErrHeader

// HeaderMismatchError names every header column that disagrees with the
// schema; it wraps ErrHeader.
type HeaderMismatchError = dataset.HeaderMismatchError

// Re-exported constructors and helpers of the relational substrate.
var (
	// NewCSVSource / NewJSONLSource / NewTableSource and the Open*
	// helpers build streaming row sources; ReadAllRows drains any source
	// into a Table.
	NewCSVSource        = dataset.NewCSVSource
	NewJSONLSource      = dataset.NewJSONLSource
	NewTableSource      = dataset.NewTableSource
	OpenCSVFileSource   = dataset.OpenCSVFileSource
	OpenJSONLFileSource = dataset.OpenJSONLFileSource
	ReadAllRows         = dataset.ReadAll
	// Null returns the null value.
	Null = dataset.Null
	// Nom builds a nominal value from a domain index.
	Nom = dataset.Nom
	// Num builds a numeric/date value.
	Num = dataset.Num
	// DateValue builds a date value from a time.Time.
	DateValue = dataset.DateValue
	// NewNominal / NewNumeric / NewDate build attributes.
	NewNominal = dataset.NewNominal
	NewNumeric = dataset.NewNumeric
	NewDate    = dataset.NewDate
	// NewSchema builds and validates a schema; MustSchema panics on error.
	NewSchema  = dataset.NewSchema
	MustSchema = dataset.MustSchema
	// NewTable creates an empty table over a schema.
	NewTable = dataset.NewTable
	// CSV, JSONL and binary (chunk stream) persistence.
	ReadCSV        = dataset.ReadCSV
	WriteCSV       = dataset.WriteCSV
	WriteJSONL     = dataset.WriteJSONL
	ReadCSVFile    = dataset.ReadCSVFile
	WriteCSVFile   = dataset.WriteCSVFile
	ReadTableFile  = dataset.ReadTableFile
	WriteTableFile = dataset.WriteTableFile
	// MustParseDate parses an ISO date or panics (tests/examples).
	MustParseDate = dataset.MustParseDate
)

// ---------------------------------------------------------------------------
// Test data generator (internal/tdg)

// Formula is a TDG-formula (Definitions 1–2); Rule a TDG-rule (Definition 3).
type (
	Formula = tdg.Formula
	Atom    = tdg.Atom
	And     = tdg.And
	Or      = tdg.Or
	Rule    = tdg.Rule
)

// Atom kinds (Definition 1).
const (
	EqConst   = tdg.EqConst
	NeqConst  = tdg.NeqConst
	LtConst   = tdg.LtConst
	GtConst   = tdg.GtConst
	IsNull    = tdg.IsNull
	IsNotNull = tdg.IsNotNull
	EqAttr    = tdg.EqAttr
	NeqAttr   = tdg.NeqAttr
	LtAttr    = tdg.LtAttr
	GtAttr    = tdg.GtAttr
)

// RuleGenParams parameterize random natural-rule-set generation (§4.1.2);
// DataGenParams and StartDists parameterize record generation (§4.1.4).
type (
	RuleGenParams = tdg.RuleGenParams
	DataGenParams = tdg.DataGenParams
	StartDists    = tdg.StartDists
)

// Generator functions and the logic toolbox of §4.1.
var (
	// Negate computes the TDG-negation of Table 1.
	Negate = tdg.Negate
	// Satisfiable runs the pragmatic satisfiability test of §4.1.3.
	Satisfiable = tdg.Satisfiable
	// Implies tests α ⇒ β via unsatisfiability of α ∧ ~β.
	Implies = tdg.Implies
	// NaturalFormula / NaturalRule / NaturalRuleSet check Definitions 4–6.
	NaturalFormula = tdg.NaturalFormula
	NaturalRule    = tdg.NaturalRule
	NaturalRuleSet = tdg.NaturalRuleSet
	// GenerateRuleSet draws a random natural rule set.
	GenerateRuleSet = tdg.GenerateRuleSet
	// GenerateData creates records that follow a rule set.
	GenerateData = tdg.Generate
)

// ---------------------------------------------------------------------------
// Controlled data corruption (internal/pollute)

// Polluters of §4.2 and their configuration.
type (
	PollutionPlan      = pollute.Plan
	ConfiguredPolluter = pollute.Configured
	PollutionLog       = pollute.Log
	PollutionEvent     = pollute.Event
	WrongValuePolluter = pollute.WrongValuePolluter
	NullValuePolluter  = pollute.NullValuePolluter
	Limiter            = pollute.Limiter
	Switcher           = pollute.Switcher
)

// Pollute corrupts a clone of the table according to the plan and returns
// the dirty table plus the complete corruption log (the ground truth).
func Pollute(clean *Table, plan PollutionPlan, rng *rand.Rand) (*Table, *PollutionLog) {
	return pollute.Run(clean, plan, rng)
}

// ---------------------------------------------------------------------------
// The data auditing tool (internal/audit)

// AuditOptions configure structure induction and deviation detection (§5);
// AuditModel is the induced structure model; Finding / RecordReport /
// AuditResult describe detected deviations.
type (
	AuditOptions = audit.Options
	AuditModel   = audit.Model
	Finding      = audit.Finding
	RecordReport = audit.RecordReport
	AuditResult  = audit.Result
	InducerKind  = audit.InducerKind
	FilterMode   = audittree.FilterMode
	// RootCause is a §5.3 single-cell substitution hypothesis produced by
	// AuditModel.ExplainRow for interactive error correction.
	RootCause = audit.RootCause
	// StreamOptions / StreamResult / AttrTally belong to
	// AuditModel.AuditStream, the bounded-memory scoring path: rows are
	// pulled from a RowSource in chunks and folded into running counts,
	// per-attribute deviation tallies and a top-K ranking, so peak memory
	// is O(chunk × workers + K) however large the input.
	StreamOptions = audit.StreamOptions
	StreamResult  = audit.StreamResult
	AttrTally     = audit.AttrTally
	// QualityProfile / AttrQuality freeze a model's quality baseline on
	// its training table (AuditModel.QualityProfile) — the reference the
	// monitoring layer measures drift against.
	QualityProfile = audit.QualityProfile
	AttrQuality    = audit.AttrQuality
	// AttrDim is one attribute's quality dimensions over a scored batch
	// or stream (completeness and uniqueness): null counts/rate and a
	// distinct-value estimate, built from pure set-union/sum accumulators
	// so per-shard folds are byte-identical under any row partition.
	// AuditResult.Dims and StreamResult.Dims carry one per attribute.
	AttrDim = audit.AttrDim
	// ScoreScratch is the per-goroutine reusable buffer set of the
	// zero-allocation scoring core: thread one through
	// AuditModel.CheckRowScratch for steady-state record checking without
	// heap allocations (reports must be Detach-ed before being retained).
	ScoreScratch = audit.ScoreScratch
)

// ErrRowLimit is the sentinel wrapped when a stream exceeds
// StreamOptions.MaxRows; test with errors.Is.
var ErrRowLimit = audit.ErrRowLimit

// Induction algorithm selection (Fig. 1, step 2).
const (
	InducerC45Audit   = audit.InducerC45Audit
	InducerC45        = audit.InducerC45
	InducerID3        = audit.InducerID3
	InducerNaiveBayes = audit.InducerNaiveBayes
	InducerKNN        = audit.InducerKNN
	InducerOneR       = audit.InducerOneR
	InducerPrism      = audit.InducerPrism

	// Rule-filtering modes (§5.4).
	FilterPaper         = audittree.FilterPaper
	FilterReachableOnly = audittree.FilterReachableOnly
	FilterNone          = audittree.FilterNone
)

// Audit tool entry points.
var (
	// Induce builds the structure model for a table.
	Induce = audit.Induce
	// SaveModel / LoadModel persist models for asynchronous auditing
	// (§2.2); SaveModel is crash-safe (temp file + rename).
	SaveModel = audit.Save
	LoadModel = audit.Load
	// NewScoreScratch sizes a ScoreScratch for a model's class domains.
	NewScoreScratch = audit.NewScoreScratch
)

// ---------------------------------------------------------------------------
// Duplicate detection (internal/dedup)

// DedupOptions configure duplicate detection: an optional blocking key
// (discovered via Apriori key discovery when unset), the near-duplicate
// similarity threshold, and the per-block pair-comparison cap.
// DedupResult describes the scan — group counts, duplicate rows/rate and
// every group; DuplicateGroup is one cluster of exact or near duplicates.
type (
	DedupOptions   = dedup.Options
	DedupResult    = dedup.Result
	DuplicateGroup = dedup.Group
	DedupDetector  = dedup.Detector
)

var (
	// DetectDuplicates scans a materialized table for exact and near
	// duplicates; DetectDuplicatesSource drains a RowSource first (the
	// detector needs every record). NewDedupDetector is the incremental
	// chunk-at-a-time core both wrap.
	DetectDuplicates       = dedup.Detect
	DetectDuplicatesSource = dedup.DetectSource
	NewDedupDetector       = dedup.NewDetector
)

// ---------------------------------------------------------------------------
// Model registry and serving layer (internal/registry, internal/serve)

// ModelRegistry is a thread-safe, disk-backed catalogue of named structure
// models with monotonic versions and atomic publish; ModelMeta describes
// one published version. AuditServer serves registry models over a JSON
// HTTP API (see cmd/auditd).
type (
	ModelRegistry = registry.Registry
	ModelMeta     = registry.Meta
	AuditServer   = serve.Server
)

var (
	// OpenRegistry opens (creating if needed) a registry directory;
	// RegistryCacheSize caps the resident-model LRU cache.
	OpenRegistry      = registry.Open
	RegistryCacheSize = registry.WithCacheSize
	// IsNotFound reports whether an error is a registry miss.
	IsNotFound = registry.IsNotFound
	// SchemaHash fingerprints a schema for drift detection.
	SchemaHash = registry.SchemaHash
	// NewAuditServer builds the HTTP service over a registry; the With*
	// options tune limits and the scoring pool.
	NewAuditServer     = serve.New
	ServerWorkers      = serve.WithWorkers
	ServerMaxBodyBytes = serve.WithMaxBodyBytes
	ServerMaxBatchRows = serve.WithMaxBatchRows
	ServerLogger       = serve.WithLogger
	// ServerMonitorOptions configures the quality monitor the audit routes
	// feed (window size, drift thresholds, opt-in auto re-induction).
	ServerMonitorOptions = serve.WithMonitorOptions
	// ServerMetrics / ServerDashboard toggle the observability routes
	// (GET /metrics, GET /dashboard) and the per-route instrumentation;
	// both default on.
	ServerMetrics   = serve.WithMetrics
	ServerDashboard = serve.WithDashboard
)

// ---------------------------------------------------------------------------
// Continuous quality monitoring (internal/monitor)

// QualityMonitor folds every scored batch and stream into time-windowed
// per-model snapshots, runs drift detection (baseline threshold plus a
// Page-Hinkley cumulative test) against the model's QualityProfile, and —
// when auto re-induction is enabled — re-induces the model from a
// reservoir of recently audited rows in a background worker (audits of
// the drifting model are never blocked) and publishes the next version
// through the registry's atomic path. With MonitorOptions.StateDir set
// the whole lifecycle state is crash-durable: it persists atomically
// after sealed windows, at most once a second per model (a crash loses at
// most the last second's windows), and on Close, which loses nothing; it
// is recovered — guarded against deleted/recreated incarnations — at the
// next boot. GET
// /v1/models/{name}/quality serves its state.
type (
	QualityMonitor  = monitor.Monitor
	MonitorOptions  = monitor.Options
	MonitorState    = monitor.State
	MonitorSnapshot = monitor.Snapshot
	MonitorEvent    = monitor.Event
	DriftState      = monitor.DriftState
)

// Lifecycle event kinds of the monitoring loop.
const (
	EventBaselineAdopted    = monitor.EventBaselineAdopted
	EventDrift              = monitor.EventDrift
	EventReinduced          = monitor.EventReinduced
	EventReinduceSkipped    = monitor.EventReinduceSkipped
	EventReinduceFailed     = monitor.EventReinduceFailed
	EventReinduceSuperseded = monitor.EventReinduceSuperseded

	// MonitorStateDisabled is the MonitorOptions.StateDir sentinel that
	// turns crash-durable persistence off explicitly in contexts (like
	// the serving layer) that otherwise default it on.
	MonitorStateDisabled = monitor.StateDisabled
)

// NewQualityMonitor builds a monitor over a registry; embedders that do
// not run the HTTP layer can feed it via ObserveBatch and Stream, and
// should Close it on shutdown to persist final state. MonitorStateFile
// locates one model's persisted state inside a state directory.
var (
	NewQualityMonitor = monitor.New
	MonitorStateFile  = monitor.StateFile
)

// ---------------------------------------------------------------------------
// Observability (internal/obs)

// MetricsRegistry is a dependency-free Prometheus text-exposition
// registry (counters, gauges, histograms; atomic hot paths, sorted
// deterministic WritePrometheus output). AuditMetrics is the
// scoring/lifecycle metric set the quality monitor feeds
// (MonitorOptions.Metrics); HTTPMetrics wraps http handlers with
// per-route request/latency series. HistSnapshot is a point-in-time
// histogram copy: count, sum and cumulative buckets.
type (
	MetricsRegistry = obs.Registry
	AuditMetrics    = obs.AuditMetrics
	HTTPMetrics     = obs.HTTPMetrics
	HistSnapshot    = obs.HistSnapshot
)

var (
	NewMetricsRegistry = obs.NewRegistry
	NewAuditMetrics    = obs.NewAuditMetrics
	NewHTTPMetrics     = obs.NewHTTPMetrics
	// ValidateExposition checks a Prometheus text exposition for
	// HELP/TYPE ordering, label escaping, histogram shape and sorted
	// series — the oracle behind the /metrics format tests and
	// cmd/promcheck.
	ValidateExposition = obs.ValidateExposition
)

// ---------------------------------------------------------------------------
// Test environment and measures (internal/evalx)

// The §4.3 measures and the Figure-2 pipeline.
type (
	Confusion        = evalx.Confusion
	CorrectionMatrix = evalx.CorrectionMatrix
	PipelineConfig   = evalx.Config
	PipelineResult   = evalx.Result
	SweepPoint       = evalx.Point
)

// Test-environment entry points.
var (
	// RunPipeline executes generate → pollute → audit → evaluate.
	RunPipeline = evalx.Run
	// BaseConfig returns the §6.1 base parameter configuration.
	BaseConfig = evalx.BaseConfig
	// Sweeps reproducing Figures 3–5.
	RecordsSweep   = evalx.RecordsSweep
	RulesSweep     = evalx.RulesSweep
	PollutionSweep = evalx.PollutionSweep
	// EvaluateDedup scores a duplicate scan against the pollution log's
	// duplication ground truth; DedupSweep / CompletenessSweep are the
	// sensitivity/specificity sweeps of the duplicate and completeness
	// dimensions (cmd/experiments E9/E10), floor-gated in CI.
	EvaluateDedup     = evalx.EvaluateDedup
	DedupSweep        = evalx.DedupSweep
	CompletenessSweep = evalx.CompletenessSweep
	// RenderPoints / FormatTable and friends format experiment reports.
	RenderPoints             = evalx.RenderPoints
	RenderDedupPoints        = evalx.RenderDedupPoints
	RenderCompletenessPoints = evalx.RenderCompletenessPoints
	FormatTable              = evalx.FormatTable
)

// ---------------------------------------------------------------------------
// Statistics helpers (internal/stats)

var (
	// LeftBound / RightBound are the one-sided Wilson confidence-interval
	// bounds of §5.1.2.
	LeftBound  = stats.LeftBound
	RightBound = stats.RightBound
	// ErrorConfidence is Definition 7.
	ErrorConfidence = stats.ErrorConfidence
	// MinInstForConfidence derives the §5.4 minInst pre-pruning threshold.
	MinInstForConfidence = stats.MinInstForConfidence
)

// ---------------------------------------------------------------------------
// QUIS domain simulation (internal/quis)

// QUISParams configure the synthetic §6.2 engine-composition sample;
// QUISTable is the generated sample with its ground truth.
type (
	QUISParams = quis.Params
	QUISTable  = quis.Table
)

// QUISSchema builds the 8-attribute engine relation; GenerateQUIS the
// synthetic sample reproducing the paper's §6.2 structure.
var (
	QUISSchema   = quis.Schema
	GenerateQUIS = quis.Generate
)
