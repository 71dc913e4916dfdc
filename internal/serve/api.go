package serve

import (
	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/dedup"
	"dataaudit/internal/registry"
)

// JSON wire types of the auditd API. Cell values travel as strings in the
// attribute's canonical text rendering (the same format the CSV layer
// uses: nulls as "?", dates as ISO 2006-01-02) so that clients never deal
// with the internal domain-index encoding.

// OptionsJSON is the client-facing subset of audit.Options.
type OptionsJSON struct {
	MinConfidence float64             `json:"minConfidence,omitempty"`
	ConfLevel     float64             `json:"confLevel,omitempty"`
	Bins          int                 `json:"bins,omitempty"`
	Inducer       string              `json:"inducer,omitempty"`
	KNNk          int                 `json:"knnK,omitempty"`
	SkipClasses   []string            `json:"skipClasses,omitempty"`
	BaseAttrs     map[string][]string `json:"baseAttrs,omitempty"`
	// Filter is the §5.4 rule-deletion mode: "paper" (default),
	// "reachable-only" or "none".
	Filter string `json:"filter,omitempty"`
}

// ToOptions converts the wire form into audit.Options.
func (o OptionsJSON) ToOptions() (audit.Options, error) {
	opts := audit.Options{
		MinConfidence: o.MinConfidence,
		ConfLevel:     o.ConfLevel,
		Bins:          o.Bins,
		Inducer:       audit.InducerKind(o.Inducer),
		KNNk:          o.KNNk,
		SkipClasses:   o.SkipClasses,
		BaseAttrs:     o.BaseAttrs,
	}
	var err error
	opts.Filter, err = audittree.ParseFilterMode(o.Filter)
	return opts, err
}

// InduceRequest is the JSON body of POST /v1/models (the multipart form
// carries the same fields as parts).
type InduceRequest struct {
	// Name is the registry key to publish under.
	Name string `json:"name"`
	// Schema is the relation schema in the text format of
	// dataset.ParseSchema ("BRV nominal 404,501\nKM numeric 0 200000\n...").
	Schema string `json:"schema"`
	// CSV is the training sample with a header row of attribute names.
	// Exactly one of CSV and JSONL must be set.
	CSV string `json:"csv,omitempty"`
	// JSONL is the training sample as newline-delimited JSON objects,
	// fields keyed by attribute name (dataset.JSONLSource).
	JSONL string `json:"jsonl,omitempty"`
	// Options configure structure induction.
	Options OptionsJSON `json:"options"`
}

// AuditRequest is the JSON body of POST /v1/models/{name}/audit. Exactly
// one of Row and Rows must be set; CSV bodies bypass this type entirely.
type AuditRequest struct {
	// Row is a single record, one rendered value per schema attribute.
	Row []string `json:"row,omitempty"`
	// Rows is a batch of records.
	Rows [][]string `json:"rows,omitempty"`
}

// FindingJSON is one attribute-level deviation with its proposed
// correction.
type FindingJSON struct {
	// Attr is the audited attribute's name.
	Attr string `json:"attr"`
	// Observed and Predicted are class labels (bin labels for discretized
	// numeric attributes); Observed is "?" for null.
	Observed  string `json:"observed"`
	Predicted string `json:"predicted"`
	// PHat / PObs are P(ĉ) and P(c); N the supporting sample size.
	PHat float64 `json:"pHat"`
	PObs float64 `json:"pObs"`
	N    float64 `json:"n"`
	// ErrorConf is Definition 7.
	ErrorConf float64 `json:"errorConf"`
	// Suggestion is the proposed correction (§5.3) in the attribute's text
	// rendering.
	Suggestion string `json:"suggestion"`
}

// ReportJSON is one record's audit outcome.
type ReportJSON struct {
	// Row is the record's position in the submitted batch; ID its record ID.
	Row int   `json:"row"`
	ID  int64 `json:"id"`
	// ErrorConf is the overall error confidence (Definition 8).
	ErrorConf  float64 `json:"errorConf"`
	Suspicious bool    `json:"suspicious"`
	// Best is the finding the overall confidence stems from.
	Best *FindingJSON `json:"best,omitempty"`
	// Findings lists every deviation with positive error confidence.
	Findings []FindingJSON `json:"findings,omitempty"`
	// Description renders the best finding like the paper's §6.2 examples.
	Description string `json:"description,omitempty"`
}

// AuditResponse is the body of POST /v1/models/{name}/audit.
type AuditResponse struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	// RowsChecked / NumSuspicious summarize the batch.
	RowsChecked   int `json:"rowsChecked"`
	NumSuspicious int `json:"numSuspicious"`
	// CheckMillis is the scoring wall time; Workers the pool size used.
	CheckMillis int64 `json:"checkMillis"`
	Workers     int   `json:"workers"`
	// Reports holds the suspicious records ranked by descending error
	// confidence — "ranked according to their associated error confidence"
	// (§6.2) — or every record when the request asked for all=1.
	Reports []ReportJSON `json:"reports"`
	// AttrDims lists the batch's per-attribute quality dimensions
	// (completeness and uniqueness), schema order.
	AttrDims []AttrDimJSON `json:"attrDims,omitempty"`
	// Duplicates is the duplicate scan of the batch, present when the
	// request asked for dedup=1.
	Duplicates *DuplicatesJSON `json:"duplicates,omitempty"`
	// Sharded marks a batch scored by the shard coordinator across
	// worker processes; ShardWorkers is the configured worker count.
	// Absent on locally scored batches (including ?local=1 on a
	// coordinator) — the reports themselves are identical either way.
	Sharded      bool `json:"sharded,omitempty"`
	ShardWorkers int  `json:"shardWorkers,omitempty"`
}

// AttrDimJSON carries one attribute's observed quality dimensions.
type AttrDimJSON struct {
	// Attr is the attribute's name.
	Attr string `json:"attr"`
	// Rows counts observed rows; Nulls the null cells among them.
	Rows  int64 `json:"rows"`
	Nulls int64 `json:"nulls"`
	// NullRate is Nulls/Rows (completeness' complement).
	NullRate float64 `json:"nullRate"`
	// Distinct is the (estimated) distinct non-null value count;
	// Uniqueness the distinct-per-non-null ratio in [0, 1].
	Distinct   int64   `json:"distinct"`
	Uniqueness float64 `json:"uniqueness"`
}

// DuplicateGroupJSON is one set of mutually duplicate records. The first
// row is the canonical record; the rest are its duplicates.
type DuplicateGroupJSON struct {
	Rows []int   `json:"rows"`
	IDs  []int64 `json:"ids"`
	// Exact reports a cell-for-cell identical group; MinSimilarity the
	// smallest member-to-canonical similarity (1 for exact groups).
	Exact         bool    `json:"exact"`
	MinSimilarity float64 `json:"minSimilarity"`
}

// DuplicatesJSON is the duplicate scan of an audited batch (?dedup=1).
type DuplicatesJSON struct {
	// Rows is the number of records scanned.
	Rows int `json:"rows"`
	// Key names the blocking-key attributes of the near pass;
	// KeyDiscovered whether the key was mined from the batch rather than
	// supplied.
	Key           []string `json:"key,omitempty"`
	KeyDiscovered bool     `json:"keyDiscovered,omitempty"`
	// ExactGroups / NearGroups split the group count; DuplicateRows
	// counts non-canonical members; DuplicateRate is their row fraction.
	ExactGroups   int     `json:"exactGroups"`
	NearGroups    int     `json:"nearGroups"`
	DuplicateRows int     `json:"duplicateRows"`
	DuplicateRate float64 `json:"duplicateRate"`
	// BlocksCapped counts near-pass blocks truncated by the block cap —
	// when positive, coverage of those blocks is partial.
	BlocksCapped int `json:"blocksCapped,omitempty"`
	// DetectMillis is the scan wall time.
	DetectMillis int64 `json:"detectMillis"`
	// Groups lists every duplicate group, ordered by canonical row.
	Groups []DuplicateGroupJSON `json:"groups"`
}

// ShardWorkersResponse is the body of GET /v1/shard/workers (coordinator
// mode only).
type ShardWorkersResponse struct {
	Workers []string `json:"workers"`
	Shards  int      `json:"shards"`
}

// ModelResponse is the body of POST /v1/models and GET /v1/models/{name}.
type ModelResponse struct {
	registry.Meta
}

// ListResponse is the body of GET /v1/models.
type ListResponse struct {
	Models []registry.Meta `json:"models"`
}

// HealthzResponse is the body of GET /healthz. The contract is the bare
// 200: probes may ignore the body entirely, and every field here is
// informational.
type HealthzResponse struct {
	Status string `json:"status"`
	// Version is the module version or VCS revision embedded in the
	// binary ("devel" for plain go-build trees); GoVersion the toolchain
	// that built it.
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	// UptimeSeconds counts from server construction; Models is the number
	// of published models; Workers the default scoring pool size.
	UptimeSeconds int64 `json:"uptimeSeconds"`
	Models        int   `json:"models"`
	Workers       int   `json:"workers"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// findingJSON renders a Finding against the model's labels.
func findingJSON(m *audit.Model, f *audit.Finding) FindingJSON {
	attr := m.Schema.Attr(f.Attr)
	out := FindingJSON{
		Attr:       attr.Name,
		Observed:   "?",
		PHat:       f.PHat,
		PObs:       f.PObs,
		N:          f.N,
		ErrorConf:  f.ErrorConf,
		Suggestion: attr.Format(f.Suggestion),
	}
	for _, am := range m.Attrs {
		if am.Class != f.Attr {
			continue
		}
		if f.Observed >= 0 && f.Observed < len(am.Labels) {
			out.Observed = am.Labels[f.Observed]
		}
		if f.Predicted >= 0 && f.Predicted < len(am.Labels) {
			out.Predicted = am.Labels[f.Predicted]
		}
		break
	}
	return out
}

// reportJSON renders a RecordReport.
func reportJSON(m *audit.Model, rep *audit.RecordReport) ReportJSON {
	out := ReportJSON{
		Row:        rep.Row,
		ID:         rep.ID,
		ErrorConf:  rep.ErrorConf,
		Suspicious: rep.Suspicious,
	}
	for i := range rep.Findings {
		out.Findings = append(out.Findings, findingJSON(m, &rep.Findings[i]))
	}
	if rep.Best != nil {
		fj := findingJSON(m, rep.Best)
		out.Best = &fj
		out.Description = m.DescribeFinding(rep.Best)
	}
	return out
}

// parseRows builds a table from rendered string rows against a schema.
// Decoding (including the typed dataset.ErrRowWidth on arity mismatches)
// is the same StringRowsSource path the streaming engine uses.
func parseRows(s *dataset.Schema, rows [][]string) (*dataset.Table, error) {
	return dataset.ReadAll(dataset.NewStringRowsSource(s, rows))
}

// attrDimsJSON renders the per-attribute quality dimensions.
func attrDimsJSON(s *dataset.Schema, dims []audit.AttrDim) []AttrDimJSON {
	out := make([]AttrDimJSON, 0, len(dims))
	for i := range dims {
		d := &dims[i]
		out = append(out, AttrDimJSON{
			Attr:       s.Attr(d.Attr).Name,
			Rows:       d.Rows,
			Nulls:      d.Nulls,
			NullRate:   d.NullRate(),
			Distinct:   d.Distinct(),
			Uniqueness: d.Uniqueness(),
		})
	}
	return out
}

// duplicatesJSON renders a duplicate scan.
func duplicatesJSON(s *dataset.Schema, res *dedup.Result) *DuplicatesJSON {
	out := &DuplicatesJSON{
		Rows:          res.Rows,
		KeyDiscovered: res.KeyDiscovered,
		ExactGroups:   res.ExactGroups,
		NearGroups:    res.NearGroups,
		DuplicateRows: res.DuplicateRows,
		DuplicateRate: res.DuplicateRate(),
		BlocksCapped:  res.BlocksCapped,
		DetectMillis:  res.DetectTime.Milliseconds(),
		Groups:        make([]DuplicateGroupJSON, 0, len(res.Groups)),
	}
	for _, c := range res.Key {
		out.Key = append(out.Key, s.Attr(c).Name)
	}
	for i := range res.Groups {
		g := &res.Groups[i]
		out.Groups = append(out.Groups, DuplicateGroupJSON{
			Rows:          g.Rows,
			IDs:           g.IDs,
			Exact:         g.Exact,
			MinSimilarity: g.MinSimilarity,
		})
	}
	return out
}
