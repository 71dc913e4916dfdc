package main

import (
	"encoding/json"
)

// The benchmark's definition: workloads and metric names. BENCHMARK.json
// at the repository root is this table rendered by `-spec`; a unit test
// holds the two equal, so a metric cannot be emitted without being
// declared or declared without being emitted.

const runSeconds = 12

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

var workloadSpecs = []workloadSpec{
	{"table_batch", "AuditTableParallel over a 200k-row in-memory Table: audit does all the work (chunk fill, dims, kernel, report materialisation, ranking); decode, serve and shard do none"},
	{"csv_stream", "100k-row CSV bytes through CSVSource into AuditStream with a top-100 sink: CSV decode dominates and Table.ChunkInto and report materialisation are bypassed"},
	{"serve_mixed", "HTTP service under W closed-loop clients mixing 70% single-row JSON, 25% 2000-row CSV and 5% 30000-row NDJSON stream audits: short requests queue behind long ones"},
	{"shard_batch", "Coordinator over two loopback workers with the default inducer on 100k rows: wire encode, transport, result codec and merge are priced instead of hidden under kNN"},
	{"maintain", "Offline half: full induction, incremental re-induction and registry publish/get cycles; runs none of the scoring path, so scoring changes must leave it unmoved"},
}

func bound(b float64) *float64 { return &b }

// endToEnd is emitted by every workload with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"rows_per_s", "rows/s", "higher", bound(0.15)},
	{"audit_p50_ms", "ms", "lower", bound(0.15)},
	{"alloc_b_per_row", "B/row", "lower", bound(0.10)},
	{"sensitivity", "ratio", "higher", bound(0.05)},
	{"specificity", "ratio", "higher", bound(0.01)},
}

// perLayer is emitted by every workload with --trace 1; a workload that
// does not run a layer reports 0 for it.
var perLayer = []metricSpec{
	// Demoted from end-to-end: tails and per-class medians exist on some
	// workloads only, and the contract wants every gated metric on all.
	{"audit_p95_ms", "ms", "lower", nil},
	{"row_p50_ms", "ms", "lower", nil},
	{"stream_p50_ms", "ms", "lower", nil},
	{"induce_p50_ms", "ms", "lower", nil},
	{"reinduce_p50_ms", "ms", "lower", nil},
	{"peak_heap_mb", "MB", "lower", nil},
	{"fail_ratio", "ratio", "lower", nil},

	{"dataset.csv_decode.ns_per_row", "ns/row", "lower", nil},
	{"dataset.csv_decode.alloc_b_per_row", "B/row", "lower", nil},
	{"dataset.csv_decode.bytes_per_row", "B/row", "lower", nil},
	{"dataset.json_rows_decode.us_per_req", "us", "lower", nil},
	{"dataset.chunk_fill.ns_per_row", "ns/row", "lower", nil},
	{"dataset.chunk_encode.ns_per_row", "ns/row", "lower", nil},
	{"dataset.chunk_decode.ns_per_row", "ns/row", "lower", nil},
	{"dataset.chunk_wire.b_per_row", "B/row", "lower", nil},

	{"audit.dims.ns_per_row", "ns/row", "lower", nil},
	{"audit.checkchunk.ns_per_row", "ns/row", "lower", nil},
	{"audit.checkchunk_warm.ns_per_row", "ns/row", "lower", nil},
	{"audit.checkchunk_warm.allocs_per_row", "1/row", "lower", nil},
	{"audit.batch_driver.self_ns_per_row", "ns/row", "lower", nil},
	{"audit.stream_driver.self_ns_per_row", "ns/row", "lower", nil},
	{"audit.rank.ms", "ms", "lower", nil},
	{"audit.batch_w1.ns_per_row", "ns/row", "lower", nil},
	{"audit.parallel_efficiency", "ratio", "higher", nil},
	{"audit.batch_over_kernel", "ratio", "lower", nil},
	{"audit.suspicious_share", "ratio", "lower", nil},
	{"audit.checkrow.ns_per_row", "ns/row", "lower", nil},

	{"audit.induce.ns_per_row", "ns/row", "lower", nil},
	{"audit.induce.allocs_per_row", "1/row", "lower", nil},
	{"audit.reinduce.ns_per_row", "ns/row", "lower", nil},
	{"audit.reinduce_speedup", "ratio", "higher", nil},
	{"audit.reinduce.sensitivity", "ratio", "higher", nil},
	{"audit.reinduce.specificity", "ratio", "higher", nil},
	{"audit.model.bytes", "B", "lower", nil},
	{"audit.model_marshal.ms", "ms", "lower", nil},

	{"monitor.observe_batch.us_per_call", "us", "lower", nil},
	{"monitor.observe_batch.ns_per_row", "ns/row", "lower", nil},
	{"monitor.reinductions", "count", "lower", nil},

	{"registry.get.us", "us", "lower", nil},
	{"registry.cache_hit_ratio", "ratio", "higher", nil},
	{"registry.publish.ms", "ms", "lower", nil},

	{"obs.scrape.ms", "ms", "lower", nil},
	{"obs.scrape.bytes", "B", "lower", nil},
	{"obs.requests_seen", "count", "higher", nil},

	{"serve.row.self_ms", "ms", "lower", nil},
	{"serve.batch.self_ms", "ms", "lower", nil},
	{"serve.stream.self_ms", "ms", "lower", nil},
	{"serve.batch.resp_bytes", "B", "lower", nil},
	{"serve.stream.resp_bytes", "B", "lower", nil},
	{"serve.stream.first_byte_ms", "ms", "lower", nil},
	{"serve.row.p95_ms", "ms", "lower", nil},
	{"serve.row.p99_ms", "ms", "lower", nil},
	{"serve.batch.p99_ms", "ms", "lower", nil},

	{"shard.worker_score.ms", "ms", "lower", nil},
	{"shard.result_codec.ms", "ms", "lower", nil},
	{"shard.merge.ms", "ms", "lower", nil},
	{"shard.coordinator.self_ms", "ms", "lower", nil},
	{"shard.retries", "count", "lower", nil},
	{"shard.vs_local", "ratio", "higher", nil},

	{"proc.gc_cycles", "count", "lower", nil},
	{"proc.gc_pause_total_ms", "ms", "lower", nil},
	{"proc.allocs_per_row", "1/row", "lower", nil},
	{"proc.numcpu", "count", "higher", nil},
	{"proc.gomaxprocs", "count", "higher", nil},
	{"trace.overhead_ratio", "ratio", "lower", nil},
}

// benchmarkJSON is the BENCHMARK.json document.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func specJSON() ([]byte, error) {
	doc := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
