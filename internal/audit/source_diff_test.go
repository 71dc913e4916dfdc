package audit

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"dataaudit/internal/dataset"
)

// The ingestion-equivalence contract: a relation fed through any source —
// CSV text or JSONL objects — produces the byte-identical audit. The CSV
// path is the reference (it is what the columnar differential suite pins
// against the row-path oracle); JSONL must match it gob-byte-for-byte,
// batch and stream, across the same chunk-size × worker grid as
// columnar_diff_test.go.

// streamGobBytes serializes a StreamResult with the wall-time field
// zeroed, for byte-identity comparison.
func streamGobBytes(t *testing.T, res *StreamResult) []byte {
	t.Helper()
	cp := *res
	cp.CheckTime = 0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSourceDifferentialQUIS(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixture is expensive")
	}
	m, dirty := streamQUIS(t)

	var csvBuf, jsonlBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, dirty); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteJSONL(&jsonlBuf, dirty); err != nil {
		t.Fatal(err)
	}

	sources := []struct {
		name string
		open func(t *testing.T) dataset.RowSource
	}{
		{"csv", func(t *testing.T) dataset.RowSource {
			src, err := dataset.NewCSVSource(bytes.NewReader(csvBuf.Bytes()), m.Schema)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
		{"jsonl", func(t *testing.T) dataset.RowSource {
			return dataset.NewJSONLSource(bytes.NewReader(jsonlBuf.Bytes()), m.Schema)
		}},
	}

	// Batch: materialize each source with its source-assigned IDs and
	// audit the table. The CSV result is the reference.
	var wantBatch []byte
	for _, sc := range sources {
		tab, err := dataset.ReadAllKeepIDs(sc.open(t))
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got := gobBytes(t, m.AuditTable(tab))
		if sc.name == "csv" {
			wantBatch = got
			continue
		}
		if !bytes.Equal(wantBatch, got) {
			t.Fatalf("%s: batch Result is not gob-byte-identical to the CSV source", sc.name)
		}
	}

	// Stream: the full chunk-size × worker grid. Within one geometry the
	// fold order is deterministic, so equal inputs must produce equal
	// bytes — any divergence is a source-decoding difference.
	for _, chunk := range columnarChunkSizes {
		for _, workers := range columnarWorkerCounts {
			t.Run(fmt.Sprintf("chunk=%d,workers=%d", chunk, workers), func(t *testing.T) {
				opts := StreamOptions{ChunkSize: chunk, Workers: workers, TopK: -1}
				var want []byte
				for _, sc := range sources {
					res, err := m.AuditStream(sc.open(t), opts)
					if err != nil {
						t.Fatalf("%s: %v", sc.name, err)
					}
					got := streamGobBytes(t, res)
					if sc.name == "csv" {
						want = got
						continue
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("%s: StreamResult is not gob-byte-identical to the CSV source", sc.name)
					}
				}
			})
		}
	}
}
