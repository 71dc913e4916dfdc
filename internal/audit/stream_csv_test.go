package audit

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
)

// A CSVSource fed to AuditStream is only cut on the feeding goroutine;
// its blocks are decoded on the scoring workers. These tests hold that
// path to the serial one: the same result bytes as the table path, the
// same OnRow and OnSuspicious sequences as one worker, and for every kind
// of bad input the same error and OnRow prefix as one worker.

var (
	csvBlockWorkers = []int{1, 2, 4}
	csvBlockChunks  = []int{1, 7, 1024}
)

// streamCalls is what AuditStream's callbacks saw: every OnRow row with
// its ID, and every OnSuspicious report's ID and error confidence.
type streamCalls struct {
	rowIDs    []int64
	rows      [][]dataset.Value
	suspects  []int64
	suspConfs []float64
}

func (c *streamCalls) options(chunk, workers int) StreamOptions {
	return StreamOptions{
		ChunkSize: chunk, Workers: workers, TopK: -1,
		OnRow: func(row []dataset.Value, id int64) {
			c.rowIDs = append(c.rowIDs, id)
			c.rows = append(c.rows, append([]dataset.Value(nil), row...))
		},
		OnSuspicious: func(rep *RecordReport) error {
			c.suspects = append(c.suspects, rep.ID)
			c.suspConfs = append(c.suspConfs, rep.ErrorConf)
			return nil
		},
	}
}

func TestStreamCSVBlockDifferential(t *testing.T) {
	m, tab, body := pipelineFixture(t)
	openCSV := func(t *testing.T, r io.Reader, bound int64) dataset.RowSource {
		t.Helper()
		var src *dataset.CSVSource
		var err error
		if bound > 0 {
			src, err = dataset.NewBoundedCSVSource(r, m.Schema, bound)
		} else {
			src, err = dataset.NewCSVSource(r, m.Schema)
		}
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	t.Run("clean", func(t *testing.T) {
		for _, chunk := range csvBlockChunks {
			var want streamCalls
			if _, err := m.AuditStream(openCSV(t, bytes.NewReader(body), 0), want.options(chunk, 1)); err != nil {
				t.Fatal(err)
			}
			if len(want.rowIDs) != tab.NumRows() || len(want.suspects) == 0 {
				t.Fatalf("chunk %d: OnRow fired %d times for %d rows, OnSuspicious %d times", chunk, len(want.rowIDs), tab.NumRows(), len(want.suspects))
			}
			for _, workers := range csvBlockWorkers {
				t.Run(fmt.Sprintf("chunk=%d,workers=%d", chunk, workers), func(t *testing.T) {
					before := runtime.NumGoroutine()
					opts := StreamOptions{ChunkSize: chunk, Workers: workers, TopK: -1}
					ref, err := m.AuditStream(dataset.NewTableSource(tab), opts)
					if err != nil {
						t.Fatal(err)
					}
					var got streamCalls
					res, err := m.AuditStream(openCSV(t, bytes.NewReader(body), 0), got.options(chunk, workers))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(streamGobBytes(t, ref), streamGobBytes(t, res)) {
						t.Fatal("StreamResult is not gob-byte-identical to the table source's")
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal("OnRow or OnSuspicious calls differ from one worker's")
					}
					if after := settledGoroutines(before); after > before {
						t.Fatalf("%d goroutines before, %d after", before, after)
					}
				})
			}
		}
	})

	// Every bad input puts its fault at data row k, after k clean rows.
	const k, bound = 1500, 4 << 10
	lines := strings.SplitAfter(string(body), "\n")
	header, data := lines[0], lines[1:len(lines)-1]
	splice := func(bad string) string {
		return header + strings.Join(data[:k], "") + bad + strings.Join(data[k:], "")
	}
	firstCell := strings.Index(data[k], ",")
	badCell := splice("#bad#" + data[k][firstCell:])
	failAt := len(header) + len(strings.Join(data[:k], "")) + firstCell
	cases := []struct {
		name    string
		open    func(t *testing.T) dataset.RowSource
		maxRows int64
	}{
		{"bad cell", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(badCell), bound)
		}, 0},
		{"short row", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(splice("404,901\n")), bound)
		}, 0},
		{"bare quote", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(splice(`x"y`+data[k][firstCell:])), bound)
		}, 0},
		{"record over the byte cap", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(splice(strings.Repeat("z", 2*bound)+data[k][firstCell:])), bound)
		}, 0},
		{"reader fails mid-stream", func(t *testing.T) dataset.RowSource {
			return openCSV(t, io.MultiReader(strings.NewReader(string(body[:failAt])), failingReader{}), bound)
		}, 0},
		{"MaxRows k-1", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(badCell), bound)
		}, k - 1},
		{"MaxRows k", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(badCell), bound)
		}, k},
		{"MaxRows k+1", func(t *testing.T) dataset.RowSource {
			return openCSV(t, strings.NewReader(badCell), bound)
		}, k + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want streamCalls
			opts := want.options(1024, 1)
			opts.MaxRows = tc.maxRows
			_, wantErr := m.AuditStream(tc.open(t), opts)
			if wantErr == nil {
				t.Fatal("one worker accepted the bad input")
			}
			accepted := k
			if tc.maxRows == k-1 {
				accepted = k - 1
				if !errors.Is(wantErr, ErrRowLimit) {
					t.Fatalf("MaxRows k-1 ends in %v, want the row limit", wantErr)
				}
			} else if errors.Is(wantErr, ErrRowLimit) {
				t.Fatalf("the malformed row should win over the row limit: %v", wantErr)
			}
			if len(want.rowIDs) != accepted {
				t.Fatalf("one worker: OnRow fired %d times before %v, want %d", len(want.rowIDs), wantErr, accepted)
			}
			for _, chunk := range csvBlockChunks {
				for _, workers := range csvBlockWorkers {
					before := runtime.NumGoroutine()
					var got streamCalls
					opts := got.options(chunk, workers)
					opts.MaxRows = tc.maxRows
					_, err := m.AuditStream(tc.open(t), opts)
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("chunk=%d workers=%d: error %v, one worker gives %v", chunk, workers, err, wantErr)
					}
					if !reflect.DeepEqual(got.rowIDs, want.rowIDs) || !reflect.DeepEqual(got.rows, want.rows) {
						t.Fatalf("chunk=%d workers=%d: %d OnRow calls differ from one worker's %d", chunk, workers, len(got.rowIDs), len(want.rowIDs))
					}
					if after := settledGoroutines(before); after > before {
						t.Fatalf("chunk=%d workers=%d: %d goroutines before, %d after", chunk, workers, before, after)
					}
				}
			}
		})
	}
}

// failingReader fails every read, as a dropped connection does.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }
