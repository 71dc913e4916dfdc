package dataset_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/quis"
)

// quisCSV is the CSV rendering of a 30 000-record QUIS sample, the
// relation the csv_stream benchmark decodes, built once per test binary.
var quisCSV = sync.OnceValues(func() ([]byte, error) {
	q, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = dataset.WriteCSV(&buf, q.Data)
	return buf.Bytes(), err
})

// TestCSVDecodeZeroAlloc pins the CSV decoder at zero heap allocations
// per chunk once warm.
func TestCSVDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const chunkRows = 1024
	body, err := quisCSV()
	if err != nil {
		t.Fatal(err)
	}
	s := quis.Schema()
	src, err := dataset.NewCSVSource(bytes.NewReader(body), s)
	if err != nil {
		t.Fatal(err)
	}
	ck := dataset.NewColumnChunk(s)
	allocs := testing.AllocsPerRun(10, func() {
		ck.Reset()
		if n, err := src.NextChunk(ck, chunkRows); n != chunkRows || err != nil {
			t.Fatalf("NextChunk: %d rows, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextChunk allocated %.1f times per %d-row chunk, want 0", allocs, chunkRows)
	}
}

// BenchmarkCSVSourceNextChunk is the decode stage of the csv_stream
// benchmark alone: the QUIS body into 1024-row chunks.
func BenchmarkCSVSourceNextChunk(b *testing.B) {
	body, err := quisCSV()
	if err != nil {
		b.Fatal(err)
	}
	s := quis.Schema()
	ck := dataset.NewColumnChunk(s)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		src, err := dataset.NewCSVSource(bytes.NewReader(body), s)
		if err != nil {
			b.Fatal(err)
		}
		for {
			ck.Reset()
			n, err := src.NextChunk(ck, 1024)
			rows += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}
