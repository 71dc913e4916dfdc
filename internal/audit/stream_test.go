package audit

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

// streamFixtureRows is the audited table size of the differential
// contract; the acceptance bar is ≥ 50k rows.
const streamFixtureRows = 55000

// streamQUIS builds the streaming differential fixture: a ≥50k-row
// polluted QUIS sample and a model induced on it — the workload the
// stream/batch equivalence contract is stated against. The fixture is
// built once and shared (the model is immutable and the table is only
// read).
func streamQUIS(t testing.TB) (*Model, *dataset.Table) {
	t.Helper()
	streamFixtureOnce.Do(func() {
		sample, err := quis.Generate(quis.Params{NumRecords: streamFixtureRows, Seed: 2003})
		if err != nil {
			streamFixtureErr = err
			return
		}
		plan := pollute.Plan{Cell: []pollute.Configured{
			{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
			{Prob: 0.01, P: &pollute.NullValuePolluter{}},
		}}
		dirty, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(42)))
		m, err := Induce(dirty, Options{MinConfidence: 0.8})
		if err != nil {
			streamFixtureErr = err
			return
		}
		streamFixtureModel, streamFixtureTable = m, dirty
	})
	if streamFixtureErr != nil {
		t.Fatal(streamFixtureErr)
	}
	return streamFixtureModel, streamFixtureTable
}

var (
	streamFixtureOnce  sync.Once
	streamFixtureModel *Model
	streamFixtureTable *dataset.Table
	streamFixtureErr   error
)

// requireSameRanking asserts the streamed top list equals the batch
// suspicious ranking (prefix when the stream was truncated to K).
func requireSameRanking(t *testing.T, want []RecordReport, got []RecordReport) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("stream ranked %d records, batch only %d", len(got), len(want))
	}
	for i := range got {
		w, g := want[i], got[i]
		if w.Row != g.Row || w.ID != g.ID || w.ErrorConf != g.ErrorConf {
			t.Fatalf("rank %d differs: batch row %d conf %.6f, stream row %d conf %.6f",
				i, w.Row, w.ErrorConf, g.Row, g.ErrorConf)
		}
		if !reflect.DeepEqual(w.Findings, g.Findings) {
			t.Fatalf("rank %d: findings differ:\nbatch  %+v\nstream %+v", i, w.Findings, g.Findings)
		}
		if (w.Best == nil) != (g.Best == nil) || (w.Best != nil && !reflect.DeepEqual(*w.Best, *g.Best)) {
			t.Fatalf("rank %d: Best differs", i)
		}
	}
}

// TestAuditStreamMatchesBatch is the differential acceptance contract:
// on a ≥50k-row polluted QUIS table, AuditStream must produce exactly the
// batch path's suspicious set and confidence ranking, for any chunking
// and worker count. Run under -race this also exercises the pipeline's
// reader/worker/collector handoffs.
func TestAuditStreamMatchesBatch(t *testing.T) {
	m, dirty := streamQUIS(t)
	batch := m.AuditTable(dirty)
	want := batch.Suspicious()
	if len(want) < 100 {
		t.Fatalf("fixture too clean: only %d suspicious records", len(want))
	}

	cases := []struct{ chunk, workers, topK int }{
		{0, 0, -1},    // defaults, keep everything
		{1024, 4, -1}, // standard chunking
		{997, 3, -1},  // chunk size coprime to everything
		{64, 8, -1},   // many small chunks
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("chunk=%d,workers=%d", tc.chunk, tc.workers), func(t *testing.T) {
			res, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{
				ChunkSize: tc.chunk, Workers: tc.workers, TopK: tc.topK,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsChecked != int64(dirty.NumRows()) {
				t.Fatalf("RowsChecked %d, want %d", res.RowsChecked, dirty.NumRows())
			}
			if res.NumSuspicious != int64(len(want)) {
				t.Fatalf("NumSuspicious %d, want %d", res.NumSuspicious, len(want))
			}
			if res.TopTruncated {
				t.Fatal("TopTruncated with unlimited K")
			}
			requireSameRanking(t, want, res.Top)

			// Tallies must account for every deviation the batch path saw.
			var batchDeviations int64
			for _, rep := range batch.Reports {
				batchDeviations += int64(len(rep.Findings))
			}
			var streamDeviations int64
			for _, tally := range res.Attrs {
				streamDeviations += tally.Deviations
			}
			if streamDeviations != batchDeviations {
				t.Fatalf("tallied %d deviations, batch saw %d", streamDeviations, batchDeviations)
			}
		})
	}

	t.Run("topK=25 is the ranking prefix", func(t *testing.T) {
		res, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{TopK: 25})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Top) != 25 || !res.TopTruncated {
			t.Fatalf("got %d reports, truncated=%v; want 25, true", len(res.Top), res.TopTruncated)
		}
		requireSameRanking(t, want, res.Top)
	})
}

// TestAuditStreamShuffledChunking re-runs the stream with randomly drawn
// chunk sizes and worker counts: every chunking must reproduce the same
// suspicious set — chunk boundaries are an implementation detail, not an
// observable.
func TestAuditStreamShuffledChunking(t *testing.T) {
	m, dirty := streamQUIS(t)
	want := m.AuditTable(dirty).Suspicious()

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		chunk := 1 + rng.Intn(3000)
		workers := 1 + rng.Intn(8)
		res, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{
			ChunkSize: chunk, Workers: workers, TopK: -1,
		})
		if err != nil {
			t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
		}
		if res.NumSuspicious != int64(len(want)) {
			t.Fatalf("chunk=%d workers=%d: %d suspicious, want %d", chunk, workers, res.NumSuspicious, len(want))
		}
		requireSameRanking(t, want, res.Top)
	}
}

// TestAuditStreamFromCSV drives the whole streaming path end to end: the
// table is serialized to CSV and re-audited through the streaming decoder
// without ever materializing a second table.
func TestAuditStreamFromCSV(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	want := m.AuditTable(dirty).Suspicious()

	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, dirty); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewCSVSource(&buf, m.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.AuditStream(src, StreamOptions{TopK: -1, ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSuspicious != int64(len(want)) {
		t.Fatalf("NumSuspicious %d, want %d", res.NumSuspicious, len(want))
	}
	// CSV IDs are the 0-based row index; the polluted table's IDs are
	// dense (cell polluters never add or drop rows), so rankings align.
	requireSameRanking(t, want, res.Top)
}

// TestAuditStreamCallback checks OnSuspicious ordering (ascending rows,
// every suspicious record exactly once) and the abort path.
func TestAuditStreamCallback(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	want := m.AuditTable(dirty)

	var rows []int
	res, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{
		ChunkSize: 333,
		TopK:      10,
		OnSuspicious: func(rep *RecordReport) error {
			rows = append(rows, rep.Row)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != res.NumSuspicious {
		t.Fatalf("callback fired %d times, %d suspicious", len(rows), res.NumSuspicious)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			t.Fatalf("callback out of row order: %d after %d", rows[i], rows[i-1])
		}
	}
	var wantRows []int
	for _, rep := range want.Reports {
		if rep.Suspicious {
			wantRows = append(wantRows, rep.Row)
		}
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("callback rows diverge from batch suspicious rows (%d vs %d entries)", len(rows), len(wantRows))
	}

	boom := errors.New("boom")
	calls := 0
	_, err = m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{
		ChunkSize: 333,
		OnSuspicious: func(rep *RecordReport) error {
			calls++
			if calls == 5 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("abort error not propagated: %v", err)
	}
	if calls != 5 {
		t.Fatalf("callback fired %d times after abort, want 5", calls)
	}
}

// TestAuditStreamRowLimit checks the MaxRows guard surfaces the typed
// ErrRowLimit.
func TestAuditStreamRowLimit(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	_, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{MaxRows: 1000})
	if !errors.Is(err, ErrRowLimit) {
		t.Fatalf("want ErrRowLimit, got %v", err)
	}
	var rle *RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 1000 {
		t.Fatalf("RowLimitError fields wrong: %+v", rle)
	}
}

// TestAuditStreamSourceErrors checks that source failures — width
// mismatches and malformed cells — abort the stream with the typed error.
func TestAuditStreamSourceErrors(t *testing.T) {
	m, dirty := pollutedQUIS(t)

	t.Run("schema width mismatch", func(t *testing.T) {
		narrow := dataset.NewTable(dataset.MustSchema(dataset.NewNominal("X", "a", "b")))
		_, err := m.AuditStream(dataset.NewTableSource(narrow), StreamOptions{})
		if !errors.Is(err, dataset.ErrRowWidth) {
			t.Fatalf("want ErrRowWidth, got %v", err)
		}
	})

	t.Run("short row mid-stream", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, cloneRows(dirty, 0, 500)); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("404,901\n") // short row after 500 good ones
		src, err := dataset.NewCSVSource(&buf, m.Schema)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.AuditStream(src, StreamOptions{ChunkSize: 64})
		if !errors.Is(err, dataset.ErrRowWidth) {
			t.Fatalf("want ErrRowWidth, got %v", err)
		}
	})
}

// TestAuditStreamEmptySource checks the zero-row edge.
func TestAuditStreamEmptySource(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	empty := dataset.NewTable(dirty.Schema())
	res, err := m.AuditStream(dataset.NewTableSource(empty), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsChecked != 0 || res.NumSuspicious != 0 || len(res.Top) != 0 {
		t.Fatalf("non-zero result on empty source: %+v", res)
	}
}

// errSource fails after a fixed number of rows — exercises reader-error
// shutdown without CSV in the loop.
type errSource struct {
	schema *dataset.Schema
	tab    *dataset.Table
	after  int
	n      int
}

func (s *errSource) Schema() *dataset.Schema { return s.schema }

func (s *errSource) NextChunk(ck *dataset.ColumnChunk, max int) (int, error) {
	buf := make([]dataset.Value, s.schema.Len())
	for i := 0; i < max; i++ {
		if s.n >= s.after {
			return i, io.ErrUnexpectedEOF
		}
		ck.AppendRow(s.tab.RowInto(s.n%s.tab.NumRows(), buf), int64(s.n))
		s.n++
	}
	return max, nil
}

// TestAuditStreamReaderErrorShutsDownCleanly checks a mid-stream source
// failure drains the pipeline (no goroutine leak, no deadlock under any
// chunking) and surfaces the error.
func TestAuditStreamReaderErrorShutsDownCleanly(t *testing.T) {
	m, dirty := pollutedQUIS(t)
	for _, after := range []int{0, 1, 100, 5000} {
		src := &errSource{schema: dirty.Schema(), tab: dirty, after: after}
		_, err := m.AuditStream(src, StreamOptions{ChunkSize: 64, Workers: 4})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("after=%d: want ErrUnexpectedEOF, got %v", after, err)
		}
	}
}
