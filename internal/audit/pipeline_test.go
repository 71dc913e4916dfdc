package audit

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dataaudit/internal/dataset"
)

// The scoring driver's contracts, pinned once for every wrapper: each
// feed × sink × worker-count combination must produce the row-path
// oracle's output, abort with the typed error and no goroutine left
// behind, hold at most workers+1 chunk buffers, and run a single unit on
// the caller's goroutine.

const pipelineRows = 6000

// pipelineFixture is a table that survives a CSV round trip unchanged (it
// was read back from CSV), its CSV bytes, and the model.
func pipelineFixture(t *testing.T) (*Model, *dataset.Table, []byte) {
	t.Helper()
	m, dirty := streamQUIS(t)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, cloneRows(dirty, 0, pipelineRows)); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewCSVSource(bytes.NewReader(buf.Bytes()), m.Schema)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := dataset.ReadAllKeepIDs(src)
	if err != nil {
		t.Fatal(err)
	}
	return m, tab, buf.Bytes()
}

// renderRows renders the table's rows as the text cells of a JSON rows
// request.
func renderRows(tab *dataset.Table) [][]string {
	s := tab.Schema()
	rows := make([][]string, tab.NumRows())
	for r := range rows {
		rows[r] = make([]string, s.Len())
		for c, a := range s.Attrs() {
			rows[r][c] = a.Format(tab.Get(r, c))
		}
	}
	return rows
}

// pipelineFeed builds one kind of feed over the fixture. bad appends a
// malformed row (CSV) or makes the source fail (row source) after the
// fixture's rows; a table feed cannot fail.
type pipelineFeed struct {
	name   string
	rows   int   // what auditResult is told: the row count, or -1
	srcErr error // what a bad source fails with; nil for the table feed
	open   func(t *testing.T, opts StreamOptions, bad bool) feed
}

func pipelineFeeds(m *Model, tab *dataset.Table, csv []byte) []pipelineFeed {
	return []pipelineFeed{
		{name: "table", rows: tab.NumRows(), open: func(_ *testing.T, opts StreamOptions, _ bool) feed {
			return tableFeed(tab, opts.Workers)
		}},
		{name: "csv", rows: -1, srcErr: dataset.ErrRowWidth, open: func(t *testing.T, opts StreamOptions, bad bool) feed {
			body := csv
			if bad {
				body = append(append([]byte(nil), csv...), "404,901\n"...)
			}
			src, err := dataset.NewCSVSource(bytes.NewReader(body), m.Schema)
			if err != nil {
				t.Fatal(err)
			}
			return sourceFeed(src, opts)
		}},
		{name: "rows", rows: -1, srcErr: io.ErrUnexpectedEOF, open: func(t *testing.T, opts StreamOptions, bad bool) feed {
			if bad {
				return sourceFeed(&errSource{schema: tab.Schema(), tab: tab, after: tab.NumRows()}, opts)
			}
			return sourceFeed(dataset.NewStringRowsSource(tab.Schema(), renderRows(tab)), opts)
		}},
	}
}

// settledGoroutines waits for the goroutine count to come back down to
// want (exited goroutines leave the count a moment after wg.Wait sees
// them done) and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestPipelineMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixture is expensive")
	}
	m, tab, csv := pipelineFixture(t)
	want := auditTableReference(m, tab)
	wantBytes := gobBytes(t, want)
	wantSus := want.Suspicious()
	_, wantTallies := m.TallyResult(want)

	for _, fc := range pipelineFeeds(m, tab, csv) {
		for _, workers := range []int{1, 4} {
			name := func(sink string) string { return fmt.Sprintf("%s/%s/workers=%d", fc.name, sink, workers) }
			opts := StreamOptions{ChunkSize: 257, Workers: workers, TopK: -1}.withDefaults()

			t.Run(name("result"), func(t *testing.T) {
				before := runtime.NumGoroutine()
				res, err := m.auditResult(fc.open(t, opts, false), fc.rows, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantBytes, gobBytes(t, res)) {
					t.Fatal("Result is not byte-identical to the row-path reference")
				}
				if fc.srcErr != nil {
					if _, err := m.auditResult(fc.open(t, opts, true), fc.rows, workers); !errors.Is(err, fc.srcErr) {
						t.Fatalf("source error: got %v, want %v", err, fc.srcErr)
					}
					limited := opts
					limited.MaxRows = 1000
					_, err := m.auditResult(fc.open(t, limited, false), fc.rows, workers)
					var rle *RowLimitError
					if !errors.As(err, &rle) || rle.Limit != 1000 {
						t.Fatalf("row limit: got %v", err)
					}
				}
				if after := settledGoroutines(before); after > before {
					t.Fatalf("%d goroutines before, %d after", before, after)
				}
			})

			t.Run(name("stream"), func(t *testing.T) {
				before := runtime.NumGoroutine()
				stream := func(opts StreamOptions, bad bool) (*StreamResult, error) {
					return m.auditStream(fc.open(t, opts, bad), opts)
				}

				// Clean run: OnRow in source order before scoring,
				// OnSuspicious in row order, tallies, ranking and dims as
				// the reference has them.
				var seen, flagged []int64
				clean := opts
				clean.OnRow = func(_ []dataset.Value, id int64) { seen = append(seen, id) }
				clean.OnSuspicious = func(rep *RecordReport) error {
					flagged = append(flagged, rep.ID)
					return nil
				}
				res, err := stream(clean, false)
				if err != nil {
					t.Fatal(err)
				}
				if res.RowsChecked != int64(tab.NumRows()) {
					t.Fatalf("checked %d rows, want %d", res.RowsChecked, tab.NumRows())
				}
				requireSameRanking(t, wantSus, res.Top)
				requireSameTallies(t, wantTallies, res.Attrs)
				if !bytes.Equal(gobBytes(t, &Result{Dims: want.Dims}), gobBytes(t, &Result{Dims: res.Dims})) {
					t.Fatal("dims are not byte-identical to the reference")
				}
				var wantFlagged []int64
				for i := range want.Reports {
					if want.Reports[i].Suspicious {
						wantFlagged = append(wantFlagged, want.Reports[i].ID)
					}
				}
				if !reflect.DeepEqual(flagged, wantFlagged) {
					t.Fatal("OnSuspicious did not fire once per suspicious row in row order")
				}
				if fc.srcErr != nil { // a source feed: it owns OnRow
					wantSeen := make([]int64, tab.NumRows())
					for r := range wantSeen {
						wantSeen[r] = tab.ID(r)
					}
					if !reflect.DeepEqual(seen, wantSeen) {
						t.Fatal("OnRow did not fire once per row in source order")
					}
				}

				// A failing OnSuspicious aborts with its error and is
				// never called again.
				boom := errors.New("boom")
				calls := 0
				failing := opts
				failing.OnSuspicious = func(*RecordReport) error {
					if calls++; calls == 5 {
						return boom
					}
					return nil
				}
				if _, err := stream(failing, false); !errors.Is(err, boom) || calls != 5 {
					t.Fatalf("callback abort: err %v after %d calls", err, calls)
				}

				if fc.srcErr != nil {
					if _, err := stream(opts, true); !errors.Is(err, fc.srcErr) {
						t.Fatalf("source error: got %v, want %v", err, fc.srcErr)
					}
					// The limit fires on the first overflowing row,
					// before its OnRow.
					rowsSeen := 0
					limited := opts
					limited.MaxRows = 1000
					limited.OnRow = func([]dataset.Value, int64) { rowsSeen++ }
					_, err := stream(limited, false)
					var rle *RowLimitError
					if !errors.As(err, &rle) || rle.Limit != 1000 || rowsSeen != 1000 {
						t.Fatalf("row limit: got %v after %d OnRow calls", err, rowsSeen)
					}
				}
				if after := settledGoroutines(before); after > before {
					t.Fatalf("%d goroutines before, %d after", before, after)
				}
			})
		}
	}
}

// TestPipelineChunkBufferBound proves the source feed's memory bound:
// whatever the row count, it presents the source with at most workers+1
// distinct chunk buffers (one when everything runs inline).
func TestPipelineChunkBufferBound(t *testing.T) {
	m, dirty := streamQUIS(t)
	for _, rows := range []int{1, 64, 65, 1000, 20000} {
		for _, workers := range []int{1, 4} {
			spy := &chunkSpySource{
				inner: dataset.NewTableSource(cloneRows(dirty, 0, rows)),
				seen:  make(map[*dataset.ColumnChunk]int),
			}
			opts := StreamOptions{ChunkSize: 64, Workers: workers}.withDefaults()
			if _, err := m.auditStream(sourceFeed(spy, opts), opts); err != nil {
				t.Fatal(err)
			}
			bound := workers + 1
			if workers == 1 {
				bound = 1
			}
			if spy.chunks < rows/64 || len(spy.seen) > bound {
				t.Fatalf("%d rows, %d workers: %d distinct chunk buffers over %d fills, want at most %d",
					rows, workers, len(spy.seen), spy.chunks, bound)
			}
		}
	}
}

// onTestGoroutine reports whether the calling goroutine is the one the
// testing package started for the test function.
func onTestGoroutine() bool {
	buf := make([]byte, 64<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("testing.tRunner"))
}

// TestPipelineInlineAndFanOut pins the one decision the driver takes
// from its input: a single unit (the one-row requests that dominate
// serving traffic) is filled, tracked and scored on the caller's
// goroutine with nothing started, and a 2000-row table still fans out
// across the workers, which fill their own spans.
func TestPipelineInlineAndFanOut(t *testing.T) {
	m, dirty := streamQUIS(t)
	// where audits the first rows of the fixture with 4 workers on offer
	// and reports, per unit, whether it was loaded on this goroutine and
	// how many goroutines existed at that moment.
	where := func(rows int) (onCaller []bool, goroutines []int) {
		f := tableFeed(cloneRows(dirty, 0, rows), 4)
		var mu sync.Mutex
		load := f.load
		f.load = func(u *unit, ck *dataset.ColumnChunk) {
			mu.Lock()
			onCaller = append(onCaller, onTestGoroutine())
			goroutines = append(goroutines, runtime.NumGoroutine())
			mu.Unlock()
			load(u, ck)
		}
		if res, err := m.auditResult(f, rows, 4); err != nil || len(res.Reports) != rows {
			t.Fatalf("%d-row table: %v", rows, err)
		}
		return onCaller, goroutines
	}

	before := runtime.NumGoroutine()
	onCaller, goroutines := where(1)
	if len(onCaller) != 1 || !onCaller[0] || goroutines[0] > before {
		t.Fatalf("one-row table: loaded on caller %v with %v goroutines (%d before)", onCaller, goroutines, before)
	}

	onCaller, _ = where(2000)
	if len(onCaller) != 2000/minUnitRows+1 {
		t.Fatalf("2000-row table split into %d units", len(onCaller))
	}
	for i, here := range onCaller {
		if here {
			t.Fatalf("2000-row table: unit %d was filled on the caller's goroutine", i)
		}
	}
}
