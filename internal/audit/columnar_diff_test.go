package audit

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/quis"
)

// The columnar differential suite: every surface of the chunked scoring
// core — CheckChunk under AuditTable, AuditTableParallel's sharded
// workers, AuditStream's pipeline — is held byte-identical to the
// row-at-a-time reference oracle (checkRowReference), across chunk
// sizes, worker counts, and all induction families. "Byte-identical"
// is literal: the full Result gob-serializes to the same bytes, so
// every finding field, the Suspicious flags, the Best selection and the
// ranking all match, whether a row was scored by a kernel or replayed
// from the signature memo.

// columnarChunkSizes are the chunk geometries the suite shuffles over:
// degenerate single-row chunks, a size coprime to everything, a small
// power of two, and the production batch size.
var columnarChunkSizes = []int{1, 7, 64, 4096}

// columnarWorkerCounts are the parallel fan-outs under test.
var columnarWorkerCounts = []int{1, 2, 4, 8}

// requireSameTallies asserts two per-attribute tally sets agree. Counts
// and maxima must match exactly; the error-confidence sums are compared
// within floating-point refolding tolerance because the stream folds
// per-chunk partial sums while the batch path accumulates row by row.
func requireSameTallies(t *testing.T, want, got []AttrTally) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("tally count differs: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Attr != g.Attr || w.Deviations != g.Deviations || w.Suspicious != g.Suspicious ||
			w.MaxErrorConf != g.MaxErrorConf {
			t.Fatalf("tally %d differs:\nwant %+v\ngot  %+v", i, w, g)
		}
		if diff := math.Abs(w.SumErrorConf - g.SumErrorConf); diff > 1e-9*(1+math.Abs(w.SumErrorConf)) {
			t.Fatalf("tally %d: SumErrorConf drifted by %g (want %g, got %g)", i, diff, w.SumErrorConf, g.SumErrorConf)
		}
	}
}

// TestColumnarDifferentialQUIS is the tentpole contract on the 55k-row
// polluted QUIS fixture: the columnar batch scorers produce reports
// gob-byte-identical to the row-path oracle, for every worker count, and
// the Suspicious() ranking and monitor tallies are unchanged.
func TestColumnarDifferentialQUIS(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixture is expensive")
	}
	m, dirty := streamQUIS(t)
	want := auditTableReference(m, dirty)
	wantBytes := gobBytes(t, want)

	got := m.AuditTable(dirty)
	if !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, got, dirty))) {
		t.Fatal("columnar AuditTable is not byte-identical to the row-path reference")
	}
	for _, w := range columnarWorkerCounts {
		if gotPar := m.AuditTableParallel(dirty, w); !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, gotPar, dirty))) {
			t.Fatalf("AuditTableParallel(workers=%d) is not byte-identical to the reference", w)
		}
	}

	wantSus, gotSus := want.Suspicious(), got.Suspicious()
	if len(wantSus) != len(gotSus) {
		t.Fatalf("suspicious count differs: want %d, got %d", len(wantSus), len(gotSus))
	}
	requireSameRanking(t, wantSus, gotSus)

	wantCount, wantTallies := m.TallyResult(want)
	gotCount, gotTallies := m.TallyResult(got)
	if wantCount != gotCount {
		t.Fatalf("tallied suspicious count differs: want %d, got %d", wantCount, gotCount)
	}
	requireSameTallies(t, wantTallies, gotTallies)
}

// TestColumnarSharedScratchShuffledChunks drives CheckChunk directly with
// one shared scratch over randomly shuffled chunk sizes, so the signature
// memo accumulates state across wildly different chunk geometries — the
// result must still be byte-identical to the reference. This is the test
// that would catch a stale-buffer or memo-aliasing bug that a fixed
// chunking could mask.
func TestColumnarSharedScratchShuffledChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixture is expensive")
	}
	m, dirty := streamQUIS(t)
	want := auditTableReference(m, dirty)
	wantBytes := gobBytes(t, want)

	n := dirty.NumRows()
	rng := rand.New(rand.NewSource(7))
	ck := dataset.NewColumnChunk(dirty.Schema())
	scratch := NewChunkScratch(m)
	dims := NewDimTracker(dirty.Schema())
	res := &Result{Rows: n, NumAttrs: m.Schema.Len()}
	for lo := 0; lo < n; {
		hi := lo + columnarChunkSizes[rng.Intn(len(columnarChunkSizes))]
		if hi > n {
			hi = n
		}
		dirty.ChunkInto(ck, lo, hi)
		dims.ObserveChunk(ck)
		reps := m.CheckChunk(ck, int64(lo), scratch)
		res.Reports = append(res.Reports, detachReports(reps)...)
		lo = hi
	}
	res.Dims = dims.Dims()
	if !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, res, dirty))) {
		t.Fatal("shuffled-chunk CheckChunk result is not byte-identical to the reference")
	}
}

// TestColumnarStreamDifferential holds AuditStream to the row-path oracle
// across the chunk-size × worker grid: the streamed top list must be the
// reference suspicious ranking (same rows, confidences, findings, Best)
// and the incremental tallies must equal the reference result's.
func TestColumnarStreamDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixture is expensive")
	}
	m, dirty := streamQUIS(t)
	want := auditTableReference(m, dirty)
	wantSus := want.Suspicious()
	_, wantTallies := m.TallyResult(want)

	for _, chunk := range columnarChunkSizes {
		for _, workers := range columnarWorkerCounts {
			t.Run(fmt.Sprintf("chunk=%d,workers=%d", chunk, workers), func(t *testing.T) {
				res, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{
					ChunkSize: chunk, Workers: workers, TopK: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.RowsChecked != int64(dirty.NumRows()) {
					t.Fatalf("RowsChecked %d, want %d", res.RowsChecked, dirty.NumRows())
				}
				if res.NumSuspicious != int64(len(wantSus)) {
					t.Fatalf("NumSuspicious %d, want %d", res.NumSuspicious, len(wantSus))
				}
				if len(res.Top) != len(wantSus) {
					t.Fatalf("stream ranked %d records, reference has %d", len(res.Top), len(wantSus))
				}
				requireSameRanking(t, wantSus, res.Top)
				requireSameTallies(t, wantTallies, res.Attrs)
			})
		}
	}
}

// TestColumnarDifferentialAllInducers runs the columnar-vs-reference
// contract once per induction algorithm on a small QUIS slice, so every
// kernel family is proven: the batched trie descent plus signature memo
// (rule sets), the columnar naive-Bayes kernel, and the per-row fallback
// (kNN, 1R, Prism, plain trees) all inside the full chunked loop.
func TestColumnarDifferentialAllInducers(t *testing.T) {
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable(sample.Data.Schema())
	for r := 0; r < 800; r++ {
		tab.AppendRow(sample.Data.Row(r))
	}
	for _, kind := range []InducerKind{
		InducerC45Audit, InducerC45, InducerID3,
		InducerNaiveBayes, InducerKNN, InducerOneR, InducerPrism,
	} {
		t.Run(string(kind), func(t *testing.T) {
			m, err := Induce(tab, Options{MinConfidence: 0.8, Inducer: kind})
			if err != nil {
				t.Fatal(err)
			}
			want := auditTableReference(m, tab)
			wantBytes := gobBytes(t, want)
			if got := m.AuditTable(tab); !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, got, tab))) {
				t.Fatal("columnar AuditTable differs from the reference")
			}
			if got := m.AuditTableParallel(tab, 4); !bytes.Equal(wantBytes, gobBytes(t, denseResult(t, got, tab))) {
				t.Fatal("AuditTableParallel differs from the reference")
			}
			res, err := m.AuditStream(dataset.NewTableSource(tab), StreamOptions{ChunkSize: 7, Workers: 2, TopK: -1})
			if err != nil {
				t.Fatal(err)
			}
			wantSus := want.Suspicious()
			if len(res.Top) != len(wantSus) {
				t.Fatalf("stream ranked %d records, reference has %d", len(res.Top), len(wantSus))
			}
			requireSameRanking(t, wantSus, res.Top)
			_, wantTallies := m.TallyResult(want)
			requireSameTallies(t, wantTallies, res.Attrs)
		})
	}
}
