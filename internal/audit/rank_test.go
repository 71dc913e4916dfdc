package audit

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dataaudit/internal/dataset"
)

// referenceRanking is the ranking of §6.2 written the plain way: the
// suspicious reports in row order, stably sorted by descending error
// confidence, so ties keep row order.
func referenceRanking(reps []RecordReport) []RecordReport {
	var out []RecordReport
	for _, rep := range reps {
		if rep.Suspicious {
			out = append(out, rep)
		}
	}
	slices.SortStableFunc(out, func(a, b RecordReport) int { return cmp.Compare(b.ErrorConf, a.ErrorConf) })
	return out
}

// sameRanking compares rows, IDs and confidence bits, so ±0 and NaN are
// told apart where reflect.DeepEqual would not.
func sameRanking(t *testing.T, what string, got, want []RecordReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Row != w.Row || g.ID != w.ID || math.Float64bits(g.ErrorConf) != math.Float64bits(w.ErrorConf) {
			t.Fatalf("%s: rank %d is row %d (conf %v), want row %d (conf %v)", what, i, g.Row, g.ErrorConf, w.Row, w.ErrorConf)
		}
	}
}

// TestRankingMatchesStableSortQUIS holds Suspicious and the stream's
// top-K to the reference ranking on the 55 k-row QUIS fixture, whose
// memoised signatures give many suspicious rows the same confidence.
func TestRankingMatchesStableSortQUIS(t *testing.T) {
	m, dirty := streamQUIS(t)
	res := m.AuditTable(dirty)
	want := referenceRanking(res.Reports)
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].ErrorConf == want[i-1].ErrorConf {
			ties++
		}
	}
	if ties < len(want)/2 {
		t.Fatalf("only %d of %d ranked reports tie with their predecessor: the fixture no longer tests tie-breaking", ties, len(want))
	}
	got := res.Suspicious()
	sameRanking(t, "Suspicious", got, want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Suspicious: the reports differ from the reference ranking's")
	}
	for _, k := range []int{1, 25, 100, -1} {
		sr, err := m.AuditStream(dataset.NewTableSource(dirty), StreamOptions{TopK: k, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		n := len(want)
		if k > 0 {
			n = k
		}
		sameRanking(t, "AuditStream top-K", sr.Top, want[:n])
		if !reflect.DeepEqual(sr.Top, want[:n]) {
			t.Fatalf("top-%d: the reports differ from the reference ranking's", k)
		}
	}
}

// TestRankingMatchesStableSortEdges holds Suspicious and topK to the
// reference ranking on hand-built reports with tied confidences, ±0, a
// NaN and infinities marked suspicious, below and above the length at
// which sortRanks switches from insertion to radix sort.
func TestRankingMatchesStableSortEdges(t *testing.T) {
	confs := []float64{0.9, 0.95, 1, 0.8, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 0.9 + 1e-16}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 5, 32, 33, 300, 2000} {
		for _, distinct := range []bool{false, true} {
			res := &Result{Reports: make([]RecordReport, n)}
			for i := range res.Reports {
				conf := confs[rng.Intn(len(confs))]
				if distinct {
					conf = rng.Float64()
				}
				res.Reports[i] = RecordReport{Row: i, ID: int64(1000 + i), ErrorConf: conf, Suspicious: rng.Intn(8) != 0}
			}
			want := referenceRanking(res.Reports)
			sameRanking(t, "Suspicious", res.Suspicious(), want)
			for _, k := range []int{1, 2, 3, 16, 17, 25, 100, -1} {
				var top topK
				for i := range res.Reports {
					if rep := res.Reports[i]; rep.Suspicious {
						top.offer(&rep, k)
					}
				}
				m := len(want)
				if k >= 0 {
					m = min(k, m)
				}
				sameRanking(t, "topK", top.best(k), want[:m])
			}
		}
	}
}
