package audit

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/nbayes"
)

// classOf names the class attribute an Instances set was built for: with
// the default base sets it is the one column missing from Base.
func classOf(ins *mlcore.Instances) int {
	for c := 0; c < ins.Table.NumCols(); c++ {
		if !slices.Contains(ins.Base, c) {
			return c
		}
	}
	return -1
}

// failingTrainer fails Train for the listed class attributes, after the
// given delay, and trains naive Bayes for every other one. It counts its
// Train calls.
type failingTrainer struct {
	fail  map[int]time.Duration
	calls atomic.Int64
}

func (f *failingTrainer) Name() string { return "failing" }

func (f *failingTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	f.calls.Add(1)
	class := classOf(ins)
	if delay, ok := f.fail[class]; ok {
		time.Sleep(delay)
		return nil, fmt.Errorf("boom on column %d", class)
	}
	return (&nbayes.Trainer{}).Train(ins)
}

// TestInduceReturnsLowestIndexedError: when several attributes fail, the
// error is the lowest-indexed attribute's, with the sequential text — even
// when a higher-indexed attribute fails first in time.
func TestInduceReturnsLowestIndexedError(t *testing.T) {
	tab := engineTable(t, 500, 5)
	want := "audit: attribute KBM: boom on column 1"
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr := &failingTrainer{fail: map[int]time.Duration{1: 30 * time.Millisecond, 3: 0}}
			_, err := Induce(tab, Options{Trainer: tr})
			if err == nil || err.Error() != want {
				t.Fatalf("got error %v, want %q", err, want)
			}
		})
	}
}

// TestReinduceAttrsRejectsBeforeTraining: an unmodelled, repeated or
// out-of-range attribute fails ReinduceAttrs before any classifier is
// trained, naming the attribute. A repeated attribute used to be accepted
// and, with a Prev table, had the row delta applied to it twice.
func TestReinduceAttrsRejectsBeforeTraining(t *testing.T) {
	tab := engineTable(t, 500, 5)
	tr := &failingTrainer{}
	m, err := Induce(tab, Options{Trainer: tr, SkipClasses: []string{"KBM"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		attrs []int
		want  string
	}{
		{[]int{0, 1}, "audit: reinduce: attribute KBM is not modelled"},
		{[]int{0, 2, 0}, "audit: reinduce: attribute BRV listed twice"},
		{[]int{3, 4}, "audit: reinduce: attribute index 4 out of range"},
	} {
		for _, mode := range []ReinduceMode{ReinduceFull, ReinduceIncremental} {
			tr.calls.Store(0)
			_, err := m.ReinduceAttrs(tab, tc.attrs, ReinduceOptions{Mode: mode, Prev: tab})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s %v: got error %v, want %q", mode, tc.attrs, err, tc.want)
			}
			if n := tr.calls.Load(); n != 0 {
				t.Fatalf("%s %v: %d Train calls before the rejection", mode, tc.attrs, n)
			}
		}
	}
}

// tableDiffText is the multiset diff keyed by a strconv rendering of each
// row — the oracle tableDiff's binary key must agree with.
func tableDiffText(prev, cur *dataset.Table) (added, removed *dataset.Table) {
	counts := make(map[string]int, prev.NumRows())
	prevKeys := make([]string, prev.NumRows())
	for r := 0; r < prev.NumRows(); r++ {
		k := textRowKey(prev.Row(r))
		prevKeys[r] = k
		counts[k]++
	}
	added = dataset.NewTable(cur.Schema())
	for r := 0; r < cur.NumRows(); r++ {
		row := cur.Row(r)
		if k := textRowKey(row); counts[k] > 0 {
			counts[k]--
		} else {
			added.AppendRow(row)
		}
	}
	removed = dataset.NewTable(prev.Schema())
	for r := 0; r < prev.NumRows(); r++ {
		if counts[prevKeys[r]] > 0 {
			counts[prevKeys[r]]--
			removed.AppendRow(prev.Row(r))
		}
	}
	return added, removed
}

func textRowKey(row []dataset.Value) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		switch {
		case v.IsNull():
			b.WriteByte('_')
		case v.IsNominal():
			b.WriteByte('n')
			b.WriteString(strconv.Itoa(v.NomIdx()))
		default:
			b.WriteByte('f')
			b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
		}
	}
	return b.String()
}

// TestTableDiffMatchesTextKey: the binary row key matches exactly the rows
// the text key matches — nulls, nominals and numbers distinct, -0 and +0
// distinct, every NaN equal — and added and removed come out row for row
// in the same order.
func TestTableDiffMatchesTextKey(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.NewNominal("A", "x", "y", "z"),
		dataset.NewNumeric("B", -10, 10),
	)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 0x5)
	pool := []dataset.Value{
		dataset.Null(), dataset.Nom(0), dataset.Nom(1), dataset.Num(1), dataset.Num(0),
		dataset.Num(math.Copysign(0, -1)), dataset.Num(math.NaN()), dataset.Num(otherNaN),
		dataset.Num(math.Inf(1)), dataset.Num(0.1),
	}
	if !math.IsNaN(otherNaN) || math.Float64bits(otherNaN) == math.Float64bits(math.NaN()) {
		t.Fatal("otherNaN must be a NaN with a different payload")
	}
	rows := func(rng *rand.Rand, n int) *dataset.Table {
		tab := dataset.NewTable(schema)
		for r := 0; r < n; r++ {
			tab.AppendRow([]dataset.Value{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]})
		}
		return tab
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		prev, cur := rows(rng, rng.Intn(60)), rows(rng, rng.Intn(60))
		gotA, gotR := tableDiff(prev, cur)
		wantA, wantR := tableDiffText(prev, cur)
		requireSameRows(t, "added", gotA, wantA)
		requireSameRows(t, "removed", gotR, wantR)
	}

	// The equivalences themselves, pinned: NaNs of different payloads
	// match, -0 does not match +0, Nom(1) does not match Num(1).
	one := func(a, b dataset.Value) *dataset.Table {
		tab := dataset.NewTable(schema)
		tab.AppendRow([]dataset.Value{dataset.Nom(2), a})
		tab.AppendRow([]dataset.Value{dataset.Nom(2), b})
		return tab
	}
	for _, tc := range []struct {
		prev, cur *dataset.Table
		match     bool
	}{
		{one(dataset.Num(math.NaN()), dataset.Null()), one(dataset.Num(otherNaN), dataset.Null()), true},
		{one(dataset.Num(0), dataset.Null()), one(dataset.Num(math.Copysign(0, -1)), dataset.Null()), false},
		{one(dataset.Nom(1), dataset.Null()), one(dataset.Num(1), dataset.Null()), false},
	} {
		added, removed := tableDiff(tc.prev, tc.cur)
		if got := added.NumRows() == 0 && removed.NumRows() == 0; got != tc.match {
			t.Fatalf("prev %v / cur %v: match %v, want %v", tc.prev.Row(0), tc.cur.Row(0), got, tc.match)
		}
	}
}

// requireSameRows compares two tables row for row, bit for bit (a NaN
// payload included).
func requireSameRows(t *testing.T, what string, got, want *dataset.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", what, got.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumCols(); c++ {
			g, _ := got.Get(r, c).GobEncode()
			w, _ := want.Get(r, c).GobEncode()
			if !bytes.Equal(g, w) {
				t.Fatalf("%s row %d: %v, want %v", what, r, got.Row(r), want.Row(r))
			}
		}
	}
}
