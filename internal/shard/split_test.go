package shard

import (
	"reflect"
	"testing"

	"dataaudit/internal/dataset"
)

func splitFixture(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	s := dataset.MustSchema(
		dataset.NewNominal("c", "a", "b", "c"),
		dataset.NewNumeric("x", 0, 1e6),
	)
	tab := dataset.NewTable(s)
	row := make([]dataset.Value, 2)
	for r := 0; r < rows; r++ {
		row[0] = dataset.Nom(r % 3)
		row[1] = dataset.Num(float64(r%97) * 1.5)
		if r%13 == 0 {
			row[0] = dataset.Null()
		}
		if r%17 == 0 {
			row[1] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

// TestSplitPartition: for several shard counts, every row lands in
// exactly one shard, ascending within its shard.
func TestSplitPartition(t *testing.T) {
	tab := splitFixture(t, 503)
	for _, n := range []int{1, 2, 4, 8, 700} {
		shards, err := Split(tab, StrategyRange, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != n {
			t.Fatalf("%d: %d shards", n, len(shards))
		}
		seen := make([]bool, tab.NumRows())
		for s, rows := range shards {
			prev := -1
			for _, r := range rows {
				if r <= prev {
					t.Fatalf("%d shard %d: rows not ascending (%d after %d)", n, s, r, prev)
				}
				prev = r
				if seen[r] {
					t.Fatalf("%d: row %d assigned twice", n, r)
				}
				seen[r] = true
			}
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("%d: row %d unassigned", n, r)
			}
		}
	}
}

// TestSplitRangeContiguous: range shards are contiguous and ordered, so
// concatenating them in shard order reproduces 0..n-1 — the property the
// MergeResults merge path rests on.
func TestSplitRangeContiguous(t *testing.T) {
	tab := splitFixture(t, 100)
	shards, err := Split(tab, StrategyRange, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for s, rows := range shards {
		for _, r := range rows {
			if r != next {
				t.Fatalf("shard %d: row %d, want %d", s, r, next)
			}
			next++
		}
	}
	if next != tab.NumRows() {
		t.Fatalf("concatenation covers %d rows, want %d", next, tab.NumRows())
	}
}

// TestSplitDeterministic: same table, same count → same split.
func TestSplitDeterministic(t *testing.T) {
	tab := splitFixture(t, 400)
	a, err := Split(tab, StrategyRange, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(tab, StrategyRange, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("split not deterministic")
	}
}

func TestSplitRejectsBadCount(t *testing.T) {
	tab := splitFixture(t, 10)
	if _, err := Split(tab, StrategyRange, 0); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	if _, err := Split(tab, Strategy("bogus"), 2); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}
