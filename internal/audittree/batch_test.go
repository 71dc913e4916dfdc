package audittree

import (
	"math/rand"
	"sort"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// mixedSchema has a numeric and a nominal feature, so the batch matcher's
// two-way threshold scatter and counting scatter are both exercised.
func mixedSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNumeric("X", 0, 100),
		dataset.NewNominal("A", "a", "b", "c"),
		dataset.NewNominal("C", "c0", "c1", "c2"),
	)
}

// mixedTable: C = c0 when X <= 30, else c1 when A = b, else c2 — with a
// little noise so the leaves keep real distributions, plus nulls in both
// features.
func mixedTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(mixedSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		a := rng.Intn(3)
		c := 2
		if x <= 30 {
			c = 0
		} else if a == 1 {
			c = 1
		}
		if rng.Float64() < 0.02 {
			c = rng.Intn(3)
		}
		row := []dataset.Value{dataset.Num(x), dataset.Nom(a), dataset.Nom(c)}
		if rng.Float64() < 0.03 {
			row[0] = dataset.Null()
		}
		if rng.Float64() < 0.03 {
			row[1] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

// trainMixedRuleSet induces the audit-style rule set over the fixture.
func trainMixedRuleSet(t testing.TB, tab *dataset.Table) *RuleSet {
	t.Helper()
	ins := mlcore.NewInstances(tab, []int{0, 1}, 3, func(r int) int {
		v := tab.Get(r, 2)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
	rs, err := (&Trainer{Opts: Options{MinConfidence: 0.8}}).TrainRuleSet(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) == 0 {
		t.Fatal("fixture trained an empty rule set")
	}
	return rs
}

// linearMatch is the batch matcher's oracle: the documented first-match
// linear scan over Rule.Matches, independent of the trie and of the
// columnar partitioning.
func linearMatch(rs *RuleSet, row []dataset.Value) int {
	for i := range rs.Rules {
		if rs.Rules[i].Matches(row) {
			return i
		}
	}
	return -1
}

// blockAssignment flattens MatchRows' groups the groups into a per-row
// rule index (-1 = no match), failing if any row appears twice.
func blockAssignment(t *testing.T, groups []MatchGroup, n int) []int {
	t.Helper()
	got := make([]int, n)
	for r := range got {
		got[r] = -1
	}
	for _, g := range groups {
		for _, r := range g.Rows {
			if got[r] != -1 {
				t.Fatalf("row %d appears in two groups", r)
			}
			got[r] = g.Rule
		}
	}
	return got
}

// TestMatchRowsMatchesLinearScan holds the columnar descent over every row
// of a chunk to the linear-scan oracle row by row, for chunks above the
// partitioned path's threshold and small chunks that take the scalar walk.
func TestMatchRowsMatchesLinearScan(t *testing.T) {
	tab := mixedTable(t, 5000, 11)
	rs := trainMixedRuleSet(t, tab)
	var s MatchScratch

	all := make([]int32, tab.NumRows())
	for i := range all {
		all[i] = int32(i)
	}
	for _, chunkRows := range []int{5000, smallGroupRows, 17, 1} {
		ck := dataset.NewColumnChunk(tab.Schema())
		row := make([]dataset.Value, tab.NumCols())
		for lo := 0; lo < tab.NumRows(); lo += chunkRows {
			hi := min(lo+chunkRows, tab.NumRows())
			tab.ChunkInto(ck, lo, hi)
			got := blockAssignment(t, rs.MatchRows(ck, all[:hi-lo], &s), hi-lo)
			for r := lo; r < hi; r++ {
				tab.RowInto(r, row)
				if want := linearMatch(rs, row); got[r-lo] != want {
					t.Fatalf("chunk=%d row %d: block matched rule %d, linear scan %d", chunkRows, r, got[r-lo], want)
				}
			}
		}
	}
}

// TestMatchRowsSubset checks the subset variant only touches the listed
// rows and agrees with the oracle on them.
func TestMatchRowsSubset(t *testing.T) {
	tab := mixedTable(t, 3000, 13)
	rs := trainMixedRuleSet(t, tab)
	ck := dataset.NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, tab.NumRows())

	var rows []int32
	inSubset := make(map[int32]bool)
	for r := int32(0); int(r) < tab.NumRows(); r += 3 {
		rows = append(rows, r)
		inSubset[r] = true
	}
	var s MatchScratch
	groups := rs.MatchRows(ck, rows, &s)
	row := make([]dataset.Value, tab.NumCols())
	matched := make(map[int32]int)
	for _, g := range groups {
		for _, r := range g.Rows {
			if !inSubset[r] {
				t.Fatalf("row %d matched but was not in the subset", r)
			}
			matched[r] = g.Rule
		}
	}
	for _, r := range rows {
		tab.RowInto(int(r), row)
		want := linearMatch(rs, row)
		got, hit := matched[r]
		if !hit {
			got = -1
		}
		if got != want {
			t.Fatalf("row %d: subset matched rule %d, linear scan %d", r, got, want)
		}
	}
}

// TestNumericSplitsCoversDecisions checks NumericSplits' contract: the
// visited thresholds are a decision-complete grid — two values falling
// between the same adjacent thresholds are indistinguishable to the
// matcher, whatever the other attributes hold.
func TestNumericSplitsCoversDecisions(t *testing.T) {
	tab := mixedTable(t, 5000, 17)
	rs := trainMixedRuleSet(t, tab)

	var grid []float64
	rs.NumericSplits(func(attr int, thresh float64) {
		if attr != 0 {
			t.Fatalf("visited a split on attribute %d; only column 0 is numeric", attr)
		}
		grid = append(grid, thresh)
	})
	if len(grid) == 0 {
		t.Fatal("fixture rule set tests no numeric thresholds")
	}
	sort.Float64s(grid)

	// Probe pairs of values inside every grid cell (and beyond both
	// ends): same cell must mean same matched rule for every nominal
	// context.
	cells := [][2]float64{{grid[0] - 2, grid[0] - 1}}
	for i := 0; i+1 < len(grid); i++ {
		if grid[i+1] > grid[i] {
			lo := grid[i]
			w := grid[i+1] - grid[i]
			cells = append(cells, [2]float64{lo + w/3, lo + 2*w/3})
		}
	}
	cells = append(cells, [2]float64{grid[len(grid)-1] + 1, grid[len(grid)-1] + 2})
	row := make([]dataset.Value, tab.NumCols())
	for _, cell := range cells {
		for a := 0; a < 3; a++ {
			row[1], row[2] = dataset.Nom(a), dataset.Null()
			row[0] = dataset.Num(cell[0])
			m1 := linearMatch(rs, row)
			row[0] = dataset.Num(cell[1])
			m2 := linearMatch(rs, row)
			if m1 != m2 {
				t.Fatalf("values %v and %v (same grid cell, A=%d) matched rules %d and %d",
					cell[0], cell[1], a, m1, m2)
			}
		}
	}
}
