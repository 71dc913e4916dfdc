package mlcore

import (
	"math"
	"slices"
	"sync"
	"testing"

	"dataaudit/internal/dataset"
)

func rankFixture() *dataset.Table {
	tab := dataset.NewTable(dataset.MustSchema(dataset.NewNumeric("x", -10, 10)))
	for _, v := range []dataset.Value{
		dataset.Num(3), dataset.Null(), dataset.Num(math.Copysign(0, -1)), dataset.Num(math.NaN()),
		dataset.Num(-1), dataset.Num(3), dataset.Num(0), dataset.Num(7.5),
	} {
		tab.AppendRow([]dataset.Value{v})
	}
	return tab
}

// TestRankTableRanksEveryRow: dense ranks over the distinct numbers, the
// zeros sharing one, nulls at -1 and NaN after every number.
func TestRankTableRanksEveryRow(t *testing.T) {
	rt := NewRankTable(rankFixture().Column(0))
	if want := []int32{2, -1, 1, 4, 0, 2, 1, 3}; !slices.Equal(rt.Rank, want) {
		t.Fatalf("ranks %v, want %v", rt.Rank, want)
	}
	if !slices.Equal(rt.Values, []float64{-1, 0, 3, 7.5}) || rt.NaN != 4 {
		t.Fatalf("values %v, NaN rank %d", rt.Values, rt.NaN)
	}
}

// TestRankCacheBuildsOnceForItsTable: concurrent users of one cache get
// one table per column, and instances over another table get a cache of
// their own.
func TestRankCacheBuildsOnceForItsTable(t *testing.T) {
	tab := rankFixture()
	c := NewRankCache(tab)
	if c.Built() != 0 {
		t.Fatal("a new cache has ranked a column")
	}
	got := make([]*RankTable, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Column(0)
		}()
	}
	wg.Wait()
	for _, rt := range got[1:] {
		if rt != got[0] {
			t.Fatal("one column was ranked twice")
		}
	}
	if c.Built() != 1 {
		t.Fatalf("Built() = %d, want 1", c.Built())
	}

	ins := NewInstances(tab, []int{0}, 1, func(int) int { return 0 })
	ins.Ranks = c
	if ins.RankCache() != c {
		t.Fatal("instances over the cache's table do not use it")
	}
	other := NewInstances(tab.Clone(), []int{0}, 1, func(int) int { return 0 })
	other.Ranks = c
	if fresh := other.RankCache(); fresh == c || fresh.Built() != 0 {
		t.Fatal("instances over another table reuse its cache")
	}
}
