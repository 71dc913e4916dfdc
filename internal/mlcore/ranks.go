package mlcore

import (
	"math"
	"slices"
	"sync"

	"dataaudit/internal/dataset"
)

// RankTable orders one number-like column of a table. Rank[r] is row r's
// dense rank among the distinct values of the column over all its rows
// (-1 for a null cell), and Values holds those distinct values in
// ascending order, so a rank reads its value back as Values[rank]. -0 and
// +0 share a rank. NaN ranks after every number, at rank NaN =
// len(Values), and has no value. A rank table is read-only once built.
//
// Ranking all rows serves any subset of them: two values adjacent among a
// subset's values keep their order and their midpoint, whatever values
// of other rows lie between them, and the midpoint of either zero and a
// nonzero neighbour is the same.
type RankTable struct {
	Rank   []int32
	Values []float64
	NaN    uint64
}

// NewRankTable ranks every cell of a number-like column.
func NewRankTable(col []dataset.Value) *RankTable {
	values := make([]float64, 0, len(col))
	for _, v := range col {
		if !v.IsNull() && !math.IsNaN(v.Float()) {
			values = append(values, v.Float())
		}
	}
	slices.Sort(values)
	// Compact keeps one of -0 and +0.
	values = slices.Clip(slices.Compact(values))
	rt := &RankTable{Rank: make([]int32, len(col)), Values: values, NaN: uint64(len(values))}
	for r, v := range col {
		switch {
		case v.IsNull():
			rt.Rank[r] = -1
		case math.IsNaN(v.Float()):
			rt.Rank[r] = int32(rt.NaN)
		default:
			k, _ := slices.BinarySearch(values, v.Float())
			rt.Rank[r] = int32(k)
		}
	}
	return rt
}

// RankCache holds the column orders of one table for the duration of one
// induction call, so that every tree of the call reads a column once: a
// rank table per number-like column and a code vector per nominal column.
// Each is built the first time any tree asks for it and shared from then
// on; the cache is safe for concurrent use.
type RankCache struct {
	table *dataset.Table
	cols  []colSlot
}

type colSlot struct {
	rankOnce sync.Once
	rt       *RankTable
	codeOnce sync.Once
	codes    []int32
}

// NewRankCache returns an empty cache over the table's columns.
func NewRankCache(t *dataset.Table) *RankCache {
	return &RankCache{table: t, cols: make([]colSlot, t.NumCols())}
}

// Column returns the column's rank table, building it on first use. The
// column must be number-like.
func (c *RankCache) Column(col int) *RankTable {
	s := &c.cols[col]
	s.rankOnce.Do(func() { s.rt = NewRankTable(c.table.Column(col)) })
	return s.rt
}

// Codes returns the nominal column's code vector, building it on first
// use: each row's domain index, or -1 for a null cell. It is read-only.
func (c *RankCache) Codes(col int) []int32 {
	s := &c.cols[col]
	s.codeOnce.Do(func() {
		cells := c.table.Column(col)
		s.codes = make([]int32, len(cells))
		for r, v := range cells {
			s.codes[r] = -1
			if !v.IsNull() {
				s.codes[r] = int32(v.NomIdx())
			}
		}
	})
	return s.codes
}

// Built counts the columns ranked so far; code vectors do not count. Call
// it once the cache's users have finished.
func (c *RankCache) Built() int {
	n := 0
	for i := range c.cols {
		if c.cols[i].rt != nil {
			n++
		}
	}
	return n
}
