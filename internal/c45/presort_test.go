package c45

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// presortTable draws a table of two numeric and two nominal columns and a
// nominal class that depends on three of them, so trees split on both
// kinds. Every base column has nulls, so a split sends missing rows to
// several children with fractional weights; x draws from a pool with
// heavy ties, NaN and both zeros.
func presortTable(rng *rand.Rand, n int) *dataset.Table {
	s := dataset.MustSchema(
		dataset.NewNumeric("x", -1e308, 1e308),
		dataset.NewNumeric("y", -1e308, 1e308),
		dataset.NewNominal("a", "a0", "a1", "a2"),
		dataset.NewNominal("b", "b0", "b1", "b2", "b3", "b4"),
		dataset.NewNominal("class", "c0", "c1", "c2"),
	)
	pool := []float64{-2.5, math.Copysign(0, -1), 0, math.NaN(), 0.1, 0.3, 1, 7, 7.5}
	nullP := []float64{0, 0.05, 0.2}[rng.Intn(3)]
	noise := []float64{0, 0.05, 0.2}[rng.Intn(3)]
	tab := dataset.NewTable(s)
	for r := 0; r < n; r++ {
		x := pool[rng.Intn(len(pool))]
		y := float64(rng.Intn(40)) / 4
		a, b := rng.Intn(3), rng.Intn(5)
		c := 0
		switch {
		case x > 0.2 && a != 2:
			c = 1
		case y > 6:
			c = 2
		}
		if rng.Float64() < noise {
			c = rng.Intn(3)
		}
		row := []dataset.Value{dataset.Num(x), dataset.Num(y), dataset.Nom(a), dataset.Nom(b), dataset.Nom(c)}
		for col := 0; col < 4; col++ {
			if rng.Float64() < nullP {
				row[col] = dataset.Null()
			}
		}
		if rng.Intn(20) == 0 {
			row[4] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

// presortInstances weights the rows whole, or with the fractions a
// missing-value split hands down, whose totals land on the minLeaf edges.
func presortInstances(t *testing.T, rng *rand.Rand, tab *dataset.Table) *mlcore.Instances {
	ins := buildInstances(t, tab, []int{0, 1, 2, 3})
	if rng.Intn(2) == 0 {
		shares := []float64{1, 0.5, 1.5, 7.0 / 13, 6.0 / 13, 1.0 / 3, 0.1}
		for i := range ins.Weights {
			ins.Weights[i] = shares[rng.Intn(len(shares))]
		}
	}
	return ins
}

// TestPresortedListsMatchNodeSort: the key list every searching node
// reads — carried down by partition or sorted where the parent did not
// search — equals the node's own sort of its keys, on cold trees and on
// warm trees whose hints partly fail.
func TestPresortedListsMatchNodeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	inherited, below := 0, 0
	for trial := 0; trial < 60; trial++ {
		tab := presortTable(rng, 100+rng.Intn(400))
		opts := []Options{{UseGainRatio: true}, {}, {UseGainRatio: true, MinInst: 3, ExpErrConfPrune: true, MinErrConf: 0.5}}[rng.Intn(3)]
		grow := func(ins *mlcore.Instances, prev *Skeleton) *Node {
			g := newGrower(ins, opts.WithDefaults())
			g.searched = func(rows []int, lists [][]uint64, inh bool) {
				if inh {
					inherited++
				} else if len(rows) < len(ins.Rows)-10 {
					below++ // a warm fallback under a hint that held
				}
				for j, attr := range g.numeric {
					if want := g.appendSortedKeys(nil, attr, rows); !slices.Equal(lists[j], want) {
						t.Fatalf("trial %d: %d-row node's list for column %d is %v, its sort gives %v", trial, len(rows), attr, lists[j], want)
					}
				}
			}
			var rows []int
			var weights []float64
			for i, r := range ins.Rows {
				if ins.Class[r] >= 0 {
					rows, weights = append(rows, r), append(weights, ins.Weights[i])
				}
			}
			return g.grow(g.rootSet(rows, weights), len(ins.Base), prev)
		}
		cold := grow(presortInstances(t, rng, tab), nil)
		// Relabel a few rows and re-weight: some hints hold, others fail
		// and search below them.
		for r := 0; r < tab.NumRows(); r++ {
			if rng.Intn(10) == 0 {
				tab.Set(r, 4, dataset.Nom(rng.Intn(3)))
			}
		}
		grow(presortInstances(t, rng, tab), skeletonOf(cold))
	}
	if inherited < 500 || below < 20 {
		t.Fatalf("%d inherited lists and %d warm fallbacks below a held hint checked; the inputs are too thin", inherited, below)
	}
}

// rankSharingTable draws a table in which the two nominal columns are
// both class attributes: -0 appears only in rows whose b is null, +0 only
// in rows whose a is null, and 0.75 only where a is null, so a tree that
// ranks its own rows sees other values than the call's shared table.
func rankSharingTable(rng *rand.Rand, n int) *dataset.Table {
	s := dataset.MustSchema(
		dataset.NewNumeric("x", -10, 10),
		dataset.NewNumeric("y", 0, 10),
		dataset.NewNominal("a", "a0", "a1"),
		dataset.NewNominal("b", "b0", "b1"),
	)
	tab := dataset.NewTable(s)
	pool := []float64{-1, math.Copysign(0, -1), 0, 0.75, 1, 2, 3}
	for r := 0; r < n; r++ {
		x, y := pool[rng.Intn(len(pool))], float64(rng.Intn(11))
		a, b := dataset.Nom(0), dataset.Nom(0)
		if x > 0.5 {
			a = dataset.Nom(1)
		}
		if x > 1.5 || y > 7 {
			b = dataset.Nom(1)
		}
		if rng.Intn(10) == 0 {
			a, b = dataset.Nom(rng.Intn(2)), dataset.Nom(rng.Intn(2))
		}
		switch {
		case x == 0 && math.Signbit(x):
			b = dataset.Null()
		case x == 0, x == 0.75:
			a = dataset.Null()
		}
		tab.AppendRow([]dataset.Value{dataset.Num(x), dataset.Num(y), a, b})
	}
	return tab
}

// ownRowsTable copies tab with the numeric cells of the rows whose class
// is null nulled, so that ranking every row of the copy ranks exactly the
// rows a tree of that class reads.
func ownRowsTable(tab *dataset.Table, class int) *dataset.Table {
	own := tab.Clone()
	for r := 0; r < own.NumRows(); r++ {
		if own.Get(r, class).IsNull() {
			own.Set(r, 0, dataset.Null())
			own.Set(r, 1, dataset.Null())
		}
	}
	return own
}

func treeBytes(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tree); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedRanksMatchPerTreeRanks: the trees of one call read rank
// tables of all the table's rows from one shared cache, and each comes
// out gob-identical to a tree that ranks only its own rows.
func TestSharedRanksMatchPerTreeRanks(t *testing.T) {
	bits := func(vs []float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	rng := rand.New(rand.NewSource(4848))
	for trial := 0; trial < 20; trial++ {
		tab := rankSharingTable(rng, 200+rng.Intn(300))
		shared := mlcore.NewRankCache(tab)
		for _, class := range []int{2, 3} {
			base := []int{0, 1, 5 - class}
			classOf := func(tab *dataset.Table) func(int) int {
				return func(r int) int {
					if v := tab.Get(r, class); !v.IsNull() {
						return v.NomIdx()
					}
					return -1
				}
			}
			own := ownRowsTable(tab, class)
			if class == 2 && slices.Equal(bits(shared.Column(0).Values), bits(mlcore.NewRankTable(own.Column(0)).Values)) {
				t.Fatalf("trial %d: class a's rows rank column x like the whole table; the fixture tests nothing", trial)
			}
			for _, opts := range []Options{{UseGainRatio: true, Prune: true}, {}, {UseGainRatio: true, MinInst: 3, ExpErrConfPrune: true, MinErrConf: 0.6}} {
				tr := &Trainer{Opts: opts}
				ins := mlcore.NewInstances(tab, base, 2, classOf(tab))
				ins.Ranks = shared
				got, err := tr.TrainTree(ins)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tr.TrainTree(mlcore.NewInstances(own, base, 2, classOf(own)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(treeBytes(t, got), treeBytes(t, want)) {
					t.Fatalf("trial %d, class %d, %+v: the shared-rank tree differs from the own-rank tree", trial, class, opts)
				}
			}
		}
	}
}
