package dataset

import (
	"math"
	"testing"
	"time"
)

func hashTestSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		NewNominal("color", "red", "green", "blue"),
		NewNumeric("size", 0, 100),
		NewDate("seen", time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)),
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

// TestHashTableChunkAgreement: a table cell hashed as a Value agrees with
// the same cell hashed from a chunk's typed vectors (up to the per-column
// keying HashChunkCell adds), including null, -0 and dates.
func TestHashTableChunkAgreement(t *testing.T) {
	s := hashTestSchema(t)
	tab := NewTable(s)
	day := time.Date(2003, 5, 1, 0, 0, 0, 0, time.UTC)
	rows := [][]Value{
		{Nom(0), Num(1.5), DateValue(day)},
		{Null(), Num(math.Copysign(0, -1)), Null()},
		{Nom(2), Null(), DateValue(day.AddDate(0, 1, 0))},
		{Nom(1), Num(99), DateValue(day)},
	}
	for _, row := range rows {
		tab.AppendRow(row)
	}
	ck := NewColumnChunk(s)
	tab.ChunkInto(ck, 0, tab.NumRows())

	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < s.Len(); c++ {
			vh, ch := Mix64(HashValue(tab.Get(r, c))^colSeed(c)), HashChunkCell(ck, r, c)
			if vh != ch {
				t.Errorf("cell (%d,%d): value hash %x != chunk hash %x", r, c, vh, ch)
			}
		}
	}
}

func TestHashCanonicalization(t *testing.T) {
	if HashFloat(math.Copysign(0, -1)) != HashFloat(0) {
		t.Errorf("-0 and +0 hash differently")
	}
	if HashValue(Null()) == HashValue(Num(math.NaN())) {
		t.Errorf("null and NaN collide — they are distinct cell states")
	}
	if HashValue(Nom(0)) == HashValue(Num(0)) {
		t.Errorf("Nom(0) and Num(0) collide")
	}
	// Same payload in different columns must not produce the same keyed
	// cell hash (column seeds decorrelate the streams).
	s := hashTestSchema(t)
	tab := NewTable(s)
	tab.AppendRow([]Value{Null(), Null(), Null()})
	ck := NewColumnChunk(s)
	tab.ChunkInto(ck, 0, 1)
	if HashChunkCell(ck, 0, 0) == HashChunkCell(ck, 0, 1) {
		t.Errorf("null cells in different columns hash identically")
	}
}

func TestHashRowDiscriminates(t *testing.T) {
	s := hashTestSchema(t)
	tab := NewTable(s)
	tab.AppendRow([]Value{Nom(0), Num(1), Null()})
	tab.AppendRow([]Value{Nom(0), Num(1), Null()}) // exact duplicate of row 0
	tab.AppendRow([]Value{Nom(1), Num(1), Null()})
	ck := NewColumnChunk(s)
	tab.ChunkInto(ck, 0, 3)
	if HashChunkRow(ck, 0, nil) != HashChunkRow(ck, 1, nil) {
		t.Errorf("identical rows hash differently")
	}
	if HashChunkRow(ck, 0, nil) == HashChunkRow(ck, 2, nil) {
		t.Errorf("distinct rows collide")
	}
	// Restricted to the columns on which they agree, they hash equal.
	if HashChunkRow(ck, 0, []int{1, 2}) != HashChunkRow(ck, 2, []int{1, 2}) {
		t.Errorf("rows equal on cols 1,2 hash differently when keyed on them")
	}
}

func TestChunkColNullCount(t *testing.T) {
	s := hashTestSchema(t)
	tab := NewTable(s)
	const n = 200 // spans multiple bitmap words plus a tail
	wantNulls := int64(0)
	for i := 0; i < n; i++ {
		row := []Value{Nom(int(i % 3)), Num(float64(i)), Null()}
		if i%7 == 0 {
			row[1] = Null()
			wantNulls++
		}
		tab.AppendRow(row)
	}
	ck := NewColumnChunk(s)
	tab.ChunkInto(ck, 0, n)
	if got := ck.Col(1).NullCount(n); got != wantNulls {
		t.Errorf("NullCount(size) = %d, want %d", got, wantNulls)
	}
	if got := ck.Col(0).NullCount(n); got != 0 {
		t.Errorf("NullCount(color) = %d, want 0", got)
	}
	if got := ck.Col(2).NullCount(n); got != int64(n) {
		t.Errorf("NullCount(seen) = %d, want %d", got, n)
	}
	// Prefix counts must honour the tail mask.
	if got := ck.Col(1).NullCount(8); got != 2 { // rows 0 and 7
		t.Errorf("NullCount(size, 8) = %d, want 2", got)
	}
	if got := ck.Col(1).NullCount(0); got != 0 {
		t.Errorf("NullCount(size, 0) = %d, want 0", got)
	}
}
