package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ColumnChunk is a typed, columnar block of rows: nominal attributes are
// stored as encoded domain indices ([]int32), numeric and date attributes
// as their float64 payloads, with a per-column null bitmap. It is the unit
// the chunked scoring core (audit.CheckChunk) operates on — kernels read
// whole columns without per-cell interface dispatch or Value unboxing.
//
// Chunks are reusable buffers: Reset keeps the column capacity, so a
// fill/score loop reaches a steady state with zero allocations. A chunk is
// not safe for concurrent mutation; the streaming engine gives each chunk
// to exactly one goroutine at a time.
type ColumnChunk struct {
	schema *Schema
	cols   []ChunkCol
	ids    []int64
	n      int
}

// ChunkCol is one typed column of a ColumnChunk. Exactly one of Nom and
// Num is populated, matching the attribute type: Nom for nominal
// attributes (domain index, -1 at null rows), Num for numeric and date
// attributes (NaN at null rows). Nulls are tracked authoritatively in a
// bitmap queried via Null; the in-band null encodings (-1 / NaN) exist so
// scan kernels whose tests already reject them — a domain-bounds check, a
// threshold comparison — can skip the bitmap load entirely.
type ChunkCol struct {
	// Nom holds the domain index per row for a nominal column; -1 at
	// null rows.
	Nom []int32
	// Num holds the float64 payload per row for a numeric or date column.
	Num []float64

	nulls []uint64 // bit r set ⇒ row r is null
}

// Null reports whether row r of the column is null.
func (c *ChunkCol) Null(r int) bool {
	return c.nulls[uint(r)>>6]&(1<<(uint(r)&63)) != 0
}

// NullCount counts the null rows among the first n rows of the column by
// popcounting the bitmap, so the quality dimensions can measure
// completeness without a per-row scan.
func (c *ChunkCol) NullCount(n int) int64 {
	var total int64
	full := n >> 6
	for w := 0; w < full; w++ {
		total += int64(bits.OnesCount64(c.nulls[w]))
	}
	if tail := uint(n) & 63; tail != 0 {
		total += int64(bits.OnesCount64(c.nulls[full] & (1<<tail - 1)))
	}
	return total
}

// nullWords returns the bitmap length (in words) needed for n rows.
func nullWords(n int) int { return (n + 63) / 64 }

// ChunkRowBytes is the memory one row occupies in a ColumnChunk over the
// schema: 4 bytes per nominal cell, 8 per numeric or date cell, one null
// bit per cell (rounded up to whole bytes) and the 8-byte record ID. It is
// what callers bounding a chunk pool divide their byte budget by.
func ChunkRowBytes(s *Schema) int {
	n := 8 + (s.Len()+7)/8
	for c := 0; c < s.Len(); c++ {
		if s.Attr(c).Type == NominalType {
			n += 4
		} else {
			n += 8
		}
	}
	return n
}

// NewColumnChunk returns an empty chunk over the schema.
func NewColumnChunk(s *Schema) *ColumnChunk {
	return &ColumnChunk{schema: s, cols: make([]ChunkCol, s.Len())}
}

// Schema returns the schema the chunk's columns conform to.
func (ck *ColumnChunk) Schema() *Schema { return ck.schema }

// Rows returns the number of rows currently in the chunk.
func (ck *ColumnChunk) Rows() int { return ck.n }

// ID returns the record identifier of row r.
func (ck *ColumnChunk) ID(r int) int64 { return ck.ids[r] }

// Col returns column c for direct kernel access. The returned pointer is
// valid until the next AppendRow or Reset.
func (ck *ColumnChunk) Col(c int) *ChunkCol { return &ck.cols[c] }

// Reset empties the chunk, keeping all column capacity for reuse.
func (ck *ColumnChunk) Reset() {
	ck.n = 0
	ck.ids = ck.ids[:0]
	for c := range ck.cols {
		col := &ck.cols[c]
		col.Nom = col.Nom[:0]
		col.Num = col.Num[:0]
		col.nulls = col.nulls[:0]
	}
}

// AppendRow appends one row (in schema order) with the given record ID.
// It panics on arity mismatch or when a non-null value's kind disagrees
// with the attribute type, exactly as Table.AppendRow and the Value
// accessors would.
func (ck *ColumnChunk) AppendRow(row []Value, id int64) {
	if len(row) != len(ck.cols) {
		panic(fmt.Sprintf("dataset: AppendRow arity %d != %d", len(row), len(ck.cols)))
	}
	r := ck.n
	word, bit := uint(r)>>6, uint64(1)<<(uint(r)&63)
	for c := range ck.cols {
		col := &ck.cols[c]
		if int(word) >= len(col.nulls) {
			col.nulls = append(col.nulls, 0)
		}
		v := row[c]
		if ck.schema.Attr(c).Type == NominalType {
			if v.IsNull() {
				col.nulls[word] |= bit
				col.Nom = append(col.Nom, -1)
			} else {
				col.Nom = append(col.Nom, int32(v.NomIdx()))
			}
		} else {
			if v.IsNull() {
				col.nulls[word] |= bit
				col.Num = append(col.Num, math.NaN())
			} else {
				col.Num = append(col.Num, v.Float())
			}
		}
	}
	ck.ids = append(ck.ids, id)
	ck.n++
}

// appendRecord parses one record of byte cells straight into the typed
// column vectors. The row is committed only once every cell parsed: on
// a parse error every column is cut back to the rows before it, so the
// chunk stays aligned, and the error is returned.
func (ck *ColumnChunk) appendRecord(rec [][]byte, id int64) error {
	r := ck.n
	word, bit := r>>6, uint64(1)<<(uint(r)&63)
	if bit == 1 {
		for c := range ck.cols {
			ck.cols[c].nulls = append(ck.cols[c].nulls[:word], 0)
		}
	}
	for c, a := range ck.schema.attrs {
		v, err := a.parseBytes(rec[c])
		if err != nil {
			for i := range ck.cols {
				col := &ck.cols[i]
				col.Nom, col.Num = col.Nom[:min(len(col.Nom), r)], col.Num[:min(len(col.Num), r)]
				col.nulls = col.nulls[:nullWords(r)]
				if word < len(col.nulls) {
					col.nulls[word] &^= bit
				}
			}
			return err
		}
		col := &ck.cols[c]
		switch {
		case v.kind == kindNominal:
			col.Nom = append(col.Nom, v.idx)
		case v.kind == kindNumber:
			col.Num = append(col.Num, v.num)
		case a.Type == NominalType:
			col.nulls[word] |= bit
			col.Nom = append(col.Nom, -1)
		default:
			col.nulls[word] |= bit
			col.Num = append(col.Num, math.NaN())
		}
	}
	ck.ids = append(ck.ids, id)
	ck.n++
	return nil
}

// Value reconstructs the Value at (row, col).
func (ck *ColumnChunk) Value(r, c int) Value {
	col := &ck.cols[c]
	if col.Null(r) {
		return Null()
	}
	if ck.schema.Attr(c).Type == NominalType {
		return Nom(int(col.Nom[r]))
	}
	return Num(col.Num[r])
}

// RowInto reconstructs row r into buf (which must have the schema's
// arity) and returns it. The row-path fallback of the chunked scorer uses
// this to hand rows to classifiers without a batch kernel.
func (ck *ColumnChunk) RowInto(r int, buf []Value) []Value {
	for c := range ck.cols {
		buf[c] = ck.Value(r, c)
	}
	return buf
}

// appendTableRows appends rows [lo, hi) of the table, preserving the
// table's record IDs. The copy is column-wise: one type test per column,
// not per cell kind switch in the inner loop.
func (ck *ColumnChunk) appendTableRows(t *Table, lo, hi int) {
	if t.schema != ck.schema && t.schema.Len() != ck.schema.Len() {
		panic(fmt.Sprintf("dataset: chunk arity %d != table arity %d", ck.schema.Len(), t.schema.Len()))
	}
	n := hi - lo
	if n <= 0 {
		return
	}
	base := ck.n
	for c := range ck.cols {
		col := &ck.cols[c]
		src := t.cols[c][lo:hi]
		for need := nullWords(base + n); len(col.nulls) < need; {
			col.nulls = append(col.nulls, 0)
		}
		if ck.schema.Attr(c).Type == NominalType {
			for i, v := range src {
				if v.IsNull() {
					r := uint(base + i)
					col.nulls[r>>6] |= 1 << (r & 63)
					col.Nom = append(col.Nom, -1)
				} else {
					col.Nom = append(col.Nom, int32(v.NomIdx()))
				}
			}
		} else {
			for i, v := range src {
				if v.IsNull() {
					r := uint(base + i)
					col.nulls[r>>6] |= 1 << (r & 63)
					col.Num = append(col.Num, math.NaN())
				} else {
					col.Num = append(col.Num, v.Float())
				}
			}
		}
	}
	ck.ids = append(ck.ids, t.ids[lo:hi]...)
	ck.n += n
}

// ChunkInto replaces ck's contents with rows [lo, hi) of the table,
// keeping the chunk's buffers. This is the zero-allocation fill path of
// the batch scorers (audit.AuditTable and friends).
func (t *Table) ChunkInto(ck *ColumnChunk, lo, hi int) {
	ck.Reset()
	ck.appendTableRows(t, lo, hi)
}

// appendChunk appends the chunk's rows to the table column-wise — the
// inverse of ColumnChunk.appendTableRows. keepIDs carries the chunk's
// record IDs over; otherwise the table assigns fresh ones.
func (t *Table) appendChunk(ck *ColumnChunk, keepIDs bool) {
	n := ck.n
	for c := range t.cols {
		col := &ck.cols[c]
		base := len(t.cols[c])
		dst := slices.Grow(t.cols[c], n)[:base+n]
		if ck.schema.Attr(c).Type == NominalType {
			for r, idx := range col.Nom[:n] {
				if idx < 0 { // -1 is the in-band null
					dst[base+r] = Null()
				} else {
					dst[base+r] = Value{kind: kindNominal, idx: idx}
				}
			}
		} else {
			for r, x := range col.Num[:n] {
				if col.Null(r) {
					dst[base+r] = Null()
				} else {
					dst[base+r] = Num(x)
				}
			}
		}
		t.cols[c] = dst
	}
	if keepIDs {
		t.ids = append(t.ids, ck.ids[:n]...)
		for _, id := range ck.ids[:n] {
			t.nextID = max(t.nextID, id+1)
		}
		return
	}
	for range n {
		t.ids = append(t.ids, t.nextID)
		t.nextID++
	}
}
