package dataset

import "fmt"

// Table is a column-oriented relation instance. Every row carries a stable
// record identifier that survives duplication and deletion; the pollution
// log (internal/pollute) and the evaluation harness (internal/evalx) join
// clean and dirty tables on these identifiers to establish ground truth.
type Table struct {
	schema *Schema
	cols   [][]Value
	ids    []int64
	nextID int64
}

// NewTable creates an empty table over the given schema.
func NewTable(s *Schema) *Table {
	return &Table{schema: s, cols: make([][]Value, s.Len())}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.ids) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Get returns the value at (row, col).
func (t *Table) Get(row, col int) Value { return t.cols[col][row] }

// Set overwrites the value at (row, col).
func (t *Table) Set(row, col int, v Value) { t.cols[col][row] = v }

// ID returns the stable record identifier of a row.
func (t *Table) ID(row int) int64 { return t.ids[row] }

// AppendRow adds a row and returns its freshly assigned record ID.
// The row slice is copied column-wise; the caller keeps ownership.
func (t *Table) AppendRow(row []Value) int64 {
	if len(row) != len(t.cols) {
		panic(fmt.Sprintf("dataset: AppendRow arity %d != %d", len(row), len(t.cols)))
	}
	id := t.nextID
	t.nextID++
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], row[c])
	}
	t.ids = append(t.ids, id)
	return id
}

// Row copies row r into a fresh slice.
func (t *Table) Row(r int) []Value {
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c][r]
	}
	return out
}

// RowInto copies row r into buf (which must have the right arity) and
// returns it; use in hot loops to avoid allocation.
func (t *Table) RowInto(r int, buf []Value) []Value {
	for c := range t.cols {
		buf[c] = t.cols[c][r]
	}
	return buf
}

// DuplicateRow appends a copy of row r and returns the copy's new record ID.
func (t *Table) DuplicateRow(r int) int64 {
	id := t.nextID
	t.nextID++
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], t.cols[c][r])
	}
	t.ids = append(t.ids, id)
	return id
}

// DeleteRow removes row r, preserving the order of the remaining rows.
func (t *Table) DeleteRow(r int) {
	for c := range t.cols {
		t.cols[c] = append(t.cols[c][:r], t.cols[c][r+1:]...)
	}
	t.ids = append(t.ids[:r], t.ids[r+1:]...)
}

// Clone returns a deep copy, preserving record IDs.
func (t *Table) Clone() *Table {
	c := &Table{schema: t.schema, cols: make([][]Value, len(t.cols)), nextID: t.nextID}
	for i := range t.cols {
		c.cols[i] = append([]Value(nil), t.cols[i]...)
	}
	c.ids = append([]int64(nil), t.ids...)
	return c
}

// RowIndexByID builds a map from record ID to current row index.
func (t *Table) RowIndexByID() map[int64]int {
	m := make(map[int64]int, len(t.ids))
	for r, id := range t.ids {
		m[id] = r
	}
	return m
}

// Validate checks every row against the schema.
func (t *Table) Validate() error {
	buf := make([]Value, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		if err := t.schema.CheckRow(t.RowInto(r, buf)); err != nil {
			return fmt.Errorf("row %d (id %d): %w", r, t.ids[r], err)
		}
	}
	return nil
}

// Column returns the raw backing slice of column c (callers must not
// append; mutation via the slice is equivalent to Set).
func (t *Table) Column(c int) []Value { return t.cols[c] }
