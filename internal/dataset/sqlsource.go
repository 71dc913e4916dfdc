package dataset

import (
	"database/sql"
	"fmt"
	"io"
	"time"
)

// SQLRows is the subset of *sql.Rows the SQL source needs; the interface
// keeps the source testable without a live database handle.
type SQLRows interface {
	Columns() ([]string, error)
	Next() bool
	Scan(dest ...any) error
	Err() error
}

// SQLSource adapts a database/sql result set into a RowSource, so auditd
// can score a warehouse table in place: one row per Next call, O(1)
// memory. Record IDs are the 0-based result row index.
//
// Column mapping is by name and checked up front, like the CSV header: the
// result set must produce exactly the schema's columns in the schema's
// order (SELECT the audited attributes explicitly). Driver values coerce
// by type — strings and []byte parse like CSV cells, numeric types map to
// number-like attributes directly, time.Time to dates, NULL to null.
type SQLSource struct {
	schema *Schema
	rows   SQLRows
	scan   []any
	nextID int64
	rowBuf []Value // reusable row buffer for NextChunk
}

// NewSQLSource wraps a result set. Use it as
//
//	rows, err := db.Query("SELECT brv, gbm, disp FROM quis")
//	src, err := dataset.NewSQLSource(rows, schema)
//
// The caller keeps ownership of rows and must Close it when done.
func NewSQLSource(rows SQLRows, s *Schema) (*SQLSource, error) {
	cols, err := rows.Columns()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading SQL columns: %w", err)
	}
	if len(cols) != s.Len() {
		return nil, &RowWidthError{Got: len(cols), Want: s.Len()}
	}
	want := s.Names()
	var bad []int
	for i, name := range want {
		if cols[i] != name {
			bad = append(bad, i)
		}
	}
	if len(bad) > 0 {
		return nil, &HeaderMismatchError{Got: cols, Want: want, Bad: bad}
	}
	src := &SQLSource{schema: s, rows: rows, scan: make([]any, s.Len())}
	for i := range src.scan {
		src.scan[i] = new(any)
	}
	return src, nil
}

// Schema implements RowSource.
func (s *SQLSource) Schema() *Schema { return s.schema }

// Next implements RowSource.
func (s *SQLSource) Next(buf []Value) (int64, error) {
	if !s.rows.Next() {
		if err := s.rows.Err(); err != nil {
			return 0, fmt.Errorf("dataset: SQL row %d: %w", s.nextID, err)
		}
		return 0, io.EOF
	}
	if err := s.rows.Scan(s.scan...); err != nil {
		return 0, fmt.Errorf("dataset: SQL row %d: %w", s.nextID, err)
	}
	for c, a := range s.schema.Attrs() {
		v, err := sqlCell(a, *(s.scan[c].(*any)))
		if err != nil {
			return 0, fmt.Errorf("dataset: SQL row %d: %w", s.nextID, err)
		}
		buf[c] = v
	}
	id := s.nextID
	s.nextID++
	return id, nil
}

// sqlCell converts one driver value into a typed cell.
func sqlCell(a *Attribute, raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null(), nil
	case string:
		return a.Parse(x)
	case []byte:
		return a.Parse(string(x))
	case float64:
		if a.Type == NominalType {
			return Null(), fmt.Errorf("dataset: attribute %s: SQL numeric value for a nominal attribute", a.Name)
		}
		return Num(x), nil
	case int64:
		if a.Type == NominalType {
			return Null(), fmt.Errorf("dataset: attribute %s: SQL numeric value for a nominal attribute", a.Name)
		}
		return Num(float64(x)), nil
	case time.Time:
		if a.Type != DateType {
			return Null(), fmt.Errorf("dataset: attribute %s: SQL time value for a non-date attribute", a.Name)
		}
		return DateValue(x), nil
	default:
		return Null(), fmt.Errorf("dataset: attribute %s: unsupported SQL value of type %T", a.Name, raw)
	}
}

// NextChunk implements ChunkSource: it scans up to max result rows into
// the chunk. Errors carry the same typed values as Next.
func (s *SQLSource) NextChunk(ck *ColumnChunk, max int) (int, error) {
	if s.rowBuf == nil {
		s.rowBuf = make([]Value, s.schema.Len())
	}
	return FillChunk(s, ck, s.rowBuf, max)
}

// OpenSQLSource runs the query on the handle and wraps the result set.
// The returned closer owns the result set.
func OpenSQLSource(db *sql.DB, query string, s *Schema) (*SQLSource, io.Closer, error) {
	rows, err := db.Query(query)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: SQL query: %w", err)
	}
	src, err := NewSQLSource(rows, s)
	if err != nil {
		rows.Close()
		return nil, nil, err
	}
	return src, rows, nil
}
