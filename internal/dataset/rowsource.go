package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// ErrRowWidth is the sentinel wrapped by every row-arity failure: a row
// entering the system (CSV, JSON, a merged audit result) whose width does
// not match the schema it is checked against. Test with errors.Is.
var ErrRowWidth = errors.New("row width mismatches schema")

// ErrHeader is the sentinel wrapped by every CSV-header failure: an upload
// whose header row has the schema's arity but the wrong column names or
// order. Without this check such a file would be silently scored with
// every value parsed against the wrong attribute — confidently wrong
// findings instead of a fast failure. Test with errors.Is.
var ErrHeader = errors.New("CSV header mismatches schema")

// HeaderMismatchError names every header column that disagrees with the
// schema; it wraps ErrHeader.
type HeaderMismatchError struct {
	// Got and Want are the observed header and the schema's attribute
	// names (same length — an arity mismatch is a RowWidthError instead).
	Got, Want []string
	// Bad lists the 0-based columns where Got differs from Want.
	Bad []int
}

func (e *HeaderMismatchError) Error() string {
	var b strings.Builder
	b.WriteString("dataset: CSV header mismatches schema:")
	for i, c := range e.Bad {
		if i > 0 {
			b.WriteString(";")
		}
		fmt.Fprintf(&b, " column %d is %q (want %q)", c+1, e.Got[c], e.Want[c])
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrHeader) true.
func (e *HeaderMismatchError) Unwrap() error { return ErrHeader }

// RowWidthError carries the context of a width mismatch; it wraps
// ErrRowWidth.
type RowWidthError struct {
	// Line is the 1-based source line (or row index) of the offending row,
	// 0 when unknown.
	Line int
	// Got and Want are the observed and the schema's width.
	Got, Want int
}

func (e *RowWidthError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("dataset: row at line %d has %d values, schema has %d attributes", e.Line, e.Got, e.Want)
	}
	return fmt.Sprintf("dataset: row has %d values, schema has %d attributes", e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrRowWidth) true.
func (e *RowWidthError) Unwrap() error { return ErrRowWidth }

// RowSource is a pull iterator over the rows of a relation — the streaming
// counterpart of a fully materialized Table. Every source fills typed
// column chunks; there is no row-at-a-time read. Sources are single-pass
// and not safe for concurrent use; the streaming audit engine
// (audit.AuditStream) reads them from exactly one goroutine.
type RowSource interface {
	// Schema returns the relation schema every row conforms to.
	Schema() *Schema
	// NextChunk appends up to max rows to ck and returns how many were
	// appended. Like io.Reader, it returns rows > 0 with a nil error as
	// long as data flows, and (0, io.EOF) once the source is exhausted.
	// A malformed row surfaces as a typed error (a RowWidthError, the
	// attribute's parse error) after the preceding clean rows were
	// appended, so the chunk always holds exactly the accepted rows.
	NextChunk(ck *ColumnChunk, max int) (int, error)
}

// TableSource adapts a materialized Table into a RowSource, preserving the
// table's record IDs. It is the bridge that lets batch callers reuse the
// streaming engine (and lets tests prove the two paths equivalent).
type TableSource struct {
	tab *Table
	row int
}

// NewTableSource returns a RowSource over the table's rows in order.
func NewTableSource(t *Table) *TableSource { return &TableSource{tab: t} }

// Schema implements RowSource.
func (s *TableSource) Schema() *Schema { return s.tab.Schema() }

// NextChunk implements RowSource with a columnar copy out of the table.
func (s *TableSource) NextChunk(ck *ColumnChunk, max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	rem := s.tab.NumRows() - s.row
	if rem <= 0 {
		return 0, io.EOF
	}
	n := min(rem, max)
	ck.appendTableRows(s.tab, s.row, s.row+n)
	s.row += n
	return n, nil
}

// CSVSource decodes CSV incrementally against a known schema straight
// into the typed vectors of a ColumnChunk: O(1) memory regardless of input
// size and no allocation per row. Record IDs are the 0-based data
// row index (the first row after the header is ID 0). Width mismatches
// surface as RowWidthError (wrapping ErrRowWidth), parse failures as the
// attribute's parse error and malformed quoting as a *csv.ParseError, all
// tagged with the physical line the record starts on. Besides NextChunk,
// a CSVSource can Cut its input into CSVBlocks that decode elsewhere
// (csvblock.go).
type CSVSource struct {
	schema   *Schema
	br       *bufio.Reader
	sc       csvScanner // reads the header, then the lines Cut reads one by one
	budget   *budgetReader
	nextID   int64 // the ID of the next record Cut reads
	cutEnd   error // what ended the input for Cut; nil while it flows
	cutBytes int   // Cut's byte target: CSVBlockBytes
	blockCap int   // the largest block buffer so far, for fresh blocks
	blk      CSVBlock
}

// NewCSVSource wraps a CSV stream. The header row is read and validated
// against the schema immediately, so a malformed upload fails before any
// data row is consumed.
func NewCSVSource(r io.Reader, s *Schema) (*CSVSource, error) {
	return newCSVSource(r, s, 0)
}

// NewBoundedCSVSource is NewCSVSource with a cap on the bytes of any
// single record (header included). The cap is enforced inside the read
// path, so a pathological record — e.g. an unterminated quoted field
// spanning gigabytes — fails once it crosses the cap instead of being
// buffered whole. Servers decoding untrusted streams should always
// bound records.
func NewBoundedCSVSource(r io.Reader, s *Schema, maxRecordBytes int64) (*CSVSource, error) {
	if maxRecordBytes <= 0 {
		return nil, fmt.Errorf("dataset: record byte cap must be positive, got %d", maxRecordBytes)
	}
	return newCSVSource(r, s, maxRecordBytes)
}

func newCSVSource(r io.Reader, s *Schema, maxRecordBytes int64) (*CSVSource, error) {
	src := &CSVSource{schema: s, cutBytes: CSVBlockBytes}
	if maxRecordBytes > 0 {
		src.budget = &budgetReader{r: r, limit: maxRecordBytes, max: maxRecordBytes}
		r = src.budget
	}
	src.br = bufio.NewReader(r)
	src.sc.br = src.br

	header, err := src.sc.next()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	src.extendBudget()
	if len(header) != s.Len() {
		return nil, &RowWidthError{Line: src.sc.recLine, Got: len(header), Want: s.Len()}
	}
	want := s.Names()
	var bad []int
	for i, name := range want {
		if string(header[i]) != name {
			bad = append(bad, i)
		}
	}
	if len(bad) > 0 {
		got := make([]string, len(header))
		for i, f := range header {
			got[i] = string(f)
		}
		return nil, &HeaderMismatchError{Got: got, Want: want, Bad: bad}
	}
	return src, nil
}

// extendBudget grants the next record its byte allowance (called after
// the header and after every record Cut completes).
func (s *CSVSource) extendBudget() {
	if s.budget != nil {
		// The bufio.Reader may have read ahead past the record just
		// completed; basing the new limit on bytes consumed from the
		// underlying reader only ever grants more headroom, never less.
		s.budget.limit = s.budget.n + s.budget.max
	}
}

// Schema implements RowSource.
func (s *CSVSource) Schema() *Schema { return s.schema }

// NextChunk implements RowSource: it cuts up to max records and decodes
// them straight into the chunk's typed vectors.
func (s *CSVSource) NextChunk(ck *ColumnChunk, max int) (int, error) {
	if _, err := s.Cut(&s.blk, max); err != nil {
		return 0, err
	}
	return s.blk.Decode(ck)
}

// budgetReader fails once more bytes were consumed than the current
// limit allows; CSVSource raises the limit as records complete, so the
// cap is per record no matter how the record's bytes are laid out
// (quoted fields may span any number of lines).
type budgetReader struct {
	r     io.Reader
	n     int64 // total bytes consumed
	limit int64 // n may not exceed this
	max   int64 // per-record allowance
}

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.n >= b.limit {
		return 0, fmt.Errorf("dataset: CSV record exceeds the %d-byte limit", b.max)
	}
	// Never read past the budget, so a runaway record cannot buffer more
	// than max bytes before the error fires.
	if rem := b.limit - b.n; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// StringRowsSource is a RowSource over pre-split string rows in the
// attributes' text rendering — the shape JSON audit requests arrive in.
// Record IDs are the 0-based row index; error messages number rows from 1.
type StringRowsSource struct {
	schema *Schema
	rows   [][]string
	next   int
	rowBuf []Value
}

// NewStringRowsSource wraps rendered string rows.
func NewStringRowsSource(s *Schema, rows [][]string) *StringRowsSource {
	return &StringRowsSource{schema: s, rows: rows, rowBuf: make([]Value, s.Len())}
}

// Schema implements RowSource.
func (s *StringRowsSource) Schema() *Schema { return s.schema }

// NextChunk implements RowSource: it parses up to max rows into the chunk.
func (s *StringRowsSource) NextChunk(ck *ColumnChunk, max int) (int, error) {
	n := 0
	for ; n < max && s.next < len(s.rows); n++ {
		if err := s.parse(s.next); err != nil {
			return n, err
		}
		ck.AppendRow(s.rowBuf, int64(s.next))
		s.next++
	}
	if n == 0 && max > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// parse checks the width of row i and parses its cells into rowBuf.
func (s *StringRowsSource) parse(i int) error {
	rec, line := s.rows[i], i+1
	if len(rec) != s.schema.Len() {
		return &RowWidthError{Line: line, Got: len(rec), Want: s.schema.Len()}
	}
	for c, a := range s.schema.attrs {
		v, err := a.Parse(rec[c])
		if err != nil {
			return fmt.Errorf("dataset: row %d: %w", line, err)
		}
		s.rowBuf[c] = v
	}
	return nil
}

// readAllChunkRows is the chunk ReadAll drains a source through. Small on
// purpose: the chunk is a transit buffer, and a large one only adds growth
// allocations on the request-sized bodies ReadAll decodes.
const readAllChunkRows = 128

// ReadAll drains a RowSource into a materialized Table — the inverse of
// NewTableSource. Source-assigned record IDs are discarded; the table
// assigns its own.
func ReadAll(src RowSource) (*Table, error) { return readAll(src, false) }

// ReadAllKeepIDs drains a RowSource into a materialized Table preserving
// the source-assigned record IDs — unlike ReadAll, which re-assigns them.
// The differential tests build their reference tables with it, so
// a materialized audit reports the record IDs the streaming audit of the
// same source does.
func ReadAllKeepIDs(src RowSource) (*Table, error) { return readAll(src, true) }

func readAll(src RowSource, keepIDs bool) (*Table, error) {
	t := NewTable(src.Schema())
	ck := NewColumnChunk(src.Schema())
	for {
		ck.Reset()
		_, err := src.NextChunk(ck, readAllChunkRows)
		if err != nil && err != io.EOF {
			return nil, err
		}
		t.appendChunk(ck, keepIDs)
		if err == io.EOF {
			return t, nil
		}
	}
}

// OpenCSVFileSource opens the named CSV file as a streaming RowSource.
// The caller owns the returned closer and must close it when done.
func OpenCSVFileSource(path string, s *Schema) (*CSVSource, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := NewCSVSource(f, s)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f, nil
}
