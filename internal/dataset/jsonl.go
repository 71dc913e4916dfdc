package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// JSONLSource decodes newline-delimited JSON objects incrementally
// against a known schema: one object per line, decoded into the rows of a
// ColumnChunk, O(1) memory regardless of input size. Record IDs are the
// 0-based data row index, matching CSVSource.
//
// Field mapping is by attribute name. A missing field and a JSON null
// both decode to the null value, as do the textual null spellings "?"
// and "" (the same tokens Attribute.Parse accepts). Numbers are decoded
// from their literal text through Attribute.Parse, so a value arrives
// bit-identical to the same text in a CSV cell; numeric strings
// ("42.5") coerce the same way. A field not in the schema is an error —
// a misspelled column name must fail loudly, not silently null out a
// whole attribute (the JSONL analogue of the CSV header check).
type JSONLSource struct {
	schema *Schema
	br     *bufio.Reader
	max    int64 // per-record byte cap, 0 = unbounded
	buf    []byte
	line   int // 1-based line of the next record
	nextID int64
	rowBuf []Value // the record being decoded
	done   bool
}

// NewJSONLSource wraps a JSONL stream.
func NewJSONLSource(r io.Reader, s *Schema) *JSONLSource {
	return &JSONLSource{schema: s, br: bufio.NewReader(r), line: 1, rowBuf: make([]Value, s.Len())}
}

// NewBoundedJSONLSource is NewJSONLSource with a cap on the bytes of any
// single line. The cap is enforced while the line is read, so a
// pathological record fails once it crosses the cap instead of being
// buffered whole. Servers decoding untrusted streams should always bound
// records.
func NewBoundedJSONLSource(r io.Reader, s *Schema, maxRecordBytes int64) (*JSONLSource, error) {
	if maxRecordBytes <= 0 {
		return nil, fmt.Errorf("dataset: record byte cap must be positive, got %d", maxRecordBytes)
	}
	src := NewJSONLSource(r, s)
	src.max = maxRecordBytes
	return src, nil
}

// Schema implements RowSource.
func (s *JSONLSource) Schema() *Schema { return s.schema }

// readLine returns the next non-blank line, enforcing the byte cap while
// accumulating fragments so a runaway line never buffers past the cap.
func (s *JSONLSource) readLine() ([]byte, int, error) {
	if s.done {
		return nil, 0, io.EOF
	}
	for {
		line := s.line
		s.buf = s.buf[:0]
		for {
			frag, err := s.br.ReadSlice('\n')
			s.buf = append(s.buf, frag...)
			if s.max > 0 && int64(len(s.buf)) > s.max {
				return nil, line, fmt.Errorf("dataset: JSONL line %d exceeds the %d-byte limit", line, s.max)
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF {
				s.done = true
				break
			}
			if err != nil {
				return nil, line, fmt.Errorf("dataset: reading JSONL line %d: %w", line, err)
			}
			break
		}
		s.line++
		if trimmed := bytes.TrimSpace(s.buf); len(trimmed) > 0 {
			return trimmed, line, nil
		}
		if s.done {
			return nil, 0, io.EOF
		}
	}
}

// NextChunk implements RowSource: it decodes up to max records into the
// chunk.
func (s *JSONLSource) NextChunk(ck *ColumnChunk, max int) (int, error) {
	n := 0
	for n < max {
		if err := s.record(); err == io.EOF {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		} else if err != nil {
			return n, err
		}
		ck.AppendRow(s.rowBuf, s.nextID)
		s.nextID++
		n++
	}
	return n, nil
}

// record decodes the next non-blank line into rowBuf. Anything but a JSON
// object — null included — is an error naming the line.
func (s *JSONLSource) record() error {
	data, line, err := s.readLine()
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		return fmt.Errorf("dataset: JSONL line %d: %w", line, err)
	}
	if obj == nil {
		return fmt.Errorf("dataset: JSONL line %d: null is not a JSON object", line)
	}
	if dec.More() {
		return fmt.Errorf("dataset: JSONL line %d: trailing data after object", line)
	}
	matched := 0
	for c, a := range s.schema.Attrs() {
		raw, ok := obj[a.Name]
		if !ok {
			s.rowBuf[c] = Null()
			continue
		}
		matched++
		v, err := jsonCell(a, raw)
		if err != nil {
			return fmt.Errorf("dataset: JSONL line %d: %w", line, err)
		}
		s.rowBuf[c] = v
	}
	if matched != len(obj) {
		for name := range obj {
			if s.schema.Index(name) < 0 {
				return fmt.Errorf("dataset: JSONL line %d: field %q is not in the schema", line, name)
			}
		}
	}
	return nil
}

// jsonCell converts one decoded JSON value into a typed cell.
func jsonCell(a *Attribute, raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null(), nil
	case string:
		v, err := a.Parse(x)
		if err != nil {
			return Null(), err
		}
		return v, nil
	case json.Number:
		// The literal text goes through the same Parse as a CSV cell, so
		// a number arrives bit-identical to its CSV rendering; a nominal
		// domain of numeric-looking codes ("404") resolves the same way.
		v, err := a.Parse(x.String())
		if err != nil {
			return Null(), err
		}
		return v, nil
	case bool:
		return Null(), fmt.Errorf("dataset: attribute %s: JSON booleans are not supported", a.Name)
	default:
		return Null(), fmt.Errorf("dataset: attribute %s: unsupported JSON value of type %T", a.Name, raw)
	}
}

// OpenJSONLFileSource opens the named JSONL file as a streaming
// RowSource. The caller owns the returned closer.
func OpenJSONLFileSource(path string, s *Schema) (*JSONLSource, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return NewJSONLSource(f, s), f, nil
}

// WriteJSONL renders the table as one JSON object per row, fields in
// schema order, nulls as JSON null. Numbers are emitted in the same
// shortest round-trip rendering CSV export uses, so a JSONL round trip
// reproduces the exact cell values.
func WriteJSONL(w io.Writer, t *Table) error {
	bw := bufio.NewWriter(w)
	attrs := t.Schema().Attrs()
	names := make([][]byte, len(attrs))
	for c, a := range attrs {
		n, err := json.Marshal(a.Name)
		if err != nil {
			return err
		}
		names[c] = n
	}
	for r := 0; r < t.NumRows(); r++ {
		bw.WriteByte('{')
		for c, a := range attrs {
			if c > 0 {
				bw.WriteByte(',')
			}
			bw.Write(names[c])
			bw.WriteByte(':')
			v := t.Get(r, c)
			switch {
			case v.IsNull():
				bw.WriteString("null")
			case a.Type == NominalType, a.Type == DateType:
				enc, err := json.Marshal(a.Format(v))
				if err != nil {
					return err
				}
				bw.Write(enc)
			default:
				bw.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
			}
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}
