package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
)

// The wire format mirrors the in-memory structures with exported fields so
// that encoding/gob can traverse them. Schemas and tables round-trip
// exactly, including record IDs — this is what makes asynchronous auditing
// (offline structure induction, online checking; §2.2 of the paper)
// possible across process boundaries. Rows have one wire format, the chunk
// stream (chunkstream.go); a table is a chunk stream of its row spans.

type wireAttribute struct {
	Name     string
	Type     uint8
	Domain   []string
	Min, Max float64
}

type wireSchema struct {
	Attrs []wireAttribute
}

func toWireSchema(s *Schema) wireSchema {
	ws := wireSchema{Attrs: make([]wireAttribute, s.Len())}
	for i, a := range s.Attrs() {
		ws.Attrs[i] = wireAttribute{Name: a.Name, Type: uint8(a.Type), Domain: a.Domain, Min: a.Min, Max: a.Max}
	}
	return ws
}

func fromWireSchema(ws wireSchema) (*Schema, error) {
	attrs := make([]*Attribute, len(ws.Attrs))
	for i, wa := range ws.Attrs {
		attrs[i] = &Attribute{Name: wa.Name, Type: Type(wa.Type), Domain: wa.Domain, Min: wa.Min, Max: wa.Max}
		if attrs[i].Type == NominalType {
			attrs[i].buildIndex()
		}
	}
	return NewSchema(attrs...)
}

// EncodeSchema writes a schema in the native binary format.
func EncodeSchema(w io.Writer, s *Schema) error {
	return gob.NewEncoder(w).Encode(toWireSchema(s))
}

// DecodeSchema reads a schema written by EncodeSchema.
func DecodeSchema(r io.Reader) (*Schema, error) {
	var ws wireSchema
	if err := gob.NewDecoder(r).Decode(&ws); err != nil {
		return nil, fmt.Errorf("dataset: decoding schema: %w", err)
	}
	return fromWireSchema(ws)
}

// tableChunkRows is the row span EncodeTable writes per chunk.
const tableChunkRows = 4096

// EncodeTable writes the table (schema, record IDs, and data) as a chunk
// stream closed by one empty chunk. The closing chunk carries the schema
// of an empty table and lets DecodeTable tell a complete stream from one
// cut at a chunk boundary.
func EncodeTable(w io.Writer, t *Table) error {
	sw := NewChunkStreamWriter(w)
	ck := NewColumnChunk(t.schema)
	for lo := 0; lo < t.NumRows(); lo += tableChunkRows {
		t.ChunkInto(ck, lo, min(lo+tableChunkRows, t.NumRows()))
		if err := sw.Write(ck); err != nil {
			return err
		}
	}
	ck.Reset()
	return sw.Write(ck)
}

// DecodeTable reads a table written by EncodeTable. Every chunk passes
// the chunk stream's validation, so a corrupt stream is an error and
// never a misaligned or out-of-domain table.
func DecodeTable(r io.Reader) (*Table, error) {
	sr := NewChunkStreamReader(r)
	var t *Table
	closed := false
	for {
		ck, err := sr.Read()
		if err == io.EOF {
			if !closed {
				return nil, fmt.Errorf("dataset: decoding table: stream ends without the closing chunk")
			}
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decoding table: %w", err)
		}
		if t == nil {
			t = NewTable(sr.Schema())
		}
		t.appendChunk(ck, true)
		closed = ck.Rows() == 0
	}
}

// ValueRecordSize is the length of a Value's fixed binary record.
const ValueRecordSize = 14

// GobEncode implements gob.GobEncoder so Values embedded in model structs
// (trees, instance bases) serialize despite their unexported fields. The
// format is the fixed record AppendRecord writes, rather than a nested
// gob stream: gob allocates type ids in process-global order, so a
// nested stream's embedded type definition would vary with whatever else
// the process happened to encode first, breaking the byte-identity
// contract between sharded and single-node audit results.
func (v Value) GobEncode() ([]byte, error) {
	return v.AppendRecord(make([]byte, 0, ValueRecordSize)), nil
}

// GobDecode implements gob.GobDecoder for the fixed version-1 record.
func (v *Value) GobDecode(b []byte) error {
	if len(b) != ValueRecordSize {
		return fmt.Errorf("dataset: corrupt Value encoding: %d bytes", len(b))
	}
	return v.SetRecord(b)
}

// AppendRecord appends v's fixed ValueRecordSize-byte record to b: version
// tag 0x01, kind, idx (big-endian uint32), num (IEEE 754 bits,
// big-endian). It allocates only when b lacks the capacity, so binary
// codecs that embed Values (the shard result frame) pay nothing per cell.
func (v Value) AppendRecord(b []byte) []byte {
	b = append(b, 1, byte(v.kind))
	b = binary.BigEndian.AppendUint32(b, uint32(v.idx))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v.num))
}

// SetRecord sets v from the record AppendRecord wrote at the start of b,
// which must hold at least ValueRecordSize bytes. It never allocates.
func (v *Value) SetRecord(b []byte) error {
	if len(b) < ValueRecordSize || b[0] != 1 {
		return fmt.Errorf("dataset: corrupt Value encoding: %d bytes", len(b))
	}
	if b[1] > uint8(kindNumber) {
		return fmt.Errorf("dataset: corrupt Value encoding: kind %d", b[1])
	}
	v.kind = valueKind(b[1])
	v.idx = int32(binary.BigEndian.Uint32(b[2:6]))
	v.num = math.Float64frombits(binary.BigEndian.Uint64(b[6:14]))
	return nil
}

// GobEncode implements gob.GobEncoder for schemas embedded in model structs.
func (s *Schema) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeSchema(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Schema) GobDecode(b []byte) error {
	dec, err := DecodeSchema(bytes.NewReader(b))
	if err != nil {
		return err
	}
	*s = *dec
	return nil
}

// MarshalTable serializes a table to bytes.
func MarshalTable(t *Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeTable(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalTable deserializes a table from bytes.
func UnmarshalTable(b []byte) (*Table, error) {
	return DecodeTable(bytes.NewReader(b))
}

// WriteTableFile stores the table in the native binary format.
func WriteTableFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := EncodeTable(f, t); err != nil {
		return err
	}
	return f.Close()
}

// ReadTableFile loads a table stored by WriteTableFile.
func ReadTableFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeTable(f)
}
