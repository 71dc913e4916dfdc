package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// Native fuzz targets for the two untrusted entry points of the columnar
// path: CSV decoding into chunks (malformed input must surface as the
// typed errors — ErrRowWidth, ErrHeader/HeaderMismatchError, a parse
// error — and never as a panic or a misaligned chunk) and the chunk wire
// format (a round trip preserves every value, null and ID bit-for-bit;
// an adversarial byte stream either fails to decode or yields an
// internally consistent chunk). CI runs each target for a short smoke
// window on top of the committed seed corpus.

// fuzzSchema is the fixed relation the fuzz targets decode against: one
// attribute of each type.
func fuzzSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		NewNominal("color", "red", "green", "blue"),
		NewNumeric("x", -1e9, 1e9),
		NewDate("d", MustParseDate("1990-01-01"), MustParseDate("2030-01-01")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireChunkAligned fails the test unless every column of the chunk has
// exactly rows entries of the type the schema dictates, with nulls
// encoded in-band (-1 nominal, NaN numeric) and nominal indices inside
// the attribute domain.
func requireChunkAligned(t *testing.T, ck *ColumnChunk) {
	t.Helper()
	s := ck.Schema()
	rows := ck.Rows()
	for c := 0; c < s.Len(); c++ {
		col := ck.Col(c)
		a := s.Attr(c)
		if a.Type == NominalType {
			if len(col.Nom) != rows {
				t.Fatalf("column %d (%s): %d nominal entries for %d rows", c, a.Name, len(col.Nom), rows)
			}
			for r := 0; r < rows; r++ {
				idx := col.Nom[r]
				if col.Null(r) {
					if idx != -1 {
						t.Fatalf("column %d row %d: null encodes index %d, want -1", c, r, idx)
					}
				} else if idx < 0 || int(idx) >= a.NumValues() {
					t.Fatalf("column %d row %d: index %d outside domain of %d", c, r, idx, a.NumValues())
				}
			}
		} else {
			if len(col.Num) != rows {
				t.Fatalf("column %d (%s): %d numeric entries for %d rows", c, a.Name, len(col.Num), rows)
			}
			for r := 0; r < rows; r++ {
				if col.Null(r) && !math.IsNaN(col.Num[r]) {
					t.Fatalf("column %d row %d: null encodes %v, want NaN", c, r, col.Num[r])
				}
			}
		}
	}
}

// csvFuzzSchema is fuzzSchema with nominal values that only a quoted CSV
// field can spell, so quoted input can decode cleanly, not only fail.
func csvFuzzSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		NewNominal("color", "red", "green", "blue", "a,b", `say "hi"`, "x\ny", " pad "),
		NewNumeric("x", -1e9, 1e9),
		NewDate("d", MustParseDate("1990-01-01"), MustParseDate("2030-01-01")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// csvOracle is the reference decoder FuzzCSVSource holds CSVSource to:
// encoding/csv splits the records, Attribute.Parse parses the cells and
// AppendRow fills the chunk. Its errors are worded as CSVSource's, with
// the record's first line taken from encoding/csv.
type csvOracle struct {
	schema *Schema
	cr     *csv.Reader
	budget *budgetReader
	nextID int64
	row    []Value
}

func newCSVOracle(r io.Reader, s *Schema, maxRecordBytes int64) (*csvOracle, error) {
	o := &csvOracle{schema: s, row: make([]Value, s.Len())}
	if maxRecordBytes > 0 {
		o.budget = &budgetReader{r: r, limit: maxRecordBytes, max: maxRecordBytes}
		r = o.budget
	}
	o.cr = csv.NewReader(r)
	o.cr.FieldsPerRecord = -1
	o.cr.ReuseRecord = true
	header, err := o.cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	o.extendBudget()
	line, _ := o.cr.FieldPos(0)
	if len(header) != s.Len() {
		return nil, &RowWidthError{Line: line, Got: len(header), Want: s.Len()}
	}
	var bad []int
	for i, name := range s.Names() {
		if header[i] != name {
			bad = append(bad, i)
		}
	}
	if len(bad) > 0 {
		return nil, &HeaderMismatchError{Got: slices.Clone(header), Want: s.Names(), Bad: bad}
	}
	return o, nil
}

func (o *csvOracle) extendBudget() {
	if o.budget != nil {
		o.budget.limit = o.budget.n + o.budget.max
	}
}

func (o *csvOracle) Schema() *Schema { return o.schema }

func (o *csvOracle) NextChunk(ck *ColumnChunk, max int) (int, error) {
	n := 0
	for ; n < max; n++ {
		if err := o.record(); err == io.EOF {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		} else if err != nil {
			return n, err
		}
		ck.AppendRow(o.row, o.nextID)
		o.nextID++
	}
	return n, nil
}

// record reads and parses the next record into o.row.
func (o *csvOracle) record() error {
	rec, err := o.cr.Read()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		line := 0 // unknown unless encoding/csv says
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			line = pe.StartLine
		}
		return fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
	}
	o.extendBudget()
	line, _ := o.cr.FieldPos(0)
	if len(rec) != o.schema.Len() {
		return &RowWidthError{Line: line, Got: len(rec), Want: o.schema.Len()}
	}
	for c, a := range o.schema.Attrs() {
		v, err := a.Parse(rec[c])
		if err != nil {
			return fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
		o.row[c] = v
	}
	return nil
}

// csvErrClass names the contract an error of either CSV decoder falls
// under.
func csvErrClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrHeader):
		return "header"
	case errors.Is(err, ErrRowWidth):
		return "width"
	case errors.Is(err, csv.ErrBareQuote):
		return "bare quote"
	case errors.Is(err, csv.ErrQuote):
		return "quote"
	case strings.Contains(err.Error(), "byte limit"):
		return "byte limit"
	case errors.Is(err, io.EOF):
		return "eof"
	}
	return "parse"
}

// requireSameCSVError fails unless both decoders failed alike: the same
// class and, where the oracle knows the record's line, the same text.
func requireSameCSVError(t *testing.T, got, want error) {
	t.Helper()
	gc, wc := csvErrClass(got), csvErrClass(want)
	if gc != wc {
		t.Fatalf("error class %s (%v), encoding/csv gives %s (%v)", gc, got, wc, want)
	}
	if gc != "none" && gc != "byte limit" && got.Error() != want.Error() {
		t.Fatalf("error %q, encoding/csv gives %q", got, want)
	}
}

// requireSameValue fails unless two cells are bit-identical.
func requireSameValue(t *testing.T, row, c int, got, want Value) {
	t.Helper()
	if got.kind != want.kind || got.idx != want.idx || math.Float64bits(got.num) != math.Float64bits(want.num) {
		t.Fatalf("row %d col %d: %#v, encoding/csv gives %#v", row, c, got, want)
	}
}

// FuzzCSVSource is a two-decoder differential: arbitrary bytes go
// through CSVSource and through csvOracle, unbounded and with a record
// byte cap. Both must accept or reject alike, with the same error class
// (header, width, bare quote, quote, byte limit or parse) and the same
// text, and yield bit-identical cells, null bits and IDs up to the
// failure. The chunk must stay column-aligned after every call no matter
// where the decoder gave up. The same input is also cut into blocks
// (requireBlocksMatchOracle), which must decode to the same outcome.
func FuzzCSVSource(f *testing.F) {
	f.Add([]byte("color,x,d\nred,1.5,2020-01-02\n?,,?\nblue,-3e4,1999-12-31\n"))
	f.Add([]byte("colour,x,d\nred,1,2020-01-02\n"))           // wrong header name
	f.Add([]byte("color,x\nred,1\n"))                         // wrong header arity
	f.Add([]byte("color,x,d\nred,1.5\n"))                     // short row mid-stream
	f.Add([]byte("color,x,d\nred,1.5,2020-01-02,extra\n"))    // long row mid-stream
	f.Add([]byte("color,x,d\nmauve,1.5,2020-01-02\n"))        // out-of-domain nominal
	f.Add([]byte("color,x,d\nred,not-a-number,2020-01-02\n")) // numeric parse error
	f.Add([]byte("color,x,d\nred,1.5,20th of May\n"))         // date parse error
	f.Add([]byte("color,x,d\n\"red\n\",1,2020-01-02"))        // quoted newline
	f.Add([]byte("\"color,x,d"))                              // unterminated quote in header
	f.Add([]byte(""))
	f.Add([]byte("color,x,d\r\nred,1,2020-01-02\r\nblue,2,?\r\n"))                    // CRLF
	f.Add([]byte("\ncolor,x,d\n\n\nred,1,2020-01-02\n\r\n\nblue,bad,?\n"))            // blank lines
	f.Add([]byte("color,x,d\nred,1,2020-01-02"))                                      // no final newline
	f.Add([]byte("color,x,d\nred,1,2020-01-02\r"))                                    // trailing \r at EOF
	f.Add([]byte("color,x,d\n\"say \"\"hi\"\"\",1,?\n\"\"\"\",2,?\n"))                // "" escapes
	f.Add([]byte("color,x,d\n\"a,b\",1,?\n\"x\r\ny\",2,?\nred,3,\"2020-01-\n02\"\n")) // quoted commas and newlines
	f.Add([]byte("color,x,d\n \"red\",1,?\n"))                                        // leading space before a quote
	f.Add([]byte("color,x,d\n\" pad \",1,?\n\"red\"x,2,?\n"))                         // text after a closing quote
	f.Add([]byte("color,x,d\nred,1,?\n\"x\n\ny,2,?\n"))                               // unterminated quote at EOF
	f.Add([]byte("color,x,d\nred,1,?\r\r\nblue,\r,?\n"))                              // bare \r inside a line
	f.Add([]byte("color,x,d\nre\"d,1,?\n" + strings.Repeat("blue,2,?\n", 120)))       // bare quote, then over 1 KiB of lines

	f.Fuzz(func(t *testing.T, data []byte) {
		schema := csvFuzzSchema(t)
		for _, bound := range []int64{0, 1 << 10} {
			src, err := newCSVSource(bytes.NewReader(data), schema, bound)
			ref, refErr := newCSVOracle(bytes.NewReader(data), schema, bound)
			requireSameCSVError(t, err, refErr)
			if err != nil {
				continue
			}
			ck, refCk := NewColumnChunk(schema), NewColumnChunk(schema)
			rows := 0
			for {
				n, err := src.NextChunk(ck, 7)
				refN, refErr := ref.NextChunk(refCk, 7)
				requireSameCSVError(t, err, refErr)
				if n != refN {
					t.Fatalf("NextChunk appended %d rows, encoding/csv %d", n, refN)
				}
				rows += n
				if ck.Rows() != rows {
					t.Fatalf("chunk holds %d rows after %d accepted", ck.Rows(), rows)
				}
				requireChunkAligned(t, ck)
				for r := 0; r < ck.Rows(); r++ {
					if ck.ID(r) != refCk.ID(r) {
						t.Fatalf("row %d: ID %d, encoding/csv gives %d", r, ck.ID(r), refCk.ID(r))
					}
					for c := 0; c < schema.Len(); c++ {
						got, want := ck.Col(c), refCk.Col(c)
						if got.Null(r) != want.Null(r) {
							t.Fatalf("row %d col %d: null bit %v, encoding/csv gives %v", r, c, got.Null(r), want.Null(r))
						}
						requireSameValue(t, r, c, ck.Value(r, c), refCk.Value(r, c))
					}
				}
				if err != nil {
					var widthErr *RowWidthError
					if errors.As(err, &widthErr) && !errors.Is(err, ErrRowWidth) {
						t.Fatalf("RowWidthError does not wrap ErrRowWidth: %v", err)
					}
					break
				}
				if n == 0 {
					t.Fatal("NextChunk returned 0 rows with nil error")
				}
			}
			for _, limit := range []int{1, 7, 1024} {
				requireBlocksMatchOracle(t, data, schema, bound, limit, false)
			}
			requireBlocksMatchOracle(t, data, schema, bound, 7, true)
		}
	})
}

// fuzzCutBytes is the byte target the block leg of FuzzCSVSource cuts
// at: small enough that most inputs span several blocks.
const fuzzCutBytes = 32

// shortReader hands out at most 13 bytes a read, so that lines straddle
// the fills of the decoders' bufio.Readers.
type shortReader struct{ r io.Reader }

func (s shortReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 13)]) }

// requireBlocksMatchOracle cuts the whole input into blocks of at most
// limit records, decodes the blocks concurrently, launched in reverse
// order, and holds their concatenation up to the first failing block to
// csvOracle's read of the whole input: the same rows, IDs, null bits and
// cells, and the same error, line numbers included. With short, both
// decoders read the input through a shortReader.
func requireBlocksMatchOracle(t *testing.T, data []byte, schema *Schema, bound int64, limit int, short bool) {
	t.Helper()
	input := func() io.Reader {
		if short {
			return shortReader{bytes.NewReader(data)}
		}
		return bytes.NewReader(data)
	}
	src, err := newCSVSource(input(), schema, bound)
	if err != nil {
		return // the header failed, as the first leg checked
	}
	src.cutBytes = fuzzCutBytes
	var blocks []*CSVBlock
	cut := 0
	for {
		b := new(CSVBlock)
		n, err := src.Cut(b, limit)
		if err == io.EOF {
			break
		}
		if err != nil || n > limit {
			t.Fatalf("Cut(%d): %d records, %v", limit, n, err)
		}
		if b.firstID != int64(cut) {
			t.Fatalf("block %d starts at ID %d after %d records", len(blocks), b.firstID, cut)
		}
		cut += n
		blocks = append(blocks, b)
	}

	type decoded struct {
		ck  *ColumnChunk
		n   int
		err error
	}
	out := make([]decoded, len(blocks))
	var wg sync.WaitGroup
	for i := len(blocks) - 1; i >= 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ck := NewColumnChunk(schema)
			n, err := blocks[i].Decode(ck)
			out[i] = decoded{ck, n, err}
		}()
	}
	wg.Wait()

	ref, err := newCSVOracle(input(), schema, bound)
	if err != nil {
		t.Fatalf("encoding/csv rejects a header CSVSource took: %v", err)
	}
	refCk := NewColumnChunk(schema)
	var refErr error
	for refErr == nil {
		_, refErr = ref.NextChunk(refCk, 1<<20)
	}
	if refErr == io.EOF {
		refErr = nil
	}

	row := 0
	var gotErr error
	for i, d := range out {
		if d.ck.Rows() != d.n {
			t.Fatalf("limit %d block %d: Decode returned %d rows, chunk holds %d", limit, i, d.n, d.ck.Rows())
		}
		requireChunkAligned(t, d.ck)
		for r := 0; r < d.n; r, row = r+1, row+1 {
			if row >= refCk.Rows() {
				t.Fatalf("limit %d: blocks decode more than encoding/csv's %d rows", limit, refCk.Rows())
			}
			if d.ck.ID(r) != refCk.ID(row) {
				t.Fatalf("limit %d row %d: ID %d, encoding/csv gives %d", limit, row, d.ck.ID(r), refCk.ID(row))
			}
			for c := 0; c < schema.Len(); c++ {
				if d.ck.Col(c).Null(r) != refCk.Col(c).Null(row) {
					t.Fatalf("limit %d row %d col %d: null bit differs from encoding/csv", limit, row, c)
				}
				requireSameValue(t, row, c, d.ck.Value(r, c), refCk.Value(row, c))
			}
		}
		if d.err != nil {
			gotErr = d.err
			break
		}
	}
	if row != refCk.Rows() {
		t.Fatalf("limit %d: blocks decode %d rows, encoding/csv %d", limit, row, refCk.Rows())
	}
	requireSameCSVError(t, gotErr, refErr)
}

// fuzzStreamRows is how many rows FuzzColumnChunkRoundTrip puts into one
// chunk, so that a seed of a few hundred rows is a multi-chunk stream.
const fuzzStreamRows = 100

// FuzzColumnChunkRoundTrip drives the row wire format from both sides:
// chunks built from the fuzz input must survive ChunkStreamWriter →
// ChunkStreamReader with every ID, null bit and value bit pattern (NaN
// payloads included) intact, and the raw fuzz bytes fed straight into
// ChunkStreamReader must either fail or produce aligned chunks.
func FuzzColumnChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 0, 0, 0, 0, 0, 0xF0, 0x3F, 7})                    // one plain row
	f.Add([]byte{0x07, 2, 1, 2, 3, 4, 5, 0xF8, 0x7F, 9})                    // all-null row
	f.Add([]byte{0x02, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF8, 0x7F, 1})     // NaN payload
	f.Add(bytes.Repeat([]byte{0x01, 2, 8, 6, 7, 5, 3, 0x09, 0x40, 4}, 130)) // spans null words and chunks
	f.Add(fuzzTableStream(f))                                               // a well-formed stream for the adversarial leg to mutate

	f.Fuzz(func(t *testing.T, data []byte) {
		schema := fuzzSchema(t)

		// Build chunks from the input: 10 bytes per row — a null mask, a
		// nominal index, a raw float64 pattern shared by the numeric and
		// date columns, and an ID byte.
		const rec = 10
		var sent []*ColumnChunk
		row := make([]Value, schema.Len())
		rows := 0
		for off := 0; off+rec <= len(data) && rows < 1024; off += rec {
			b := data[off : off+rec]
			bits := uint64(0)
			for i := 0; i < 8; i++ {
				bits |= uint64(b[2+i]) << (8 * i)
			}
			num := math.Float64frombits(bits)
			row[0], row[1], row[2] = Nom(int(b[1])%3), Num(num), Num(num)
			if b[0]&1 != 0 {
				row[0] = Null()
			}
			if b[0]&2 != 0 {
				row[1] = Null()
			}
			if b[0]&4 != 0 {
				row[2] = Null()
			}
			if rows%fuzzStreamRows == 0 {
				sent = append(sent, NewColumnChunk(schema))
			}
			sent[len(sent)-1].AppendRow(row, int64(b[0])+int64(off))
			rows++
		}

		var buf bytes.Buffer
		sw := NewChunkStreamWriter(&buf)
		for _, ck := range sent {
			if err := sw.Write(ck); err != nil {
				t.Fatalf("ChunkStreamWriter.Write: %v", err)
			}
		}
		sr := NewChunkStreamReader(&buf)
		for i, ck := range sent {
			got, err := sr.Read()
			if err != nil {
				t.Fatalf("Read of freshly written chunk %d: %v", i, err)
			}
			if got.Rows() != ck.Rows() {
				t.Fatalf("chunk %d: round trip changed row count: %d -> %d", i, ck.Rows(), got.Rows())
			}
			for c, name := range schema.Names() {
				if got.Schema().Attr(c).Name != name || got.Schema().Attr(c).Type != schema.Attr(c).Type {
					t.Fatalf("round trip changed attribute %d", c)
				}
			}
			for r := 0; r < ck.Rows(); r++ {
				if got.ID(r) != ck.ID(r) {
					t.Fatalf("chunk %d row %d: ID %d -> %d", i, r, ck.ID(r), got.ID(r))
				}
				for c := 0; c < schema.Len(); c++ {
					w, g := ck.Col(c), got.Col(c)
					if w.Null(r) != g.Null(r) {
						t.Fatalf("chunk %d row %d col %d: null bit flipped", i, r, c)
					}
					if schema.Attr(c).Type == NominalType {
						if w.Nom[r] != g.Nom[r] {
							t.Fatalf("chunk %d row %d col %d: nominal %d -> %d", i, r, c, w.Nom[r], g.Nom[r])
						}
					} else if !w.Null(r) && math.Float64bits(w.Num[r]) != math.Float64bits(g.Num[r]) {
						t.Fatalf("chunk %d row %d col %d: value bits %x -> %x", i, r, c,
							math.Float64bits(w.Num[r]), math.Float64bits(g.Num[r]))
					}
				}
			}
			requireChunkAligned(t, got)
		}
		if _, err := sr.Read(); err != io.EOF {
			t.Fatalf("Read past the last chunk: %v, want io.EOF", err)
		}

		// Adversarial decode: the raw input as a wire stream must error or
		// yield chunks whose invariants hold.
		adv := NewChunkStreamReader(bytes.NewReader(data))
		for {
			ck, err := adv.Read()
			if err != nil {
				break
			}
			requireChunkAligned(t, ck)
		}
	})
}

// fuzzTableStream is EncodeTable's output for the chunk fixture: a
// well-formed stream of a header, one chunk and the closing chunk.
func fuzzTableStream(t testing.TB) []byte {
	b, err := MarshalTable(chunkFixtureTable(t))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeTable feeds arbitrary bytes to DecodeTable — what reloads the
// monitor's persisted reservoir and table files. It must fail or return a
// table whose every row has the schema's arity, in-domain nominal values
// and one ID, and that encodes back to a stream decoding to the same rows.
func FuzzDecodeTable(f *testing.F) {
	stream := fuzzTableStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{})
	f.Add([]byte("\t100000000"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := DecodeTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		for c := 0; c < tab.NumCols(); c++ {
			if len(tab.Column(c)) != tab.NumRows() {
				t.Fatalf("column %d has %d cells for %d rows", c, len(tab.Column(c)), tab.NumRows())
			}
			a := tab.Schema().Attr(c)
			for r, v := range tab.Column(c) {
				switch {
				case v.IsNull():
				case a.Type == NominalType:
					if !v.IsNominal() || v.NomIdx() >= a.NumValues() {
						t.Fatalf("row %d col %d: %v outside the %d-value domain", r, c, v, a.NumValues())
					}
				case !v.IsNumber():
					t.Fatalf("row %d col %d: %v in a numeric column", r, c, v)
				}
			}
		}
		b, err := MarshalTable(tab)
		if err != nil {
			t.Fatalf("re-encoding a decoded table: %v", err)
		}
		back, err := UnmarshalTable(b)
		if err != nil {
			t.Fatalf("decoding a re-encoded table: %v", err)
		}
		if back.NumRows() != tab.NumRows() {
			t.Fatalf("re-encoding changed the row count: %d -> %d", tab.NumRows(), back.NumRows())
		}
		for r := 0; r < tab.NumRows(); r++ {
			if back.ID(r) != tab.ID(r) {
				t.Fatalf("row %d: ID %d -> %d", r, tab.ID(r), back.ID(r))
			}
			for c := 0; c < tab.NumCols(); c++ {
				if !back.Get(r, c).Equal(tab.Get(r, c)) {
					t.Fatalf("cell (%d,%d): %v -> %v", r, c, tab.Get(r, c), back.Get(r, c))
				}
			}
		}
	})
}

// FuzzJSONLSource feeds arbitrary bytes through NewJSONLSource +
// NextChunk — the third untrusted entry point. The contract matches the
// CSV target: no panic, malformed JSON / unknown fields / arity games /
// type coercions / null spellings all surface as errors or decode
// cleanly, and the chunk stays column-aligned after every call no matter
// where in the input the decoder gave up.
func FuzzJSONLSource(f *testing.F) {
	f.Add([]byte(`{"color":"red","x":1.5,"d":"2020-01-02"}` + "\n"))
	f.Add([]byte(`{"color":null,"x":null,"d":null}` + "\n"))
	f.Add([]byte(`{"color":"?","x":"","d":"?"}` + "\n"))     // textual null spellings
	f.Add([]byte(`{"x":"1e3"}` + "\n"))                      // missing fields + numeric string
	f.Add([]byte(`{"color":"mauve"}` + "\n"))                // out-of-domain nominal
	f.Add([]byte(`{"bogus":1}` + "\n"))                      // unknown field
	f.Add([]byte(`{"x":true}` + "\n"))                       // boolean cell
	f.Add([]byte(`{"x":{"nested":1}}` + "\n"))               // nested value
	f.Add([]byte(`{"x":[1,2]}` + "\n"))                      // array cell
	f.Add([]byte(`{"color":"red"} {"color":"blue"}` + "\n")) // trailing data
	f.Add([]byte(`[{"color":"red"}]` + "\n"))                // array, not object
	f.Add([]byte(`{"color":`))                               // truncated JSON
	f.Add([]byte("\n\n{\"x\":1}\n\n"))                       // blank lines
	f.Add([]byte(`{"x":1e309}` + "\n"))                      // float overflow
	f.Add([]byte(`{"d":"2020-13-45"}` + "\n"))               // impossible date
	f.Add([]byte(`{"color":"red","color":"blue"}` + "\n"))   // duplicate key
	f.Add([]byte{0xff, 0xfe, '{', '}'})                      // invalid UTF-8
	f.Add([]byte(""))
	f.Add([]byte("null\n")) // null is not an object

	f.Fuzz(func(t *testing.T, data []byte) {
		schema := fuzzSchema(t)
		for _, bound := range []int64{0, 1 << 10} {
			var src *JSONLSource
			if bound > 0 {
				var err error
				src, err = NewBoundedJSONLSource(bytes.NewReader(data), schema, bound)
				if err != nil {
					t.Fatalf("positive bound rejected: %v", err)
				}
			} else {
				src = NewJSONLSource(bytes.NewReader(data), schema)
			}
			ck := NewColumnChunk(schema)
			rows := 0
			for {
				n, err := src.NextChunk(ck, 7)
				rows += n
				if ck.Rows() != rows {
					t.Fatalf("chunk holds %d rows after %d accepted", ck.Rows(), rows)
				}
				requireChunkAligned(t, ck)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					// Mid-stream failures keep the previously decoded rows.
					break
				}
				if n == 0 {
					t.Fatal("NextChunk returned 0 rows with nil error")
				}
			}
		}
	})
}

// FuzzParseDate holds the date fast path to time.Parse on arbitrary
// bytes: whatever parseISODate takes, time.Parse must read as the same
// day; whatever time.Parse reads in the years 1678-2261, parseISODate
// must take. The date cell parser as a whole must give Parse's value
// bits or Parse's error text.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{
		"2020-01-02", "1678-01-01", "2261-12-31", "1677-12-31", "2262-01-01",
		"2000-02-29", "1900-02-29", "2019-02-29", "2020-04-31", "2020-13-01", "2020-00-10",
		"2020-1-02", "+020-01-02", "2020-01-02 ", "2020/01/02", "٢020-01-02", "", "?",
	} {
		f.Add([]byte(s))
	}
	a := NewDate("d", MustParseDate("1990-01-01"), MustParseDate("2030-01-01"))
	f.Fuzz(func(t *testing.T, b []byte) {
		days, ok := parseISODate(b)
		ref, err := time.Parse("2006-01-02", string(b))
		switch {
		case ok && err != nil:
			t.Fatalf("fast path took %q, time.Parse rejects it: %v", b, err)
		case ok && math.Float64bits(days) != math.Float64bits(DateToDays(ref)):
			t.Fatalf("%q: fast path %v, time.Parse %v", b, days, DateToDays(ref))
		case !ok && err == nil && ref.Year() >= 1678 && ref.Year() <= 2261:
			t.Fatalf("fast path rejected %q, time.Parse reads %v", b, ref)
		}
		got, gotErr := a.parseBytes(b)
		want, wantErr := a.Parse(string(b))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, Parse gives %v", b, gotErr, wantErr)
		}
		requireSameValue(t, 0, 0, got, want)
	})
}
