package dataset

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
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

// FuzzCSVSource feeds arbitrary bytes through NewCSVSource + NextChunk.
// The contract under fuzz: no panic, every error is a typed header/width
// error or a parse/CSV error, and the chunk stays column-aligned after
// every call no matter where in the input the decoder gave up.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		schema := fuzzSchema(t)
		for _, bound := range []int64{0, 1 << 10} {
			var src *CSVSource
			var err error
			if bound > 0 {
				src, err = NewBoundedCSVSource(bytes.NewReader(data), schema, bound)
			} else {
				src, err = NewCSVSource(bytes.NewReader(data), schema)
			}
			if err != nil {
				// A rejected header must be one of the typed contracts or a
				// CSV-level read error; all of them are errors, none panic.
				continue
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
					// Mid-stream failures keep the previously decoded rows
					// and carry a typed width error or a parse error.
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
		}
	})
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
