package dataset

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// chunkFixtureTable builds a small mixed-type table with nulls in every
// column and rows straddling a 64-row null-bitmap word boundary.
func chunkFixtureTable(t testing.TB) *Table {
	t.Helper()
	s := fuzzSchema(t)
	tab := NewTable(s)
	row := make([]Value, s.Len())
	for r := 0; r < 150; r++ {
		row[0] = Nom(r % 3)
		row[1] = Num(float64(r) * 1.25)
		row[2] = Num(float64(10957 + r)) // days ~ 2000s dates
		if r%7 == 0 {
			row[0] = Null()
		}
		if r%11 == 0 {
			row[1] = Null()
		}
		if r%13 == 0 {
			row[2] = Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

// TestChunkIntoRoundTrip checks ChunkInto against the table it copied
// from: every reconstructed Value, row and record ID must match, for
// ranges starting at zero and mid-table.
func TestChunkIntoRoundTrip(t *testing.T) {
	tab := chunkFixtureTable(t)
	ck := NewColumnChunk(tab.Schema())
	for _, span := range [][2]int{{0, 150}, {0, 1}, {37, 103}, {149, 150}} {
		lo, hi := span[0], span[1]
		tab.ChunkInto(ck, lo, hi)
		if ck.Rows() != hi-lo {
			t.Fatalf("[%d,%d): chunk has %d rows", lo, hi, ck.Rows())
		}
		buf := make([]Value, tab.NumCols())
		want := make([]Value, tab.NumCols())
		for r := 0; r < ck.Rows(); r++ {
			if ck.ID(r) != tab.ID(lo+r) {
				t.Fatalf("[%d,%d) row %d: ID %d, want %d", lo, hi, r, ck.ID(r), tab.ID(lo+r))
			}
			ck.RowInto(r, buf)
			tab.RowInto(lo+r, want)
			for c := range want {
				if !reflect.DeepEqual(ck.Value(r, c), want[c]) || !reflect.DeepEqual(buf[c], want[c]) {
					t.Fatalf("[%d,%d) row %d col %d: %v, want %v", lo, hi, r, c, ck.Value(r, c), want[c])
				}
			}
		}
	}
}

// TestChunkRowBytes holds ChunkRowBytes to the layout it describes: a
// filled chunk's vectors, bitmaps and IDs add up to rows × ChunkRowBytes
// (64 rows over 8 columns, so every bitmap word and null byte is whole).
func TestChunkRowBytes(t *testing.T) {
	attrs := []*Attribute{NewNumeric("n0", 0, 1), NewNumeric("n1", 0, 1), NewDate("d", MustParseDate("1990-01-01"), MustParseDate("2030-01-01"))}
	for _, name := range []string{"a", "b", "c", "d2", "e"} {
		attrs = append(attrs, NewNominal(name, "x", "y"))
	}
	s := MustSchema(attrs...)
	ck := NewColumnChunk(s)
	row := make([]Value, s.Len())
	for r := 0; r < 64; r++ {
		ck.AppendRow(row, int64(r)) // all-null rows still occupy their slots
	}
	got := 8 * len(ck.ids)
	for c := range ck.cols {
		got += 4*len(ck.cols[c].Nom) + 8*len(ck.cols[c].Num) + 8*len(ck.cols[c].nulls)
	}
	if want := 64 * ChunkRowBytes(s); got != want || ChunkRowBytes(s) != 8+1+3*8+5*4 {
		t.Fatalf("64-row chunk holds %d bytes, ChunkRowBytes says %d (%d per row)", got, want, ChunkRowBytes(s))
	}
}

// TestChunkResetClearsNulls is the stale-bitmap regression test: a chunk
// refilled after Reset must not inherit null bits from the rows it held
// before, and the refill must reuse the grown buffers (no reallocation).
func TestChunkResetClearsNulls(t *testing.T) {
	tab := chunkFixtureTable(t)
	ck := NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, 150)
	nomCap, numCap := cap(ck.Col(0).Nom), cap(ck.Col(1).Num)

	// Row 0 of the fixture is null in column 0 (0%7==0); refill starting
	// at a row that is not.
	tab.ChunkInto(ck, 1, 101)
	if ck.Col(0).Null(0) {
		t.Fatal("null bit survived Reset: chunk row 0 reads null after refill with a non-null row")
	}
	for r := 0; r < ck.Rows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			if got, want := ck.Value(r, c), tab.Get(1+r, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d col %d after refill: %v, want %v", r, c, got, want)
			}
		}
	}
	if cap(ck.Col(0).Nom) != nomCap || cap(ck.Col(1).Num) != numCap {
		t.Fatal("refill below the high-water mark reallocated column buffers")
	}
}

// corruptStream writes the table's first ten rows as a table stream —
// header, one chunk, the closing empty chunk — with the mutation applied
// to the chunk's wire message: the way an adversarial or bit-rotted
// stream would present it to ChunkStreamReader and DecodeTable.
func corruptStream(t *testing.T, tab *Table, mutate func(*wireStreamChunk)) []byte {
	t.Helper()
	ck := NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, 10)
	wc := wireStreamChunk{IDs: ck.ids, N: ck.n}
	for c := range ck.cols {
		wc.Cols = append(wc.Cols, wireCol{Nom: ck.cols[c].Nom, Num: ck.cols[c].Num, Nulls: ck.cols[c].nulls})
	}
	mutate(&wc)
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	for _, msg := range []any{toWireSchema(tab.Schema()), &wc, &wireStreamChunk{Cols: make([]wireCol, len(ck.cols))}} {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestChunkStreamRejectsCorruptChunks walks every validation the row wire
// format performs: each class of misalignment must fail — in the stream
// reader and in DecodeTable, which is built on it — instead of
// materializing rows the kernels would index out of bounds.
func TestChunkStreamRejectsCorruptChunks(t *testing.T) {
	tab := chunkFixtureTable(t)
	if _, err := DecodeTable(bytes.NewReader(corruptStream(t, tab, func(*wireStreamChunk) {}))); err != nil {
		t.Fatalf("the unmutated stream does not decode: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*wireStreamChunk)
	}{
		{"id count mismatch", func(wc *wireStreamChunk) { wc.IDs = wc.IDs[:len(wc.IDs)-1] }},
		{"negative row count", func(wc *wireStreamChunk) { wc.N = -1 }},
		{"column count mismatch", func(wc *wireStreamChunk) { wc.Cols = wc.Cols[:len(wc.Cols)-1] }},
		{"nominal index outside domain", func(wc *wireStreamChunk) { wc.Cols[0].Nom[2] = 99 }},
		{"negative nominal index", func(wc *wireStreamChunk) { wc.Cols[0].Nom[2] = -2 }},
		{"null row with live index", func(wc *wireStreamChunk) { wc.Cols[0].Nom[0] = 1 }}, // row 0 is null in col 0
		{"short null bitmap", func(wc *wireStreamChunk) { wc.Cols[1].Nulls = nil }},
		{"nominal data in numeric column", func(wc *wireStreamChunk) { wc.Cols[1].Nom = []int32{1}; wc.Cols[1].Num = nil }},
		{"short numeric column", func(wc *wireStreamChunk) { wc.Cols[1].Num = wc.Cols[1].Num[:3] }},
		{"short nominal column", func(wc *wireStreamChunk) { wc.Cols[0].Nom = wc.Cols[0].Nom[:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := corruptStream(t, tab, tc.mutate)
			if _, err := NewChunkStreamReader(bytes.NewReader(stream)).Read(); err == nil {
				t.Fatal("ChunkStreamReader accepted a corrupt chunk")
			}
			if _, err := DecodeTable(bytes.NewReader(stream)); err == nil {
				t.Fatal("DecodeTable accepted a corrupt stream")
			}
		})
	}

	t.Run("truncated stream", func(t *testing.T) {
		stream := corruptStream(t, tab, func(*wireStreamChunk) {})
		if _, err := NewChunkStreamReader(bytes.NewReader(stream[:len(stream)/2])).Read(); err == nil {
			t.Fatal("ChunkStreamReader accepted a truncated stream")
		}
		if _, err := DecodeTable(bytes.NewReader(stream[:len(stream)/2])); err == nil {
			t.Fatal("DecodeTable accepted a truncated stream")
		}
	})

	t.Run("null payload canonicalized", func(t *testing.T) {
		// A numeric null whose in-band payload is not NaN decodes with the
		// payload rewritten to NaN, so in-band and bitmap views agree.
		stream := corruptStream(t, tab, func(wc *wireStreamChunk) { wc.Cols[1].Num[0] = 42 }) // row 0 is null in col 1
		ck, err := NewChunkStreamReader(bytes.NewReader(stream)).Read()
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(ck.Col(1).Num[0]) {
			t.Fatalf("null payload decoded as %v, want NaN", ck.Col(1).Num[0])
		}
	})
}

// TestDecodeTableNeedsClosingChunk: a table stream cut at a chunk
// boundary is a clean io.EOF to the stream reader, so DecodeTable tells
// it from a complete one by the closing empty chunk; an empty table is
// its schema plus that chunk.
func TestDecodeTableNeedsClosingChunk(t *testing.T) {
	tab := chunkFixtureTable(t)
	var cut bytes.Buffer
	sw := NewChunkStreamWriter(&cut)
	ck := NewColumnChunk(tab.Schema())
	tab.ChunkInto(ck, 0, 10)
	if err := sw.Write(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(&cut); err == nil {
		t.Fatal("DecodeTable accepted a stream without the closing chunk")
	}
	if _, err := DecodeTable(bytes.NewReader(nil)); err == nil {
		t.Fatal("DecodeTable accepted an empty stream")
	}

	b, err := MarshalTable(NewTable(tab.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := UnmarshalTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumRows() != 0 || !reflect.DeepEqual(empty.Schema().Names(), tab.Schema().Names()) {
		t.Fatalf("empty table came back with %d rows, attributes %v", empty.NumRows(), empty.Schema().Names())
	}
}

// TestValueAndSchemaGobRoundTrip covers the GobEncoder/GobDecoder pair on
// Value and Schema (the hooks model persistence relies on), including the
// short-buffer decode error paths.
func TestValueAndSchemaGobRoundTrip(t *testing.T) {
	type carrier struct {
		V []Value
		S *Schema
	}
	in := carrier{V: []Value{Null(), Nom(2), Num(-3.75)}, S: fuzzSchema(t)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatal(err)
	}
	var out carrier
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.V, out.V) {
		t.Fatalf("values changed: %v -> %v", in.V, out.V)
	}
	if !reflect.DeepEqual(in.S.Names(), out.S.Names()) {
		t.Fatalf("schema names changed: %v -> %v", in.S.Names(), out.S.Names())
	}

	var v Value
	if err := v.GobDecode([]byte{1}); err == nil {
		t.Fatal("Value.GobDecode accepted a short buffer")
	}

	// The corrupt-kind guard must fire.
	bad := make([]byte, 14)
	bad[0], bad[1] = 1, 9
	if err := v.GobDecode(bad); err == nil {
		t.Fatal("Value.GobDecode accepted a corrupt kind byte")
	}
	var s Schema
	if err := s.GobDecode([]byte{0xFF}); err == nil {
		t.Fatal("Schema.GobDecode accepted garbage")
	}
}

// TestValueRecordAppendRead: AppendRecord writes GobEncode's bytes into
// a caller's buffer and SetRecord reads them back, neither allocating.
func TestValueRecordAppendRead(t *testing.T) {
	vals := []Value{Null(), Nom(0), Nom(7), Num(-3.75), Num(math.NaN()), Num(math.Inf(-1)), Num(math.Copysign(0, -1))}
	buf := make([]byte, 0, ValueRecordSize*len(vals))
	for _, v := range vals {
		want, _ := v.GobEncode()
		start := len(buf)
		buf = v.AppendRecord(buf)
		if !bytes.Equal(buf[start:], want) {
			t.Fatalf("%v: AppendRecord wrote % x, GobEncode % x", v, buf[start:], want)
		}
	}
	for i, v := range vals {
		var got Value
		if err := got.SetRecord(buf[i*ValueRecordSize:]); err != nil {
			t.Fatal(err)
		}
		if got.kind != v.kind || got.idx != v.idx || math.Float64bits(got.num) != math.Float64bits(v.num) {
			t.Fatalf("record %d: %#v, want %#v", i, got, v)
		}
	}
	if err := new(Value).SetRecord(buf[:ValueRecordSize-1]); err == nil {
		t.Fatal("SetRecord accepted a short record")
	}
	var v Value
	if n := testing.AllocsPerRun(100, func() {
		buf = Num(1.5).AppendRecord(buf[:0])
		_ = v.SetRecord(buf)
	}); n != 0 {
		t.Fatalf("record append/read allocates %.0f times", n)
	}
}

// TestTableFileRoundTrip covers the file-level persistence helpers for
// both wire formats, plus their open-error paths.
func TestTableFileRoundTrip(t *testing.T) {
	tab := chunkFixtureTable(t)
	dir := t.TempDir()

	bin := filepath.Join(dir, "t.bin")
	if err := WriteTableFile(bin, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() || !reflect.DeepEqual(got.Row(17), tab.Row(17)) {
		t.Fatal("binary table round trip changed the data")
	}
	if _, err := ReadTableFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("ReadTableFile succeeded on a missing file")
	}

	csvPath := filepath.Join(dir, "t.csv")
	if err := WriteCSVFile(csvPath, tab); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCSVFile(csvPath, tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() || !reflect.DeepEqual(got.Row(17), tab.Row(17)) {
		t.Fatal("CSV table round trip changed the data")
	}
	if _, err := ReadCSVFile(filepath.Join(dir, "missing.csv"), tab.Schema()); err == nil {
		t.Fatal("ReadCSVFile succeeded on a missing file")
	}
}

// TestReadAllPropagatesSourceErrors covers ReadAll's two exits: a clean
// EOF materializes the full table, a mid-stream decode failure surfaces
// the source's typed error with no table.
func TestReadAllPropagatesSourceErrors(t *testing.T) {
	s := fuzzSchema(t)
	good := "color,x,d\nred,1,2020-01-02\nblue,2,2020-01-03\n"
	src, err := NewCSVSource(strings.NewReader(good), s)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.Get(1, 0).NomIdx() != 2 {
		t.Fatalf("ReadAll materialized %d rows", tab.NumRows())
	}

	bad := "color,x,d\nred,1,2020-01-02\nred,1\n"
	src, err = NewCSVSource(strings.NewReader(bad), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(src); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("ReadAll returned %v, want a width error", err)
	}

	if _, err := ParseSchemaFile(filepath.Join(t.TempDir(), "missing.schema")); err == nil {
		t.Fatal("ParseSchemaFile succeeded on a missing file")
	}
}
