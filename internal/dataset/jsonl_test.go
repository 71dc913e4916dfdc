package dataset

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func jsonlSchema(t testing.TB) *Schema {
	t.Helper()
	return MustSchema(
		NewNominal("brv", "404", "501"),
		NewNumeric("disp", 0, 10000),
		NewDate("prod", MustParseDate("1995-01-01"), MustParseDate("2002-12-31")),
	)
}

func drain(t *testing.T, src RowSource) ([][]Value, []int64) {
	t.Helper()
	ck, err := drainChunks(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, ck.Rows())
	ids := make([]int64, ck.Rows())
	for r := range rows {
		rows[r] = ck.RowInto(r, make([]Value, src.Schema().Len()))
		ids[r] = ck.ID(r)
	}
	return rows, ids
}

func TestJSONLSourceDecodes(t *testing.T) {
	s := jsonlSchema(t)
	in := `{"brv":"404","disp":2300.5,"prod":"1999-03-02"}
{"brv":"501","disp":null,"prod":null}

{"disp":"1750"}
{"brv":"?","disp":1e3,"prod":""}
`
	rows, ids := drain(t, NewJSONLSource(strings.NewReader(in), s))
	want := [][]Value{
		{Nom(0), Num(2300.5), DateValue(MustParseDate("1999-03-02"))},
		{Nom(1), Null(), Null()},
		{Null(), Num(1750), Null()}, // missing fields are null, strings coerce
		{Null(), Num(1000), Null()}, // "?" and "" spell null, exponents parse
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	if !reflect.DeepEqual(ids, []int64{0, 1, 2, 3}) {
		t.Fatalf("ids = %v", ids)
	}
}

func TestJSONLSourceErrors(t *testing.T) {
	s := jsonlSchema(t)
	cases := []struct {
		name, in, wantSub string
	}{
		{"malformed JSON", `{"brv":`, "line 1"},
		{"not an object", `[1,2,3]`, "line 1"},
		{"null line", "null", "line 1: null is not a JSON object"},
		{"unknown field", `{"brv":"404","bogus":1}`, `"bogus"`},
		{"bad nominal", `{"brv":"999"}`, "brv"},
		{"bad number", `{"disp":"abc"}`, "disp"},
		{"bad date", `{"prod":"03/02/1999"}`, "prod"},
		{"boolean cell", `{"disp":true}`, "boolean"},
		{"nested value", `{"disp":{"v":1}}`, "unsupported"},
		{"trailing data", `{"brv":"404"} {"brv":"501"}`, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := NewJSONLSource(strings.NewReader(tc.in), s)
			n, err := src.NextChunk(NewColumnChunk(s), 10)
			if n != 0 || err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestJSONLSourceLineNumbersSkipBlanks(t *testing.T) {
	s := jsonlSchema(t)
	src := NewJSONLSource(strings.NewReader("\n\n{\"brv\":\"404\"}\n\n{bad\n"), s)
	n, err := src.NextChunk(NewColumnChunk(s), 10)
	if n != 1 || err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("(%d, %v), want one row and an error at line 5", n, err)
	}
}

func TestBoundedJSONLSource(t *testing.T) {
	s := jsonlSchema(t)
	long := `{"brv":"404","disp":` + strings.Repeat("1", 200) + "}\n"
	src, err := NewBoundedJSONLSource(strings.NewReader(long), s, 64)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewColumnChunk(s)
	if _, err := src.NextChunk(ck, 10); err == nil || !strings.Contains(err.Error(), "64-byte limit") {
		t.Fatalf("err = %v, want byte-limit failure", err)
	}
	// A cap below any line is rejected up front only for non-positive.
	if _, err := NewBoundedJSONLSource(strings.NewReader(""), s, 0); err == nil {
		t.Fatal("zero cap accepted")
	}
	// Short lines pass under a generous cap.
	src, err = NewBoundedJSONLSource(strings.NewReader(`{"brv":"404"}`+"\n"), s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src.NextChunk(ck, 10); n != 1 || err != nil {
		t.Fatalf("(%d, %v), want one row", n, err)
	}
	if _, err := src.NextChunk(ck, 10); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// TestWriteJSONLRoundTrip: write → read reproduces the exact cell values
// through ReadAll and through NextChunk alike.
func TestWriteJSONLRoundTrip(t *testing.T) {
	s := jsonlSchema(t)
	tab := NewTable(s)
	tab.AppendRow([]Value{Nom(0), Num(2300.25), DateValue(MustParseDate("2001-07-09"))})
	tab.AppendRow([]Value{Nom(1), Null(), Null()})
	tab.AppendRow([]Value{Null(), Num(1e-7), DateValue(MustParseDate("1995-01-01"))})

	var b strings.Builder
	if err := WriteJSONL(&b, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(NewJSONLSource(strings.NewReader(b.String()), s))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() {
		t.Fatalf("round trip lost rows: %d != %d", back.NumRows(), tab.NumRows())
	}
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < s.Len(); c++ {
			if !tab.Get(r, c).Equal(back.Get(r, c)) {
				t.Fatalf("cell (%d,%d) changed: %v -> %v", r, c, tab.Get(r, c), back.Get(r, c))
			}
		}
	}

	// NextChunk must deliver the same rows and IDs.
	src := NewJSONLSource(strings.NewReader(b.String()), s)
	ck := NewColumnChunk(s)
	n, err := src.NextChunk(ck, 100)
	if err != nil || n != 3 {
		t.Fatalf("NextChunk = %d, %v", n, err)
	}
	for r := 0; r < n; r++ {
		for c := 0; c < s.Len(); c++ {
			if !ck.Value(r, c).Equal(tab.Get(r, c)) {
				t.Fatalf("chunk cell (%d,%d) differs from table", r, c)
			}
		}
	}
	if _, err := src.NextChunk(ck, 1); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}
