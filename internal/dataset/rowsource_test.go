package dataset

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func sourceSchema() *Schema {
	return MustSchema(
		NewNominal("BRV", "404", "501"),
		NewNominal("GBM", "901", "911"),
		NewNumeric("DISP", 1000, 5000),
	)
}

// drainChunks reads src to the end in calls of at most max rows, all
// appended to one chunk, and returns the chunk with the first error other
// than io.EOF.
func drainChunks(src RowSource, max int) (*ColumnChunk, error) {
	ck := NewColumnChunk(src.Schema())
	for {
		if _, err := src.NextChunk(ck, max); err == io.EOF {
			return ck, nil
		} else if err != nil {
			return ck, err
		}
	}
}

// TestCSVSourceStreamsRows drains a well-formed stream and checks rows,
// IDs and the EOF contract.
func TestCSVSourceStreamsRows(t *testing.T) {
	s := sourceSchema()
	in := "BRV,GBM,DISP\n404,901,2100\n501,911,?\n"
	src, err := NewCSVSource(strings.NewReader(in), s)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewColumnChunk(s)
	if n, err := src.NextChunk(ck, 1); n != 1 || err != nil {
		t.Fatalf("first row: %d rows, err %v", n, err)
	}
	if ck.ID(0) != 0 || ck.Value(0, 0).NomIdx() != 0 || ck.Value(0, 2).Float() != 2100 {
		t.Fatalf("first row parsed wrong: id %d, %v", ck.ID(0), ck.RowInto(0, make([]Value, s.Len())))
	}
	if n, err := src.NextChunk(ck, 10); n != 1 || err != nil {
		t.Fatalf("second row: %d rows, err %v", n, err)
	}
	if ck.ID(1) != 1 || !ck.Value(1, 2).IsNull() {
		t.Fatalf("second row: id %d, DISP %v; want id 1 and the null token parsed", ck.ID(1), ck.Value(1, 2))
	}
	if _, err := src.NextChunk(ck, 10); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// EOF is sticky.
	if _, err := src.NextChunk(ck, 10); err != io.EOF {
		t.Fatalf("EOF not sticky: %v", err)
	}
}

// TestCSVSourceMalformed is the table-driven malformed-input contract:
// short rows and extra columns surface as the typed ErrRowWidth, bad cell
// payloads as parse errors, and every message names the offending line.
func TestCSVSourceMalformed(t *testing.T) {
	cases := []struct {
		name      string
		csv       string
		wantWidth bool   // errors.Is(err, ErrRowWidth)
		wantIn    string // substring of the error message
	}{
		{
			name:      "short row",
			csv:       "BRV,GBM,DISP\n404,901,2100\n501,911\n",
			wantWidth: true,
			wantIn:    "line 3",
		},
		{
			name:      "extra column",
			csv:       "BRV,GBM,DISP\n404,901,2100,extra\n",
			wantWidth: true,
			wantIn:    "line 2",
		},
		{
			name:   "bad numeric",
			csv:    "BRV,GBM,DISP\n404,901,not-a-number\n",
			wantIn: "line 2",
		},
		{
			name:   "bad nominal",
			csv:    "BRV,GBM,DISP\n999,901,2100\n",
			wantIn: "line 2",
		},
		{
			name:      "short header",
			csv:       "BRV,GBM\n404,901\n",
			wantWidth: true,
			wantIn:    "line 1",
		},
		{
			name:   "wrong header name",
			csv:    "BRV,XXX,DISP\n404,901,2100\n",
			wantIn: `column 2 is "XXX" (want "GBM")`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sourceSchema()
			err := drainCSV(tc.csv, s)
			if err == nil {
				t.Fatal("malformed CSV accepted")
			}
			if got := errors.Is(err, ErrRowWidth); got != tc.wantWidth {
				t.Fatalf("errors.Is(err, ErrRowWidth) = %v, want %v (err: %v)", got, tc.wantWidth, err)
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("error %q does not mention %q", err, tc.wantIn)
			}
			// The batch reader is the same decoder, so it must agree.
			if _, berr := ReadCSV(strings.NewReader(tc.csv), s); berr == nil {
				t.Fatal("ReadCSV accepted what CSVSource rejected")
			} else if errors.Is(berr, ErrRowWidth) != tc.wantWidth {
				t.Fatalf("ReadCSV width-typing disagrees: %v", berr)
			}
		})
	}
}

func drainCSV(in string, s *Schema) error {
	src, err := NewCSVSource(strings.NewReader(in), s)
	if err != nil {
		return err
	}
	_, err = drainChunks(src, 64)
	return err
}

// TestBoundedCSVSource pins the record byte cap: normal streams of any
// length pass, while a single oversized record — including the
// pathological unterminated-quote shape whose newlines are field
// content, not record boundaries — fails without being buffered whole.
func TestBoundedCSVSource(t *testing.T) {
	s := sourceSchema()
	const capBytes = 1 << 10

	t.Run("many small records pass", func(t *testing.T) {
		var b strings.Builder
		b.WriteString("BRV,GBM,DISP\n")
		for i := 0; i < 500; i++ {
			b.WriteString("404,901,2100\n") // total stream far over cap
		}
		src, err := NewBoundedCSVSource(strings.NewReader(b.String()), s, capBytes)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := drainChunks(src, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Rows() != 500 {
			t.Fatalf("decoded %d rows, want 500", ck.Rows())
		}
	})

	for _, tc := range []struct{ name, payload string }{
		{"one huge line", "404,901," + strings.Repeat("9", 4*capBytes) + "\n"},
		{"unterminated quote with newlines", "\"" + strings.Repeat("x\n", 4*capBytes)},
		{"quoted field spanning lines", "\"" + strings.Repeat("x\n", 4*capBytes) + "\",901,2100\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := "BRV,GBM,DISP\n404,901,2100\n" + tc.payload
			src, err := NewBoundedCSVSource(strings.NewReader(in), s, capBytes)
			if err != nil {
				t.Fatal(err)
			}
			ck := NewColumnChunk(s)
			n, err := src.NextChunk(ck, 10)
			if n != 1 {
				t.Fatalf("good row not kept beside the error: %d rows", n)
			}
			if err == nil || !strings.Contains(err.Error(), "byte limit") {
				t.Fatalf("oversized record not capped: %v", err)
			}
		})
	}

	t.Run("huge header capped too", func(t *testing.T) {
		in := "\"" + strings.Repeat("h", 4*capBytes) + "\",GBM,DISP\n"
		if _, err := NewBoundedCSVSource(strings.NewReader(in), s, capBytes); err == nil ||
			!strings.Contains(err.Error(), "byte limit") {
			t.Fatalf("oversized header not capped: %v", err)
		}
	})
}

// TestTableSourceRoundTrip streams a table out and back and checks
// equality including record IDs on the outbound leg.
func TestTableSourceRoundTrip(t *testing.T) {
	s := sourceSchema()
	tab := NewTable(s)
	tab.AppendRow([]Value{Nom(0), Nom(0), Num(2000)})
	tab.AppendRow([]Value{Nom(1), Nom(1), Null()})
	tab.DeleteRow(0) // IDs no longer dense: remaining row has ID 1

	src := NewTableSource(tab)
	ck := NewColumnChunk(s)
	if n, err := src.NextChunk(ck, 10); n != 1 || err != nil || ck.ID(0) != 1 {
		t.Fatalf("%d rows, err %v; want one row with id 1", n, err)
	}
	if _, err := src.NextChunk(ck, 10); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}

	got, err := ReadAll(NewTableSource(tab))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() {
		t.Fatalf("round trip: %d rows, want %d", got.NumRows(), tab.NumRows())
	}
}

// TestStringRowsSourceWidth checks the JSON-rows source produces the same
// typed width error.
func TestStringRowsSourceWidth(t *testing.T) {
	s := sourceSchema()
	src := NewStringRowsSource(s, [][]string{
		{"404", "901", "2100"},
		{"501", "911"},
	})
	n, err := src.NextChunk(NewColumnChunk(s), 10)
	if n != 1 {
		t.Fatalf("%d rows kept beside the error, want 1", n)
	}
	if !errors.Is(err, ErrRowWidth) {
		t.Fatalf("want ErrRowWidth, got %v", err)
	}
	var rwe *RowWidthError
	if !errors.As(err, &rwe) || rwe.Line != 2 || rwe.Got != 2 || rwe.Want != 3 {
		t.Fatalf("RowWidthError fields wrong: %+v", rwe)
	}
}

// TestCheckRowWidthTyped checks Schema.CheckRow joins the typed-error
// contract.
func TestCheckRowWidthTyped(t *testing.T) {
	s := sourceSchema()
	if err := s.CheckRow([]Value{Nom(0)}); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("want ErrRowWidth, got %v", err)
	}
}

// TestCSVHeaderMismatchTyped is the regression test for the silent
// column-misalignment bug: a header with the right arity but wrong names
// or order must fail fast with the typed HeaderMismatchError naming every
// offending column — never be scored misaligned.
func TestCSVHeaderMismatchTyped(t *testing.T) {
	s := sourceSchema()
	cases := []struct {
		name    string
		csv     string
		wantBad []int
	}{
		{
			// Same columns, shuffled order: the arity check alone would
			// accept this and silently misalign every value.
			name:    "shuffled columns",
			csv:     "GBM,BRV,DISP\n901,404,2100\n",
			wantBad: []int{0, 1},
		},
		{
			name:    "renamed column",
			csv:     "BRV,GEARBOX,DISP\n404,901,2100\n",
			wantBad: []int{1},
		},
		{
			name:    "all columns wrong",
			csv:     "a,b,c\n404,901,2100\n",
			wantBad: []int{0, 1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCSVSource(strings.NewReader(tc.csv), s)
			if err == nil {
				t.Fatal("misaligned header accepted")
			}
			if !errors.Is(err, ErrHeader) {
				t.Fatalf("errors.Is(err, ErrHeader) = false (err: %v)", err)
			}
			var hm *HeaderMismatchError
			if !errors.As(err, &hm) {
				t.Fatalf("error %T is not a HeaderMismatchError", err)
			}
			if len(hm.Bad) != len(tc.wantBad) {
				t.Fatalf("Bad = %v, want %v", hm.Bad, tc.wantBad)
			}
			for i, c := range tc.wantBad {
				if hm.Bad[i] != c {
					t.Fatalf("Bad = %v, want %v", hm.Bad, tc.wantBad)
				}
				if !strings.Contains(err.Error(), hm.Got[c]) || !strings.Contains(err.Error(), hm.Want[c]) {
					t.Fatalf("error %q does not name column %d (%q vs %q)", err, c, hm.Got[c], hm.Want[c])
				}
			}
			// The batch reader is the same decoder, so it must agree.
			if _, berr := ReadCSV(strings.NewReader(tc.csv), s); !errors.Is(berr, ErrHeader) {
				t.Fatalf("ReadCSV disagrees: %v", berr)
			}
			// An arity mismatch stays a RowWidthError, not a header error.
			if _, werr := NewCSVSource(strings.NewReader("BRV,GBM\n404,901\n"), s); errors.Is(werr, ErrHeader) || !errors.Is(werr, ErrRowWidth) {
				t.Fatalf("arity mismatch misclassified: %v", werr)
			}
		})
	}
}
