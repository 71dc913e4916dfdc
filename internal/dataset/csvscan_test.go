package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// csvLineSchema has a nominal value with a newline, so a record can span
// lines and still decode.
func csvLineSchema() *Schema {
	return MustSchema(
		NewNominal("NOTE", "a\nb", "c"),
		NewNumeric("DISP", 1000, 5000),
	)
}

// TestCSVErrorLinesArePhysical is the regression test for errors that
// counted records instead of lines: a parse or width error names the
// physical line its record starts on, past blank lines, CRLF ends and
// quoted fields spanning lines, through NextChunk and ReadCSV alike.
func TestCSVErrorLinesArePhysical(t *testing.T) {
	cases := []struct {
		name  string
		csv   string
		width bool // a width error, else a parse error
		line  int
	}{
		{"blank lines then parse error", "NOTE,DISP\n\n\nc,bad\n", false, 4},
		{"blank lines then width error", "NOTE,DISP\n\n\nc\n", true, 4},
		{"CRLF then parse error", "NOTE,DISP\r\nc,1000\r\n\r\nc,bad\r\n", false, 4},
		{"CRLF then width error", "NOTE,DISP\r\nc,1000\r\n\r\nc,1000,9\r\n", true, 4},
		{"multi-line field then parse error", "NOTE,DISP\n\"a\nb\",1000\n\"a\nb\",bad\n", false, 4},
		{"multi-line field then width error", "NOTE,DISP\n\"a\nb\",1000\n\nc\n", true, 5},
		{"error inside a multi-line record", "NOTE,DISP\nc,1000\n\"a\nb\",bad\n", false, 3},
		{"blank lines before the header", "\n\nNOTE,DISP\nc,bad\n", false, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := csvLineSchema()
			check := func(via string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the bad row", via)
				}
				if errors.Is(err, ErrRowWidth) != tc.width {
					t.Fatalf("%s: errors.Is(err, ErrRowWidth) = %v, want %v (%v)", via, !tc.width, tc.width, err)
				}
				if tc.width {
					var rwe *RowWidthError
					if !errors.As(err, &rwe) || rwe.Line != tc.line {
						t.Fatalf("%s: RowWidthError %+v, want line %d", via, rwe, tc.line)
					}
				} else if want := fmt.Sprintf("CSV line %d:", tc.line); !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: error %q does not name %q", via, err, want)
				}
			}
			check("NextChunk", drainCSV(tc.csv, s))
			_, err := ReadCSV(strings.NewReader(tc.csv), s)
			check("ReadCSV", err)
		})
	}
}

// TestCSVQuoteErrors pins malformed quoting to encoding/csv's typed
// errors, positions included, wrapped with the record's first line.
func TestCSVQuoteErrors(t *testing.T) {
	s := csvLineSchema()
	cases := []struct {
		csv  string
		want string
	}{
		{"NOTE,DISP\nc,10\"00\n", `dataset: reading CSV line 2: parse error on line 2, column 5: bare " in non-quoted-field`},
		{"NOTE,DISP\n \"c\",1000\n", `dataset: reading CSV line 2: parse error on line 2, column 2: bare " in non-quoted-field`},
		{"NOTE,DISP\n\"c\"x,1000\n", `dataset: reading CSV line 2: parse error on line 2, column 3: extraneous or missing " in quoted-field`},
		{"NOTE,DISP\n\n\"a\nb,1000\n", `dataset: reading CSV line 3: record on line 3; parse error on line 4, column 8: extraneous or missing " in quoted-field`},
	}
	for _, tc := range cases {
		err := drainCSV(tc.csv, s)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%q:\n got %v\nwant %s", tc.csv, err, tc.want)
		}
	}
}

// TestCSVRoundTripQuotedDomains is the WriteCSV → ReadCSV property over
// nominal domains only quoting can carry: commas, quotes, newlines and
// leading or trailing spaces come back unchanged.
func TestCSVRoundTripQuotedDomains(t *testing.T) {
	s := MustSchema(
		NewNominal("TEXT", "plain", "a,b", `say "hi"`, `"`, `""`, "x\ny", "\n", "x\ry", " lead", "trail ", "  ", ",", `\.`),
		NewNumeric("X", -1e6, 1e6),
		NewDate("D", MustParseDate("1990-01-01"), MustParseDate("2030-01-01")),
	)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tab := NewTable(s)
		for r := rng.Intn(40); r >= 0; r-- {
			row := []Value{Nom(rng.Intn(s.Attr(0).NumValues())), Num(rng.NormFloat64() * 1e4), Num(float64(7305 + rng.Intn(14000)))}
			for c := range row {
				if rng.Intn(10) == 0 {
					row[c] = Null()
				}
			}
			tab.AppendRow(row)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tab); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCSV(bytes.NewReader(buf.Bytes()), s)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.Bytes())
		}
		if got.NumRows() != tab.NumRows() {
			t.Fatalf("trial %d: %d rows back, wrote %d", trial, got.NumRows(), tab.NumRows())
		}
		for r := 0; r < tab.NumRows(); r++ {
			for c := 0; c < s.Len(); c++ {
				if !got.Get(r, c).Equal(tab.Get(r, c)) {
					t.Fatalf("trial %d cell (%d,%d): %v back, wrote %v", trial, r, c, got.Get(r, c), tab.Get(r, c))
				}
			}
		}
	}

	// CRLF reads as LF inside quoted fields too, as in encoding/csv, so a
	// value holding "\r\n" comes back as its "\n" spelling.
	crlf := MustSchema(NewNominal("TEXT", "x\r\ny", "x\ny"))
	tab := NewTable(crlf)
	tab.AppendRow([]Value{Nom(0)})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, crlf)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Get(0, 0); v.NomIdx() != 1 {
		t.Fatalf(`"x\r\ny" read back as %q, want "x\ny"`, crlf.Attr(0).Format(v))
	}
}
