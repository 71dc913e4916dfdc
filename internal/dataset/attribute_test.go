package dataset

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNominalAttribute(t *testing.T) {
	a := NewNominal("color", "red", "green", "blue")
	if a.Type != NominalType || a.NumValues() != 3 {
		t.Fatalf("bad attribute: %+v", a)
	}
	i, ok := a.Index("green")
	if !ok || i != 1 {
		t.Fatalf("Index(green) = %d, %v", i, ok)
	}
	if _, ok := a.Index("violet"); ok {
		t.Fatalf("Index must miss on out-of-domain value")
	}
	v := a.MustNominal("blue")
	if a.Format(v) != "blue" {
		t.Fatalf("Format = %q", a.Format(v))
	}
	if !a.Contains(v) {
		t.Fatalf("Contains(blue) = false")
	}
	if a.Contains(Nom(7)) {
		t.Fatalf("Contains(out-of-range idx) = true")
	}
	if a.Contains(Num(1)) {
		t.Fatalf("nominal attr must not contain numbers")
	}
	if !a.Contains(Null()) {
		t.Fatalf("null is admissible everywhere")
	}
}

func TestNominalParseErrors(t *testing.T) {
	a := NewNominal("c", "x")
	if _, err := a.Parse("y"); err == nil {
		t.Fatalf("Parse must fail for out-of-domain value")
	}
	v, err := a.Parse("?")
	if err != nil || !v.IsNull() {
		t.Fatalf("Parse(?) = %v, %v", v, err)
	}
	v, err = a.Parse("")
	if err != nil || !v.IsNull() {
		t.Fatalf("Parse(\"\") = %v, %v", v, err)
	}
}

func TestNumericAttribute(t *testing.T) {
	a := NewNumeric("km", 0, 500000)
	if !a.IsNumberLike() {
		t.Fatalf("numeric must be number-like")
	}
	if !a.Contains(Num(1234.5)) || a.Contains(Num(-1)) || a.Contains(Num(500001)) {
		t.Fatalf("Contains range check broken")
	}
	v, err := a.Parse("42.5")
	if err != nil || v.Float() != 42.5 {
		t.Fatalf("Parse = %v, %v", v, err)
	}
	if _, err := a.Parse("abc"); err == nil {
		t.Fatalf("Parse must fail on garbage")
	}
	if got := a.Format(Num(42.5)); got != "42.5" {
		t.Fatalf("Format = %q", got)
	}
	if got := a.Format(Null()); got != "?" {
		t.Fatalf("Format(null) = %q", got)
	}
}

func TestDateAttributeContains(t *testing.T) {
	a := NewDate("prod", MustParseDate("2000-01-01"), MustParseDate("2001-01-01"))
	if !a.Contains(DateValue(MustParseDate("2000-06-01"))) {
		t.Fatalf("mid-range date must be contained")
	}
	if a.Contains(DateValue(MustParseDate("1999-12-31"))) {
		t.Fatalf("date before range must not be contained")
	}
	if _, err := a.Parse("junk"); err == nil {
		t.Fatalf("Parse must fail on bad date")
	}
}

func TestAttributeValidate(t *testing.T) {
	cases := []struct {
		name string
		a    *Attribute
		ok   bool
	}{
		{"valid nominal", NewNominal("a", "x", "y"), true},
		{"empty name", &Attribute{Name: "", Type: NumericType, Max: 1}, false},
		{"empty domain", &Attribute{Name: "a", Type: NominalType}, false},
		{"dup domain", NewNominal("a", "x", "x"), false},
		{"min>max", NewNumeric("a", 5, 1), false},
		{"valid numeric", NewNumeric("a", 1, 5), true},
		{"unknown type", &Attribute{Name: "a", Type: Type(99)}, false},
	}
	for _, c := range cases {
		err := c.a.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestTypeString(t *testing.T) {
	if NominalType.String() != "nominal" || NumericType.String() != "numeric" || DateType.String() != "date" {
		t.Fatalf("Type.String broken")
	}
	if !strings.Contains(Type(42).String(), "42") {
		t.Fatalf("unknown type should render its code")
	}
}

// TestParseISODateExhaustive walks every day of the fast path's range,
// 1678-01-01 to 2261-12-31, and requires parseISODate to take each one
// and agree bit for bit with DateToDays(time.Parse(...)); the days just
// outside the range must be left to time.Parse.
func TestParseISODateExhaustive(t *testing.T) {
	last := time.Date(2261, 12, 31, 0, 0, 0, 0, time.UTC)
	days := 0
	for d := time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC); !d.After(last); d = d.AddDate(0, 0, 1) {
		s := d.Format("2006-01-02")
		got, ok := parseISODate([]byte(s))
		if !ok {
			t.Fatalf("fast path rejected %s", s)
		}
		ref, err := time.Parse("2006-01-02", s)
		if err != nil {
			t.Fatal(err)
		}
		if want := DateToDays(ref); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: fast path %v, time.Parse %v", s, got, want)
		}
		days++
	}
	if days != 213_301 {
		t.Fatalf("walked %d days, want 213301", days)
	}
	for _, s := range []string{"1677-12-31", "2262-01-01", "0000-01-01", "9999-12-31"} {
		if _, ok := parseISODate([]byte(s)); ok {
			t.Fatalf("fast path took %s, outside 1678-2261", s)
		}
	}
}

// TestParseBytesMatchesParse holds the byte-level cell parser to Parse:
// the same value bits, or the same error text, for every attribute type.
func TestParseBytesMatchesParse(t *testing.T) {
	attrs := []*Attribute{
		NewNominal("n", "a", "b", "a,b", " pad ", "x\ny"),
		NewNumeric("x", -10, 10),
		NewDate("d", MustParseDate("2000-01-01"), MustParseDate("2010-01-01")),
	}
	cells := []string{
		"", "?", "??", "a", "b", "c", "a,b", " pad ", "pad", "x\ny", "A",
		"1", "-0", "+1.5", ".5", "5.", "1e3", "1e400", "NaN", "-Inf", "0x1p-2", "1_0", " 1", "1,5",
		"2005-06-07", "2000-02-29", "1900-02-29", "2005-13-01", "2005-6-07", "2005-06-07T00:00",
		"1500-01-01", "3000-12-31", "0000-01-01",
	}
	for _, a := range attrs {
		for _, cell := range cells {
			got, gotErr := a.parseBytes([]byte(cell))
			want, wantErr := a.Parse(cell)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %q: error %v, Parse gives %v", a.Name, cell, gotErr, wantErr)
			}
			if got.kind != want.kind || got.idx != want.idx || math.Float64bits(got.num) != math.Float64bits(want.num) {
				t.Fatalf("%s %q: %#v, Parse gives %#v", a.Name, cell, got, want)
			}
		}
	}
}

// TestDomainIndex checks the open-addressing domain hash finds every
// value of domains large enough to collide and probe, and nothing else.
func TestDomainIndex(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 100, 5000} {
		dom := make([]string, n)
		for i := range dom {
			dom[i] = fmt.Sprintf("v%d", i)
		}
		a := NewNominal("n", dom...)
		for i, s := range dom {
			if got, ok := a.Index(s); !ok || got != i {
				t.Fatalf("domain of %d: Index(%q) = %d, %v", n, s, got, ok)
			}
			if got, ok := lookup(a, []byte(s)); !ok || got != i {
				t.Fatalf("domain of %d: lookup(%q) = %d, %v", n, s, got, ok)
			}
		}
		for _, s := range []string{"", "v", fmt.Sprintf("v%d", n), "x0"} {
			if _, ok := a.Index(s); ok {
				t.Fatalf("domain of %d: Index(%q) found a value", n, s)
			}
		}
	}
}
