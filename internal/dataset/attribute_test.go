package dataset

import (
	"strings"
	"testing"
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
