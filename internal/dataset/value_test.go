package dataset

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNullValue(t *testing.T) {
	v := Null()
	if !v.IsNull() || v.IsNominal() || v.IsNumber() {
		t.Fatalf("Null() misreports kind: %v", v)
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatalf("zero Value must be null")
	}
	if !v.Equal(zero) {
		t.Fatalf("null must equal null")
	}
}

func TestNominalValue(t *testing.T) {
	v := Nom(3)
	if v.IsNull() || !v.IsNominal() {
		t.Fatalf("Nom misreports kind")
	}
	if v.NomIdx() != 3 {
		t.Fatalf("NomIdx = %d, want 3", v.NomIdx())
	}
	if v.Equal(Nom(4)) {
		t.Fatalf("Nom(3) must not equal Nom(4)")
	}
	if !v.Equal(Nom(3)) {
		t.Fatalf("Nom(3) must equal Nom(3)")
	}
	if v.Equal(Num(3)) {
		t.Fatalf("nominal must not equal number")
	}
}

func TestNominalPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Nom(-1) must panic")
		}
	}()
	Nom(-1)
}

func TestFloatPanicsOnNominal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Float on nominal must panic")
		}
	}()
	Nom(0).Float()
}

func TestNomIdxPanicsOnNumber(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NomIdx on number must panic")
		}
	}()
	Num(1).NomIdx()
}

func TestNumberValue(t *testing.T) {
	v := Num(2.5)
	if !v.IsNumber() || v.Float() != 2.5 {
		t.Fatalf("Num misbehaves: %v", v)
	}
}

func TestNaNEquality(t *testing.T) {
	if !Num(math.NaN()).Equal(Num(math.NaN())) {
		t.Fatalf("NaN values should compare equal for table diffing purposes")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "<null>"},
		{Nom(2), "#2"},
		{Num(1.5), "1.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	err := quick.Check(func(secs int64) bool {
		// Constrain to a sane range: years ~1900..2100.
		secs = secs % (200 * 365 * 24 * 3600)
		tm := time.Unix(secs, 0).UTC()
		days := DateToDays(tm)
		back := DaysToDate(days)
		return back.Sub(tm).Abs() < time.Millisecond
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDateValueFormatting(t *testing.T) {
	a := NewDate("d", MustParseDate("2000-01-01"), MustParseDate("2010-12-31"))
	v := DateValue(MustParseDate("2005-06-15"))
	if got := a.Format(v); got != "2005-06-15" {
		t.Fatalf("Format = %q", got)
	}
	parsed, err := a.Parse("2005-06-15")
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(v) {
		t.Fatalf("Parse round-trip failed: %v vs %v", parsed, v)
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParseDate must panic on garbage")
		}
	}()
	MustParseDate("not-a-date")
}
