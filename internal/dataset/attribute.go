package dataset

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Type enumerates the attribute types supported by the test-data generator
// and the auditing tool, matching the QUIS domain description in the paper
// (§3.2): "The majority of QUIS attributes are of nominal type, furthermore
// there are a number of attributes of numerical or date type."
type Type uint8

const (
	// NominalType attributes draw values from a finite, ordered domain of
	// strings.
	NominalType Type = iota
	// NumericType attributes hold float64 values within [Min, Max].
	NumericType
	// DateType attributes hold dates stored as fractional days since
	// 1970-01-01 UTC, within [Min, Max].
	DateType
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case NominalType:
		return "nominal"
	case NumericType:
		return "numeric"
	case DateType:
		return "date"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Attribute describes one column of a relation: its name, its type, and its
// domain range. Domain ranges are what the generator's satisfiability test
// (§4.1.3) initializes its current domain ranges from.
type Attribute struct {
	Name string
	Type Type

	// Domain lists the admissible values of a nominal attribute in a fixed
	// order; nominal Values index into this slice.
	Domain []string

	// Min and Max bound numeric and date attributes (inclusive).
	// For date attributes they are fractional days since the epoch.
	Min, Max float64

	// index is a lazily built open-addressing hash of Domain: slot h
	// holds 1 + the domain index of a value hashing to h, 0 when empty,
	// probed linearly. It serves string and byte-slice lookups alike
	// without allocating.
	index []int32
}

// NewNominal builds a nominal attribute with the given domain.
func NewNominal(name string, domain ...string) *Attribute {
	a := &Attribute{Name: name, Type: NominalType, Domain: domain}
	a.buildIndex()
	return a
}

// NewNumeric builds a numeric attribute with inclusive bounds [min, max].
func NewNumeric(name string, min, max float64) *Attribute {
	return &Attribute{Name: name, Type: NumericType, Min: min, Max: max}
}

// NewDate builds a date attribute bounded by the two dates (inclusive).
func NewDate(name string, min, max time.Time) *Attribute {
	return &Attribute{Name: name, Type: DateType, Min: DateToDays(min), Max: DateToDays(max)}
}

func (a *Attribute) buildIndex() {
	n := 8
	for n < 2*len(a.Domain) {
		n *= 2
	}
	index := make([]int32, n)
	for i, s := range a.Domain {
		h := domainHash(s) & (n - 1)
		for index[h] != 0 && a.Domain[index[h]-1] != s {
			h = (h + 1) & (n - 1)
		}
		index[h] = int32(i + 1)
	}
	a.index = index
}

// lookup returns the domain index of the nominal value spelt k.
func lookup[K string | []byte](a *Attribute, k K) (int, bool) {
	if a.index == nil {
		a.buildIndex()
	}
	mask := len(a.index) - 1
	for h := domainHash(k) & mask; ; h = (h + 1) & mask {
		i := a.index[h]
		if i == 0 {
			return 0, false
		}
		if a.Domain[i-1] == string(k) {
			return int(i - 1), true
		}
	}
}

// domainHash is 32-bit FNV-1a.
func domainHash[K string | []byte](k K) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return int(h)
}

// IsNumberLike reports whether the attribute stores number payloads
// (numeric or date). The generator treats date attributes exactly like
// numeric ones, only formatting differs.
func (a *Attribute) IsNumberLike() bool { return a.Type == NumericType || a.Type == DateType }

// NumValues returns the domain size of a nominal attribute and 0 otherwise.
func (a *Attribute) NumValues() int {
	if a.Type != NominalType {
		return 0
	}
	return len(a.Domain)
}

// Index returns the domain index of a nominal value string.
func (a *Attribute) Index(s string) (int, bool) { return lookup(a, s) }

// Nominal returns the Value for the given domain string, or an error when
// the string is not part of the domain.
func (a *Attribute) Nominal(s string) (Value, error) {
	i, ok := a.Index(s)
	if !ok {
		return Null(), fmt.Errorf("dataset: %q is not in the domain of nominal attribute %s", s, a.Name)
	}
	return Nom(i), nil
}

// MustNominal is Nominal but panics on unknown values; for tests/examples.
func (a *Attribute) MustNominal(s string) Value {
	v, err := a.Nominal(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Contains reports whether a non-null value lies within the attribute's
// domain range. Null values are considered admissible for every attribute.
func (a *Attribute) Contains(v Value) bool {
	if v.IsNull() {
		return true
	}
	switch a.Type {
	case NominalType:
		return v.IsNominal() && v.NomIdx() < len(a.Domain)
	default:
		if !v.IsNumber() {
			return false
		}
		f := v.Float()
		return f >= a.Min && f <= a.Max && !math.IsNaN(f)
	}
}

// Format renders a value of this attribute as a string. Null renders as "?".
func (a *Attribute) Format(v Value) string {
	if v.IsNull() {
		return "?"
	}
	switch a.Type {
	case NominalType:
		idx := v.NomIdx()
		if idx >= len(a.Domain) {
			return fmt.Sprintf("<bad:%d>", idx)
		}
		return a.Domain[idx]
	case DateType:
		return DaysToDate(v.Float()).UTC().Format("2006-01-02")
	default:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
}

// Parse converts a string into a Value of this attribute. The null token
// "?" and the empty string both parse to null.
func (a *Attribute) Parse(s string) (Value, error) {
	if s == "?" || s == "" {
		return Null(), nil
	}
	switch a.Type {
	case NominalType:
		return a.Nominal(s)
	case DateType:
		t, err := time.Parse("2006-01-02", s)
		if err != nil {
			return Null(), fmt.Errorf("dataset: attribute %s: %w", a.Name, err)
		}
		return DateValue(t), nil
	default:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("dataset: attribute %s: %w", a.Name, err)
		}
		return Num(f), nil
	}
}

// parseBytes is Parse over the bytes of a cell, allocation-free on the
// paths clean data takes: the domain hash for nominal cells,
// strconv for numeric ones and parseISODate for dates. Whatever those
// reject goes through Parse, so error values and texts are Parse's.
func (a *Attribute) parseBytes(b []byte) (Value, error) {
	if len(b) == 0 || len(b) == 1 && b[0] == '?' {
		return Null(), nil
	}
	switch a.Type {
	case NominalType:
		if i, ok := lookup(a, b); ok {
			return Nom(i), nil
		}
	case DateType:
		if days, ok := parseISODate(b); ok {
			return Num(days), nil
		}
	default:
		if f, err := strconv.ParseFloat(string(b), 64); err == nil {
			return Num(f), nil
		}
	}
	return a.Parse(string(b))
}

// parseISODate is the fast path of a date cell: a fixed-width YYYY-MM-DD
// that time.Parse with layout 2006-01-02 accepts, in the years 1678-2261
// where DateToDays cannot saturate, as days since the epoch. It reports
// false for anything else, valid or not; the caller then asks time.Parse.
func parseISODate(b []byte) (float64, bool) {
	if len(b) != 10 || b[4] != '-' || b[7] != '-' {
		return 0, false
	}
	var d [8]int
	for i, p := range [8]int{0, 1, 2, 3, 5, 6, 8, 9} {
		c := b[p] - '0'
		if c > 9 {
			return 0, false
		}
		d[i] = int(c)
	}
	y := d[0]*1000 + d[1]*100 + d[2]*10 + d[3]
	m := d[4]*10 + d[5]
	day := d[6]*10 + d[7]
	if y < 1678 || y > 2261 || m < 1 || m > 12 || day < 1 || day > daysInMonth(y, m) {
		return 0, false
	}
	return float64(daysFromCivil(y, m, day)), true
}

// daysInMonth is the length of month m (1-12) of the proleptic Gregorian
// year y.
func daysInMonth(y, m int) int {
	switch m {
	case 2:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// daysFromCivil counts the days from 1970-01-01 to y-m-d in the
// proleptic Gregorian calendar (negative before the epoch), by shifting
// the year to start in March so the leap day comes last.
func daysFromCivil(y, m, d int) int {
	if m <= 2 {
		y--
	}
	era := y / 400 // y >= 1677 here, so no floor correction is needed
	yoe := y - era*400
	mp := (m + 9) % 12 // March = 0
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// Validate checks internal consistency of the attribute definition.
func (a *Attribute) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("dataset: attribute with empty name")
	}
	switch a.Type {
	case NominalType:
		if len(a.Domain) == 0 {
			return fmt.Errorf("dataset: nominal attribute %s has an empty domain", a.Name)
		}
		seen := make(map[string]bool, len(a.Domain))
		for _, s := range a.Domain {
			if seen[s] {
				return fmt.Errorf("dataset: nominal attribute %s has duplicate domain value %q", a.Name, s)
			}
			seen[s] = true
		}
	case NumericType, DateType:
		if math.IsNaN(a.Min) || math.IsNaN(a.Max) || a.Min > a.Max {
			return fmt.Errorf("dataset: attribute %s has invalid range [%g, %g]", a.Name, a.Min, a.Max)
		}
	default:
		return fmt.Errorf("dataset: attribute %s has unknown type %d", a.Name, a.Type)
	}
	return nil
}
