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

	index map[string]int // lazy string -> domain index
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
	a.index = make(map[string]int, len(a.Domain))
	for i, s := range a.Domain {
		a.index[s] = i
	}
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
func (a *Attribute) Index(s string) (int, bool) {
	if a.index == nil {
		a.buildIndex()
	}
	i, ok := a.index[s]
	return i, ok
}

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
