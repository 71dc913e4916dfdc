// Package dataset provides the relational substrate for the data-auditing
// environment: typed attributes (nominal, numeric, date), values with
// explicit SQL-style nulls, schemas, and column-oriented tables with stable
// record identifiers.
//
// The package is deliberately self-contained (stdlib only) and forms the
// foundation every other package in this repository builds on: the test-data
// generator (internal/tdg), the polluters (internal/pollute), the
// classifiers (internal/c45 and friends) and the auditing tool
// (internal/audit) all operate on dataset.Table values.
package dataset

import (
	"fmt"
	"math"
	"time"
)

// valueKind discriminates the payload of a Value.
type valueKind uint8

const (
	kindNull valueKind = iota
	kindNominal
	kindNumber // numeric and date attributes share the float64 payload
)

// Value is a single cell of a table. A Value is either null, a nominal
// value (represented by its index into the attribute's domain), or a number
// (used for both numeric and date attributes; dates are stored as fractional
// days since the Unix epoch, see DateToDays).
//
// The zero Value is null.
type Value struct {
	kind valueKind
	idx  int32
	num  float64
}

// Null returns the null value.
func Null() Value { return Value{} }

// Nom returns a nominal value referring to index idx of its attribute's
// domain. It panics if idx is negative.
func Nom(idx int) Value {
	if idx < 0 {
		panic(fmt.Sprintf("dataset: negative nominal index %d", idx))
	}
	return Value{kind: kindNominal, idx: int32(idx)}
}

// Num returns a numeric (or date) value.
func Num(v float64) Value { return Value{kind: kindNumber, num: v} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == kindNull }

// IsNominal reports whether v holds a nominal domain index.
func (v Value) IsNominal() bool { return v.kind == kindNominal }

// IsNumber reports whether v holds a number (numeric or date payload).
func (v Value) IsNumber() bool { return v.kind == kindNumber }

// NomIdx returns the nominal domain index. It panics if v is not nominal.
func (v Value) NomIdx() int {
	if v.kind != kindNominal {
		panic("dataset: NomIdx on non-nominal value")
	}
	return int(v.idx)
}

// Float returns the numeric payload. It panics if v is not a number.
func (v Value) Float() float64 {
	if v.kind != kindNumber {
		panic("dataset: Float on non-number value")
	}
	return v.num
}

// Equal reports whether two values are identical. Nulls compare equal to
// nulls only. Nominal values compare by index (callers must ensure both
// values belong to the same attribute; cross-attribute comparison is
// handled by Attribute.Format-based comparison in higher layers).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case kindNull:
		return true
	case kindNominal:
		return v.idx == o.idx
	default:
		return v.num == o.num || (math.IsNaN(v.num) && math.IsNaN(o.num))
	}
}

// String renders the value without attribute context; nominal values render
// as #idx. Use Attribute.Format for domain-aware rendering.
func (v Value) String() string {
	switch v.kind {
	case kindNull:
		return "<null>"
	case kindNominal:
		return fmt.Sprintf("#%d", v.idx)
	default:
		return fmt.Sprintf("%g", v.num)
	}
}

// epoch is the reference date for date payloads.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateToDays converts a time to fractional days since 1970-01-01 UTC.
func DateToDays(t time.Time) float64 {
	return t.Sub(epoch).Hours() / 24
}

// DaysToDate converts fractional days since 1970-01-01 UTC back to a time.
func DaysToDate(days float64) time.Time {
	return epoch.Add(time.Duration(days * 24 * float64(time.Hour)))
}

// DateValue builds a date Value from a time.
func DateValue(t time.Time) Value { return Num(DateToDays(t)) }

// MustParseDate parses an ISO date (2006-01-02) and panics on error.
// It is a convenience for tests and example programs.
func MustParseDate(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return t
}
