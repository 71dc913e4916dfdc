package dataset

import "fmt"

// Schema is the ordered list of attributes of the target relation
// ("After defining a schema for the target relation with domain ranges for
// each attribute...", §4.1).
type Schema struct {
	attrs  []*Attribute
	byName map[string]int
}

// NewSchema builds and validates a schema from the given attributes.
func NewSchema(attrs ...*Attribute) (*Schema, error) {
	s := &Schema{attrs: attrs, byName: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		s.byName[a.Name] = i
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: schema needs at least one attribute")
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; for tests and examples.
func MustSchema(attrs ...*Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) *Attribute { return s.attrs[i] }

// Attrs returns the attribute slice (callers must not mutate it).
func (s *Schema) Attrs() []*Attribute { return s.attrs }

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// CheckRow validates a row against the schema: correct arity (a mismatch
// is a RowWidthError wrapping ErrRowWidth), every value null or within its
// attribute's domain range.
func (s *Schema) CheckRow(row []Value) error {
	if len(row) != len(s.attrs) {
		return &RowWidthError{Got: len(row), Want: len(s.attrs)}
	}
	for i, v := range row {
		if !s.attrs[i].Contains(v) {
			return fmt.Errorf("dataset: value %s out of domain for attribute %s", s.attrs[i].Format(v), s.attrs[i].Name)
		}
	}
	return nil
}
