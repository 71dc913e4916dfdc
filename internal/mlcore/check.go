package mlcore

import (
	"fmt"

	"dataaudit/internal/dataset"
)

// Checker is implemented by every classifier that a model file or a
// replica can carry. Check reports whether a decoded classifier fits the
// schema as the model of column class with k class values: every column
// it reads is another column of the schema, read as its type, and every
// distribution counts k classes. A classifier that passes scores and
// re-induces over a table of the schema without an index panic.
type Checker interface {
	Check(schema *dataset.Schema, class, k int) error
}

// CheckAttr rejects a column that is not one of the schema's, or is the
// class column itself.
func CheckAttr(schema *dataset.Schema, class, attr int) error {
	if attr < 0 || attr >= schema.Len() {
		return fmt.Errorf("attribute %d outside the schema's %d", attr, schema.Len())
	}
	if attr == class {
		return fmt.Errorf("attribute %d is the class", attr)
	}
	return nil
}

// CheckDist rejects a distribution that does not count k classes.
func CheckDist(d Distribution, k int) error {
	if len(d.Counts) != k {
		return fmt.Errorf("distribution over %d classes, want %d", len(d.Counts), k)
	}
	return nil
}
