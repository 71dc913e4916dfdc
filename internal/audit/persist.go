package audit

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"dataaudit/internal/atomicfile"
	"dataaudit/internal/audittree"
	"dataaudit/internal/c45"
	"dataaudit/internal/dataset"
	"dataaudit/internal/knn"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/nbayes"
	"dataaudit/internal/ruleind"
)

// Structure models serialize with encoding/gob so induction and checking
// can run in different processes (§2.2: "While the time-consuming structure
// induction can be prepared off-line, new data can be checked for
// deviations and loaded quickly").

func init() {
	// Register every concrete classifier that can sit behind the
	// mlcore.Classifier interface inside a Model.
	gob.Register(&c45.Tree{})
	gob.Register(&audittree.RuleSet{})
	gob.Register(&nbayes.Model{})
	gob.Register(&knn.Model{})
	gob.Register(&ruleind.OneRModel{})
	gob.Register(&ruleind.PrismModel{})
}

// Encode writes the model in the native binary format.
func Encode(w io.Writer, m *Model) error {
	return gob.NewEncoder(w).Encode(m)
}

// Decode reads a model written by Encode. It is the one door every
// loaded model comes through (Load, Unmarshal, the registry, the shard
// replica codec), so it is where options outside the ranges Induce
// enforces, and a model whose structure does not fit its schema (see
// check), are rejected: a model that decodes scores and re-induces
// without an index panic.
func Decode(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("audit: decoding model: %w", err)
	}
	if err := m.Opts.validate(); err != nil {
		return nil, fmt.Errorf("audit: decoding model: options: %w", err)
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("audit: decoding model: %w", err)
	}
	return &m, nil
}

// check rejects a model whose structure does not fit its schema: no
// schema, a BaseAttrs option naming an unknown attribute, an attribute
// model for a column outside the schema or for one column twice, and an
// attribute model that fails AttrModel.check.
func (m *Model) check() error {
	if m.Schema == nil {
		return errors.New("no schema")
	}
	if err := checkBaseAttrs(m.Schema, m.Opts); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	seen := make([]bool, m.Schema.Len())
	for _, am := range m.Attrs {
		if am.Class < 0 || am.Class >= m.Schema.Len() {
			return fmt.Errorf("class attribute %d outside the schema's %d", am.Class, m.Schema.Len())
		}
		if seen[am.Class] {
			return fmt.Errorf("attribute %d modelled twice", am.Class)
		}
		seen[am.Class] = true
		if err := am.check(m.Schema); err != nil {
			return fmt.Errorf("attribute %d (%s): %w", am.Class, m.Schema.Attr(am.Class).Name, err)
		}
	}
	return nil
}

// check rejects an attribute model whose base columns are not other
// columns of the schema, whose class count, bins and labels do not fit
// its class column (bins exactly for a number-like one), or whose
// classifier fails its family's mlcore.Checker.
func (am *AttrModel) check(schema *dataset.Schema) error {
	for _, b := range am.Base {
		if err := mlcore.CheckAttr(schema, am.Class, b); err != nil {
			return fmt.Errorf("base: %w", err)
		}
	}
	attr := schema.Attr(am.Class)
	var k int
	switch {
	case attr.IsNumberLike() && am.Disc != nil && len(am.Disc.Reps) == am.Disc.NumBins():
		k = am.Disc.NumBins()
	case attr.Type == dataset.NominalType && am.Disc == nil:
		k = attr.NumValues()
	default:
		return errors.New("class bins do not fit the class attribute")
	}
	if am.K != k || len(am.Labels) != k {
		return fmt.Errorf("%d classes and %d labels, want %d", am.K, len(am.Labels), k)
	}
	c, ok := am.Classifier.(mlcore.Checker)
	if !ok {
		return fmt.Errorf("classifier %T cannot be checked", am.Classifier)
	}
	return c.Check(schema, am.Class, am.K)
}

// Marshal serializes the model to bytes.
func Marshal(m *Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal deserializes a model from bytes.
func Unmarshal(b []byte) (*Model, error) { return Decode(bytes.NewReader(b)) }

// Save stores the model in a file. The write is crash-safe: a reader never
// observes a half-written model (atomicfile.Write) — the guarantee
// internal/registry's atomic publish is built on.
func Save(path string, m *Model) error {
	return atomicfile.Write(path, func(w io.Writer) error { return Encode(w, m) })
}

// Load reads a model stored by Save.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
