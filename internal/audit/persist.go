package audit

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"dataaudit/internal/atomicfile"
	"dataaudit/internal/audittree"
	"dataaudit/internal/c45"
	"dataaudit/internal/knn"
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
// enforces, and a rule set that does not have the tree shape the matcher
// needs, are rejected.
func Decode(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("audit: decoding model: %w", err)
	}
	if err := m.Opts.validate(); err != nil {
		return nil, fmt.Errorf("audit: decoding model: options: %w", err)
	}
	for _, am := range m.Attrs {
		if rs, ok := am.Classifier.(*audittree.RuleSet); ok {
			if err := rs.Compile(); err != nil {
				return nil, fmt.Errorf("audit: decoding model: attribute %d: %w", am.Class, err)
			}
		}
	}
	return &m, nil
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
