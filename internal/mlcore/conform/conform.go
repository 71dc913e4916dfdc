// Package conform is the shared conformance suite for the
// mlcore.IncrementalClassifier contract. Each classifier family's test
// package calls Run with its trainer and a base/full fixture; the suite
// then holds the family to the contract's three clauses:
//
//  1. copy-on-write — Update never mutates the receiver (the model's gob
//     bytes are identical before and after);
//  2. identity — Update on the model's own training set reproduces the
//     model byte-for-byte (exact families);
//  3. successor equivalence — the successor equals a retrain on the new
//     training set: gob-byte-identical for exact families, deterministic
//     and prediction-agreeing within tolerance for the warm-started
//     structure searchers.
package conform

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// Config describes one family's conformance run.
type Config struct {
	// Trainer trains the initial model and (unless Retrain overrides it)
	// the reference retrain the successor is compared against.
	Trainer mlcore.Trainer
	// Exact requires the successor to be gob-byte-identical to the full
	// retrain. Non-exact families must instead be deterministic and agree
	// with the retrain on at least MinAgree of the evaluation rows.
	Exact bool
	// MinAgree is the minimum Best-class agreement rate for non-exact
	// families (default 0.9).
	MinAgree float64
	// Retrain overrides the reference retrain when the equivalence
	// contract is conditional — 1R and Prism are byte-identical only
	// against a retrain that reuses the model's frozen feature view
	// (passed as the base model). nil means Trainer.Train.
	Retrain func(model mlcore.Classifier, full *mlcore.Instances) (mlcore.Classifier, error)
}

// Run executes the conformance suite: trains on base, updates the model
// to full through the incremental path, and checks the contract clauses
// above.
func Run(t *testing.T, cfg Config, base, full *mlcore.Instances) {
	t.Helper()
	if cfg.MinAgree == 0 {
		cfg.MinAgree = 0.9
	}
	model, err := cfg.Trainer.Train(base)
	if err != nil {
		t.Fatalf("conform: base train failed: %v", err)
	}
	retrain := func(full *mlcore.Instances) (mlcore.Classifier, error) {
		if cfg.Retrain != nil {
			return cfg.Retrain(model, full)
		}
		return cfg.Trainer.Train(full)
	}
	inc, ok := model.(mlcore.IncrementalClassifier)
	if !ok {
		t.Fatalf("conform: %T does not implement mlcore.IncrementalClassifier", model)
	}
	before := gobBytes(t, model)

	// Same training set: for exact families the successor must be the
	// model, byte for byte. Warm-started families re-accumulate float sums
	// in a different order than the cold search (unsorted threshold pass
	// vs sort-and-scan), so their identity guarantee is the agreement
	// check below, not bit-equality.
	same, err := inc.Update(cfg.Trainer, base)
	if err != nil {
		t.Fatalf("conform: same-set update failed: %v", err)
	}
	if cfg.Exact && !bytes.Equal(before, gobBytes(t, same)) {
		t.Fatal("conform: same-set successor is not byte-identical to the model")
	}

	succ, err := inc.Update(cfg.Trainer, full)
	if err != nil {
		t.Fatalf("conform: update failed: %v", err)
	}
	if !bytes.Equal(before, gobBytes(t, model)) {
		t.Fatal("conform: Update mutated the receiver (copy-on-write violated)")
	}

	ref, err := retrain(full)
	if err != nil {
		t.Fatalf("conform: reference retrain failed: %v", err)
	}
	if cfg.Exact {
		if !bytes.Equal(gobBytes(t, ref), gobBytes(t, succ)) {
			t.Fatal("conform: successor is not gob-byte-identical to the full retrain")
		}
		return
	}

	// Warm-started families: the update must be deterministic...
	succ2, err := inc.Update(cfg.Trainer, full)
	if err != nil {
		t.Fatalf("conform: repeated update failed: %v", err)
	}
	if !bytes.Equal(gobBytes(t, succ), gobBytes(t, succ2)) {
		t.Fatal("conform: warm-started update is not deterministic")
	}
	// ...and quality-equivalent: Best-class agreement with the retrain.
	agree, total := 0, 0
	row := make([]dataset.Value, full.Table.NumCols())
	var ds, dr mlcore.Distribution
	for _, r := range full.Rows {
		full.Table.RowInto(r, row)
		succ.PredictInto(row, &ds)
		ref.PredictInto(row, &dr)
		bs, _ := ds.Best()
		br, _ := dr.Best()
		total++
		if bs == br {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("conform: empty evaluation set")
	}
	if rate := float64(agree) / float64(total); rate < cfg.MinAgree {
		t.Fatalf("conform: successor agrees with the full retrain on %.3f of rows, want >= %.3f", rate, cfg.MinAgree)
	}
}

// Fixture builds a deterministic synthetic pair of training sets over
// one table whose class attribute depends on the first nominal base
// attribute (with noise) and correlates with the numeric attribute. base
// holds the first baseRows rows; full drops removeRows of them, drawn at
// random, and appends the remaining addRows rows.
func Fixture(t *testing.T, baseRows, addRows, removeRows int, seed int64) (base, full *mlcore.Instances) {
	t.Helper()
	if removeRows >= baseRows {
		t.Fatalf("conform: removeRows %d must be < baseRows %d", removeRows, baseRows)
	}
	schema, err := dataset.NewSchema(
		dataset.NewNominal("nomA", "a0", "a1", "a2", "a3"),
		dataset.NewNominal("nomB", "b0", "b1", "b2"),
		dataset.NewNumeric("num", 0, 100),
		dataset.NewNominal("cls", "c0", "c1", "c2"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tab := dataset.NewTable(schema)
	n := baseRows + addRows
	for i := 0; i < n; i++ {
		a := rng.Intn(4)
		cls := a % 3
		if rng.Float64() < 0.1 { // label noise
			cls = rng.Intn(3)
		}
		row := []dataset.Value{
			dataset.Nom(a),
			dataset.Nom(rng.Intn(3)),
			dataset.Num(float64(cls*30) + rng.Float64()*25),
			dataset.Nom(cls),
		}
		if rng.Float64() < 0.05 {
			row[1] = dataset.Null()
		}
		if rng.Float64() < 0.05 {
			row[2] = dataset.Null()
		}
		if rng.Float64() < 0.03 {
			row[3] = dataset.Null()
		}
		tab.AppendRow(row)
	}
	all := mlcore.NewInstances(tab, []int{0, 1, 2}, 3, func(r int) int {
		v := tab.Get(r, 3)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})

	sub := func(rows []int) *mlcore.Instances {
		w := make([]float64, len(rows))
		for i := range w {
			w[i] = 1
		}
		return all.Subset(rows, w)
	}
	baseIdx := make([]int, baseRows)
	for i := range baseIdx {
		baseIdx[i] = i
	}
	removedSet := make(map[int]bool, removeRows)
	for len(removedSet) < removeRows {
		removedSet[rng.Intn(baseRows)] = true
	}
	var fullIdx []int
	for i := 0; i < n; i++ {
		if !removedSet[i] {
			fullIdx = append(fullIdx, i)
		}
	}
	return sub(baseIdx), sub(fullIdx)
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("conform: gob encode: %v", err)
	}
	return buf.Bytes()
}
