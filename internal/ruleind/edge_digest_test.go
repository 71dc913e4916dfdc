package ruleind

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
)

// The rule inducers' model bytes on the covering loop's edge cases,
// pinned. Each digest is the SHA-256 of the gob of a model trained on
// the case's first table, and of its Update onto the second table. Every
// row trains with weight 1. A change that moves one must say why its
// models differ; the failure message prints the digests of the build.
var wantEdgeDigests = map[string]string{
	"all-null-numeric/1r/train":     "981e4f844e628ce7296d800257094aa14bf90291d8e391cd701bcc69e55e835e",
	"all-null-numeric/1r/update":    "e43746bf61c568f29e929f104fbdaf0d7dc567e9378bf66f3ce072f4e913bc33",
	"all-null-numeric/prism/train":  "558deb82e55256d02e4eba2148c06e48d37289d077e9ed79648323f4189cac4a",
	"all-null-numeric/prism/update": "f4a0e728f280c33877a0d0ddd7e41c4b5a024eb041b98e2f79ee7f24e5dfd344",
	"no-positives/1r/train":         "1247d3fdafcba90cb73e0e7863d84a725ee8f97f5618c1b83bfa0051036b2091",
	"no-positives/1r/update":        "908c4f322eedb6c48a92836d31f28f30876d792f685d68450f07ba953e636858",
	"no-positives/prism/train":      "892a955d66cf74f9190e730cc43dd2b151acde41b4e41b9bfb5446203ea8c28f",
	"no-positives/prism/update":     "5b3d7c48a1bffe47c16129aefc74f82d777aaa7a145319614f5b94529aa80b04",
	"rule-cap/1r/train":             "5fb42a5ee11eb617c612155640870e8f26a098bb4d1fb95b397764bb7d32d8c0",
	"rule-cap/1r/update":            "1e0b7cb2d33523764c3f39a97ace23bf7878c82c7ef0bcf2f5c752cf5b4b3415",
	"rule-cap/prism/train":          "b472268ee6bd2de5460634d70fef8831b18acc6e53141c1b682cc4282580ba58",
	"rule-cap/prism/update":         "c371312e9dc42e759f6bb7936560b6e53e04fbb6586e11f91a77a263d528e3d4",
}

// Gob numbers types in the order a process first encodes them; encoding
// both models before any test runs fixes the numbering the digests see.
func init() {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range []any{&OneRModel{}, &PrismModel{}} {
		if err := enc.Encode(m); err != nil {
			panic(err)
		}
	}
}

type edgeCase struct {
	name string
	// row draws one row: a, b, x and the class, as in riSchema.
	row func(rng *rand.Rand) []dataset.Value
	// schema overrides riSchema when non-nil.
	schema *dataset.Schema
}

func edgeCases() []edgeCase {
	return []edgeCase{{
		// Class c2 never occurs: PRISM's covering loop for it stops at
		// once, and every tally carries a zero for it.
		name: "no-positives",
		row: func(rng *rand.Rand) []dataset.Value {
			a := rng.Intn(3)
			return []dataset.Value{dataset.Nom(a), dataset.Nom(rng.Intn(2)), dataset.Num(rng.Float64() * 100), dataset.Nom(a % 2)}
		},
	}, {
		// x is null on every row: the view gives it one dummy bucket that
		// training never fills.
		name: "all-null-numeric",
		row: func(rng *rand.Rand) []dataset.Value {
			a, b := rng.Intn(3), rng.Intn(2)
			c := a
			if b == 1 && rng.Intn(4) == 0 {
				c = (a + 1) % 3
			}
			return []dataset.Value{dataset.Nom(a), dataset.Nom(b), dataset.Null(), dataset.Nom(c)}
		},
	}, {
		// The class is a random function of (a, b) over 16×16 values, so
		// each class needs more than 64 conjunctions and its pool stops at
		// the rule cap.
		name: "rule-cap",
		schema: dataset.MustSchema(
			dataset.NewNominal("a", values("a", 16)...),
			dataset.NewNominal("b", values("b", 16)...),
			dataset.NewNumeric("x", 0, 100),
			dataset.NewNominal("class", "c0", "c1", "c2"),
		),
		row: func() func(rng *rand.Rand) []dataset.Value {
			fn := rand.New(rand.NewSource(61)).Perm(256)
			return func(rng *rand.Rand) []dataset.Value {
				a, b := rng.Intn(16), rng.Intn(16)
				return []dataset.Value{dataset.Nom(a), dataset.Nom(b), dataset.Num(rng.Float64() * 100), dataset.Nom(fn[a*16+b] % 2)}
			}
		}(),
	}}
}

func values(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// edgeInstances draws n rows of the case's table.
func edgeInstances(t *testing.T, c edgeCase, n int, seed int64) *mlcore.Instances {
	t.Helper()
	schema := c.schema
	if schema == nil {
		schema = riSchema(t)
	}
	tab := dataset.NewTable(schema)
	rng := rand.New(rand.NewSource(seed))
	for range n {
		tab.AppendRow(c.row(rng))
	}
	return riInstances(t, tab)
}

func gobDigest(t *testing.T, m mlcore.Classifier) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestRuleModelEdgeDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range edgeCases() {
		train := edgeInstances(t, c, 1200, 62)
		next := edgeInstances(t, c, 1000, 63)
		for _, inducer := range []struct {
			name string
			tr   mlcore.Trainer
		}{{"1r", &OneRTrainer{}}, {"prism", &PrismTrainer{}}} {
			key := c.name + "/" + inducer.name
			m, err := inducer.tr.Train(train)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			succ, err := m.(mlcore.IncrementalClassifier).Update(inducer.tr, next)
			if err != nil {
				t.Fatalf("%s update: %v", key, err)
			}
			got[key+"/train"] = gobDigest(t, m)
			got[key+"/update"] = gobDigest(t, succ)
			if pm, ok := m.(*PrismModel); ok && c.name == "rule-cap" {
				checkRuleCap(t, pm)
			}
		}
	}
	failed := false
	for key, sum := range got {
		if wantEdgeDigests[key] != sum {
			t.Errorf("%s: model digest %s, want %s", key, sum, wantEdgeDigests[key])
			failed = true
		}
	}
	if failed {
		var b strings.Builder
		for _, k := range slices.Sorted(maps.Keys(got)) {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("digests of this build:\n%s", b.String())
	}
}

// checkRuleCap holds the rule-cap case to its purpose: the class is a
// function of (a, b), so every rule is pure, and each class that occurs
// stops at exactly 64 rules.
func checkRuleCap(t *testing.T, pm *PrismModel) {
	t.Helper()
	perClass := make([]int, pm.K)
	for _, r := range pm.Rules {
		best, p := r.Dist.Best()
		if p != 1 {
			t.Fatalf("rule-cap: rule %v is not pure: %v", r.Conds, r.Dist)
		}
		perClass[best]++
	}
	if perClass[0] != 64 || perClass[1] != 64 {
		t.Fatalf("rule-cap: rules per class %v, want 64 for c0 and c1", perClass)
	}
}

// TestOneRDecodesModelWithTallies: 1R models used to carry every base
// attribute's bucket tallies (the fields AllDists and AllNull). A gob
// written then must still load, and equal field for field the model the
// same instances train today. testdata/oner_with_tallies.gob is the gob
// of commit d87ce94's 1R trained on the no-positives case's 300 rows of
// seed 71, each of weight 1.
func TestOneRDecodesModelWithTallies(t *testing.T) {
	b, err := os.ReadFile("testdata/oner_with_tallies.gob")
	if err != nil {
		t.Fatal(err)
	}
	var old OneRModel
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	fresh, err := (&OneRTrainer{}).Train(edgeInstances(t, edgeCases()[0], 300, 71))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&old, fresh) {
		t.Fatalf("decoded model %+v\ndiffers from the trained one %+v", old, fresh)
	}
}
