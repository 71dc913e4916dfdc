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
// the case's first table, and of its Update onto the second table. The
// weights are fractional so that a tally summed in another instance
// order moves a digest. A change that moves one must say why its models
// differ; the failure message prints the digests of the build.
var wantEdgeDigests = map[string]string{
	"all-null-numeric/1r/train":     "a2b34e2d4aaec32b0a9a650c9f090c1d9cced9fb70c835adcc5b20d5b13ccc1f",
	"all-null-numeric/1r/update":    "cacbc3db38486f05bb06713824fa2f312802f74c6962d57db6dd7967f3b40476",
	"all-null-numeric/prism/train":  "31c6ed538aa74ccad54b7574d727699bdfeadcb6b64570dd4c5b5befb93b0625",
	"all-null-numeric/prism/update": "b46b86448e06f6852d79b7e91edb16dcdb5bd880d3d354f45d3f9a02423f1406",
	"no-positives/1r/train":         "55f7198c34868debd707c60ab8acc4237658f88e0e3ea7b8217d72b7a043e7cb",
	"no-positives/1r/update":        "f445c18a0345566c57556d6bb3257562e798a4aab4c412b0291be9ac99f1a6a0",
	"no-positives/prism/train":      "bd1296bc4875c24be95abe1296a9083d06e734e38303f8f1e56359151f589a5c",
	"no-positives/prism/update":     "05f8fd9935be0c29ea4295d91ca1396211182080080016647382c650f7c2311e",
	"rule-cap/1r/train":             "fe2511a65790db8dc381ce25962ff40eff806f3b13594f6890fb4d17eb45bd38",
	"rule-cap/1r/update":            "80724a869a1ef067de7b8198f60b37e51a37663d9b78b80fff57fd6fb04d5e69",
	"rule-cap/prism/train":          "f19f09dfc6fe0fc508122cec586fc5bdd79155ca01b1d3df3307258b8918e814",
	"rule-cap/prism/update":         "7b6743b71b00ac81f6f15983f52e96c40ea42a12a52ee16fd60b8cb299fa5365",
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

// edgeInstances draws n rows of the case's table with fractional weights.
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
	ins := riInstances(t, tab)
	for i := range ins.Weights {
		ins.Weights[i] = 0.1 + rng.Float64()
	}
	return ins
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
// seed 71.
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
