package ruleind

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
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
	"all-null-numeric/1r/train":     "03860b7f623bae852bde2d580fb880caea49c31a1bc7dc9b1ab796c8be507f99",
	"all-null-numeric/1r/update":    "bc753ef6d0ea6cb63b424d26877c50aa85424ca60c8977334eefbef746f267bf",
	"all-null-numeric/prism/train":  "5fe9c8aca9296679ace88abab4edc571ccede843b696288c32ffb5aa3e3924b6",
	"all-null-numeric/prism/update": "4d50d5cd634f0fe2bd2c388feb7e0f879236d5a87281339abdfef298cc3db5ce",
	"no-positives/1r/train":         "92cd82f254baa2b1a332f94f57a7ea0ee7ded5a76ec21453a2431e30e1070f94",
	"no-positives/1r/update":        "5195b929f8818b8d3fa05a4cef092ba3c56197e9ed2d71932740d6c33b874a97",
	"no-positives/prism/train":      "17a0069c2b7784d001bbe39269e98844fd865afeaab269f828c79b258e796f46",
	"no-positives/prism/update":     "00d56889b1d2fab06088e694d1befdf4fc90ad9ac0d155c711ee9c21df705b69",
	"rule-cap/1r/train":             "1cf48709069590c83bc4fdafda3ae27959839cef219f4fec9e3741c3a38d6480",
	"rule-cap/1r/update":            "0cbdd1e0253780117c19fac84028a0e79720c8fb091b6f2b9d0579ab998cdeb9",
	"rule-cap/prism/train":          "9acadf4ae4cb32301cd05700976d34c9c6719d2133f954fae9f7451b07dc8344",
	"rule-cap/prism/update":         "6ed1d4fc18361e1b7232b53d6585b1d5528e27dd97b77dcf7b07b479224ebd27",
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
		for _, tr := range []mlcore.Trainer{&OneRTrainer{}, &PrismTrainer{}} {
			m, err := tr.Train(train)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, tr.Name(), err)
			}
			succ, err := m.(mlcore.IncrementalClassifier).Update(tr, next)
			if err != nil {
				t.Fatalf("%s/%s update: %v", c.name, tr.Name(), err)
			}
			got[c.name+"/"+tr.Name()+"/train"] = gobDigest(t, m)
			got[c.name+"/"+tr.Name()+"/update"] = gobDigest(t, succ)
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
