package audit_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/c45"
	"dataaudit/internal/dataset"
	"dataaudit/internal/knn"
	"dataaudit/internal/nbayes"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
	"dataaudit/internal/ruleind"
)

// The tree inducers' model bytes, pinned. Each digest is the SHA-256 of
// Marshal(model) with InduceTime zeroed, for Induce on a fixture's prev
// table and for incremental ReinduceAttrs of every attribute onto its cur
// table. A change that moves any induced tree — a threshold, a histogram
// weight, a float summed in another order — fails here. Such a change
// must regenerate the digests (the failure message prints them all) and
// say why its models differ.
var wantModelDigests = map[string]string{
	"baseconfig/c45-audit/induce":       "62d54309d3fb44f40f03b0e6b1dc132dbef094f3961469112e9ff5dac88138bf",
	"baseconfig/c45-audit/reinduce":     "f27b9dc285a91e39cc3fc23d02b6d7b5e0685b852545369d3bcbb131af0bbb25",
	"baseconfig/c45/induce":             "ddfe7e8af1b49f869928db2d8c78a70955acceb5eadd5bb19ddeeab865463886",
	"baseconfig/c45/reinduce":           "5d55b0d4a7f9271529b70bfcc8599d010160e8db6a7523a01958784e6ff48879",
	"baseconfig/id3/induce":             "9131f46446c18c94b8722ae1ada7f173c371599d167c2ff8d78b06fd635b9ef8",
	"baseconfig/id3/reinduce":           "12458fbafa14b714a7b0c737e4da6cee184f0b77378bfec994916bc8e31e1f66",
	"quis-canonical/c45-audit/induce":   "eb70fdc384cfc1bbda598c0820537289fce9ff061ab14a6b18cae5015ae16c14",
	"quis-canonical/c45-audit/reinduce": "1a828b4495dccdcaf080bcc2c0c5163cd07364613f4bbd38753500137ea296b2",
	"quis-canonical/c45/induce":         "642c0740cc26866e17b83fd124f673fd5af083c0847f0f341c21dbac385aac49",
	"quis-canonical/c45/reinduce":       "c64e56b499f64fda9ce891a71d5490e0c4a21bb6870b023aa612fc3f635dd3e0",
	"quis-canonical/id3/induce":         "d03673bc2388fe9df70fc8aabff2ec5277cc0f1aa24f30ffa44938045cf94186",
	"quis-canonical/id3/reinduce":       "d7790f5b300713e3027ef4d45cbf4af6c2f6587867c41e58e9fd0ad6e52f046d",
	"quis-raw/c45-audit/induce":         "ab9a6c31065192578e7fb30ee0166a5857b25372a39c2234a1448d2328ca24c2",
	"quis-raw/c45-audit/reinduce":       "c419ff86f0800eadb11626f25e5fe7ce6eee1646f139084fc87404c52b6ad99f",
	"quis-raw/c45/induce":               "e69b78d4d3ca6067d91c24296b2ff6337a6b1444e95e41df79c33e35928a9987",
	"quis-raw/c45/reinduce":             "1ba12fba8db369ab61a2b7ca774bebc1391ab77d3d0632b4ca2dab0fe971202f",
	"quis-raw/id3/induce":               "b382ad75b32979e501fd32e91ee342bc61cf414b1835b69f55ece38c7b5ef676",
	"quis-raw/id3/reinduce":             "2e1a71cf8e0958bee5c6c4cb24b5a8f7850a76f3d928ffc85014584a873148ea",
}

// The baseline inducers' model bytes, pinned the same way on the
// baseconfig fixture only: a kNN model stores its training rows, so on
// the 30 000-row QUIS pair its gob runs to tens of megabytes.
var wantBaselineModelDigests = map[string]string{
	"baseconfig/1r/induce":       "6d3ed517e6df6c040233bbee16dbe21bac73ab57ecbd5065c5226355f394b3df",
	"baseconfig/1r/reinduce":     "e4f42bc0eef063282490486d6c87af96215627ab0f0a19f5fc34af08b939ecb6",
	"baseconfig/knn/induce":      "eafe9393775d3824d35452dbc49256394419fa3737cbffaaac3754f68e0f53a3",
	"baseconfig/knn/reinduce":    "ab2646ca461e2a32a87f00b7dbb532f19d7e0c35adb181a44caaf3228dae34c9",
	"baseconfig/nbayes/induce":   "9d9eccda5d775581ff59e8f6bacd79ecf1e8c4fe055f604ed3eefcf6e3a6db3e",
	"baseconfig/nbayes/reinduce": "16cf0d4878401dd3e2ccbbfeb43a1a79b3d98f830a4b5e4779dc09450968810b",
	"baseconfig/prism/induce":    "e82da20cbad939853e71d937b847355d4c3819904923d55c8922e6614d7c8512",
	"baseconfig/prism/reinduce":  "8aefe999ed18d808caad144c6a3c19983800cf0f70cdc37f41e17e65031def28",
}

// Gob numbers types in the order a process first encodes them, and a
// model's bytes carry those numbers — the schema's nested stream too — so
// a digest would depend on which tests encoded something first. Encoding
// one model with a schema and every classifier before any test runs fixes
// the numbering of every type a model holds; the tree classifiers come
// first, so their numbering is what it was before the others were added.
func init() {
	m := &audit.Model{
		Schema: dataset.MustSchema(dataset.NewNominal("a", "x"), dataset.NewNumeric("b", 0, 1)),
		Attrs: []*audit.AttrModel{
			{Classifier: &audittree.RuleSet{}}, {Classifier: &c45.Tree{}},
			{Classifier: &nbayes.Model{}}, {Classifier: &knn.Model{}},
			{Classifier: &ruleind.OneRModel{}}, {Classifier: &ruleind.PrismModel{}},
		},
	}
	if _, err := audit.Marshal(m); err != nil {
		panic(err)
	}
}

// benchQUISFixtures are the benchmark's training pair: the 30 000-row
// QUIS sample of seed 2003 polluted with rng 2004 (prev, the benchmark's
// T) and with rng 2007 (cur, its drifted table P), as generated and with
// every number-like cell canonicalised — replaced by what its text
// rendering parses back to, as a table loaded from a file holds.
func benchQUISFixtures(t *testing.T) (canonical, raw determinismFixture) {
	t.Helper()
	sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
	if err != nil {
		t.Fatal(err)
	}
	plan := pollute.Plan{Cell: []pollute.Configured{
		{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
		{Prob: 0.01, P: &pollute.NullValuePolluter{}},
	}}
	prev, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(2004)))
	cur, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(2007)))
	raw = determinismFixture{"quis-raw", prev, cur}
	canonical = determinismFixture{"quis-canonical", prev.Clone(), cur.Clone()}
	canonicalize(t, canonical.prev)
	canonicalize(t, canonical.cur)
	return canonical, raw
}

func canonicalize(t *testing.T, tab *dataset.Table) {
	t.Helper()
	for c, a := range tab.Schema().Attrs() {
		if !a.IsNumberLike() {
			continue
		}
		col := tab.Column(c)
		for r, v := range col {
			parsed, err := a.Parse(a.Format(v))
			if err != nil {
				t.Fatal(err)
			}
			col[r] = parsed
		}
	}
}

func modelDigest(t *testing.T, m *audit.Model) string {
	t.Helper()
	cp := *m
	cp.InduceTime = 0
	b, err := audit.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestTreeModelDigests(t *testing.T) {
	canonical, raw := benchQUISFixtures(t)
	checkModelDigests(t, wantModelDigests, []determinismFixture{canonical, raw, baseConfigFixture(t)},
		audit.InducerC45Audit, audit.InducerC45, audit.InducerID3)
}

func TestBaselineModelDigests(t *testing.T) {
	checkModelDigests(t, wantBaselineModelDigests, []determinismFixture{baseConfigFixture(t)},
		audit.InducerNaiveBayes, audit.InducerKNN, audit.InducerOneR, audit.InducerPrism)
}

// checkModelDigests induces a model of each kind on every fixture's prev
// table, re-induces every attribute of it incrementally onto the cur
// table, and holds both digests to want.
func checkModelDigests(t *testing.T, want map[string]string, fixtures []determinismFixture, kinds ...audit.InducerKind) {
	t.Helper()
	got := map[string]string{}
	for _, fx := range fixtures {
		for _, kind := range kinds {
			m, err := audit.Induce(fx.prev, audit.Options{MinConfidence: 0.8, Inducer: kind})
			if err != nil {
				t.Fatal(err)
			}
			attrs := make([]int, len(m.Attrs))
			for i, am := range m.Attrs {
				attrs[i] = am.Class
			}
			inc, err := m.ReinduceAttrs(fx.cur, attrs, audit.ReinduceOptions{Prev: fx.prev})
			if err != nil {
				t.Fatal(err)
			}
			got[fx.name+"/"+string(kind)+"/induce"] = modelDigest(t, m)
			got[fx.name+"/"+string(kind)+"/reinduce"] = modelDigest(t, inc)
		}
	}
	failed := false
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: model digest %s, want %s", key, sum, want[key])
			failed = true
		}
	}
	if failed {
		t.Logf("digests of this build:\n%s", formatDigests(got))
	}
}

func formatDigests(m map[string]string) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "\t%q: %q,\n", k, m[k])
	}
	return b.String()
}
