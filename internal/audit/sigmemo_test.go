package audit

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
)

// TestAuditWithSkippedClasses is a regression test for the sigMemo grid
// builder: m.Attrs is position-indexed, so when SkipClasses leaves fewer
// attribute models than schema columns, a numeric column whose index is
// >= len(m.Attrs) must still find its discretizer (by Class, not by
// position). Before the fix, AuditTable panicked with an out-of-range
// index while assembling the signature grid.
func TestAuditWithSkippedClasses(t *testing.T) {
	tab := engineTable(t, 2000, 78)
	// Skipping KBM drops the model count to 3 while numeric DISP keeps
	// schema index 3 — exactly the shape that used to panic.
	m, err := Induce(tab, Options{SkipClasses: []string{"KBM"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Attrs) != 3 {
		t.Fatalf("expected 3 attribute models, got %d", len(m.Attrs))
	}
	res := m.AuditTable(tab)
	if len(res.Reports) != tab.NumRows() {
		t.Fatalf("expected %d reports, got %d", tab.NumRows(), len(res.Reports))
	}
}

// wideNominalTable has 32 nominal attributes of four values each, in
// pairs whose second member copies the first on 95 % of the rows. Its row
// signature needs 5^32 codes, more than a uint64 holds.
func wideNominalTable(rows int, seed int64) *dataset.Table {
	attrs := make([]*dataset.Attribute, 32)
	for i := range attrs {
		attrs[i] = dataset.NewNominal(fmt.Sprintf("A%02d", i), "a", "b", "c", "d")
	}
	tab := dataset.NewTable(dataset.MustSchema(attrs...))
	rng := rand.New(rand.NewSource(seed))
	row := make([]dataset.Value, len(attrs))
	for r := 0; r < rows; r++ {
		for i := 0; i < len(row); i += 2 {
			v := rng.Intn(4)
			row[i], row[i+1] = dataset.Nom(v), dataset.Nom(v)
			if rng.Float64() < 0.05 {
				row[i+1] = dataset.Nom(rng.Intn(4))
			}
		}
		tab.AppendRow(row)
	}
	return tab
}

// TestColumnarMemoOffRuleSet covers the rule-set path the signature memo
// stays out of: a c45-audit model whose row signature overflows 64 bits
// scores every row through the trie kernel, and its result must be
// gob-byte-identical to the row-path oracle at every chunk size and
// worker count.
func TestColumnarMemoOffRuleSet(t *testing.T) {
	tab := wideNominalTable(3000, 11)
	m, err := Induce(tab, Options{MinConfidence: 0.8, Inducer: InducerC45Audit})
	if err != nil {
		t.Fatal(err)
	}
	for _, am := range m.Attrs {
		if _, ok := am.Classifier.(*audittree.RuleSet); !ok {
			t.Fatalf("attribute %d is a %T, not a rule set", am.Class, am.Classifier)
		}
	}
	if m.plan().memo {
		t.Fatal("the signature memo is enabled on a 32-attribute nominal schema")
	}
	want := auditTableReference(m, tab)
	if want.NumSuspicious() == 0 {
		t.Fatal("the fixture flags no row; the test would prove nothing")
	}
	wantBytes := gobBytes(t, want)

	n := tab.NumRows()
	for _, size := range columnarChunkSizes {
		ck := dataset.NewColumnChunk(tab.Schema())
		scratch := NewChunkScratch(m)
		res := &Result{Reports: make([]RecordReport, n), NumAttrs: m.Schema.Len(), Dims: TableDims(tab)}
		for lo := 0; lo < n; lo += size {
			hi := min(lo+size, n)
			tab.ChunkInto(ck, lo, hi)
			detachReports(m.CheckChunk(ck, int64(lo), scratch), res.Reports[lo:hi])
		}
		if !bytes.Equal(wantBytes, gobBytes(t, res)) {
			t.Fatalf("chunk=%d: CheckChunk is not byte-identical to the reference", size)
		}
	}
	for _, w := range []int{1, 4} {
		if got := m.AuditTableParallel(tab, w); !bytes.Equal(wantBytes, gobBytes(t, got)) {
			t.Fatalf("AuditTableParallel(workers=%d) is not byte-identical to the reference", w)
		}
	}
}
