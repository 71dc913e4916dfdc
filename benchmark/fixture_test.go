package main

import (
	"bytes"
	"reflect"
	"testing"

	"dataaudit/internal/dataset"
)

func TestDigestDependsOnOrderAndEveryField(t *testing.T) {
	if got := digest(nil); got != 14695981039346656037 {
		t.Errorf("digest of nothing = %d, want the FNV-64a offset basis", got)
	}
	base := []verdict{{id: 1, attr: 2, conf: 0.9}, {id: 5, attr: 0, conf: 0.85}}
	want := digest(base)
	if digest(append([]verdict(nil), base...)) != want {
		t.Error("digest is not a function of its input")
	}
	variants := map[string][]verdict{
		"order":      {base[1], base[0]},
		"id":         {{id: 2, attr: 2, conf: 0.9}, base[1]},
		"attribute":  {{id: 1, attr: 3, conf: 0.9}, base[1]},
		"confidence": {{id: 1, attr: 2, conf: 0.9000000000000001}, base[1]},
		"length":     base[:1],
	}
	for name, vs := range variants {
		if digest(vs) == want {
			t.Errorf("digest ignores a change of %s", name)
		}
	}
}

func TestScheduleIsAPureFunctionOfSeedAndClient(t *testing.T) {
	a := schedule(2003, 0)
	if !reflect.DeepEqual(a, schedule(2003, 0)) {
		t.Error("same seed and client gave another schedule")
	}
	if reflect.DeepEqual(a, schedule(2003, 1)) || reflect.DeepEqual(a, schedule(7, 0)) {
		t.Error("schedule ignores the client or the seed")
	}
	if len(a) != schedBlock*schedBlocks {
		t.Fatalf("schedule has %d entries", len(a))
	}
	// Every block of twenty holds the 70/25/5 mix exactly.
	for b := 0; b < len(a); b += schedBlock {
		mix := map[string]int{}
		for _, rq := range a[b : b+schedBlock] {
			mix[rq.class]++
		}
		if mix[classRow] != 14 || mix[classBatch] != 5 || mix[classStream] != 1 {
			t.Fatalf("block %d mixes %v", b/schedBlock, mix)
		}
	}
}

// fingerprint condenses what a fixture would feed the workloads.
func fingerprint(t *testing.T, fx *fixture) (csv []byte, want expect) {
	t.Helper()
	var all []byte
	for _, part := range [][2]int{{0, 500}, {halfRows - 500, halfRows + 500}, {auditRows - 500, auditRows}} {
		b, err := csvBytes(rowRange(fx.full, part[0], part[1]))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	for _, src := range []*dataset.Table{fx.train, fx.drift} {
		b, err := csvBytes(rowRange(src, 0, 500))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all, buildOracle(fx.model, prefix(fx.full, 5000)).rankedExpect()
}

func TestFixtureIsAPureFunctionOfSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three fixtures")
	}
	build := func(seed int64) *fixture {
		fx, err := buildFixture(seed)
		if err != nil {
			t.Fatal(err)
		}
		return fx
	}
	a, b, c := build(11), build(11), build(12)
	csvA, wantA := fingerprint(t, a)
	csvB, wantB := fingerprint(t, b)
	csvC, wantC := fingerprint(t, c)
	if !bytes.Equal(csvA, csvB) || wantA != wantB {
		t.Error("the same seed built another fixture")
	}
	if bytes.Equal(csvA, csvC) || wantA == wantC {
		t.Error("another seed built the same fixture")
	}
	if a.half.NumRows() != halfRows || a.full.NumRows() != auditRows || a.train.NumRows() != trainRows {
		t.Errorf("fixture sizes %d/%d/%d", a.train.NumRows(), a.half.NumRows(), a.full.NumRows())
	}
	// A100 keeps A's record IDs, or the pollution log would stop joining.
	for _, r := range []int{0, 1, halfRows - 1} {
		if a.half.ID(r) != a.full.ID(r) {
			t.Fatalf("A100 row %d has ID %d, A has %d", r, a.half.ID(r), a.full.ID(r))
		}
	}
}
