package monitor

import (
	"io"
	"log"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// TestHistoryCaps pins the retention of the lifecycle history: a model
// keeps its newest maxSnapshots sealed windows and its newest maxEvents
// events, and both survive SaveAll plus a reload unchanged. Every step
// observes a new version with no induction-time profile, so each
// one-window batch seals a window and adopts it as the baseline — one
// snapshot and one event per version.
func TestHistoryCaps(t *testing.T) {
	const window = 50
	const versions = maxEvents + 44
	model, clean, _ := fixture(t, 2000)
	batch := dataset.NewTable(clean.Schema())
	row := make([]dataset.Value, clean.NumCols())
	for r := 0; r < window; r++ {
		batch.AppendRow(clean.RowInto(r, row))
	}
	res := model.AuditTable(batch)
	opts := withClock(Options{WindowRows: window, StateDir: t.TempDir(), Logger: log.New(io.Discard, "", 0)})

	mon := New(nil, opts)
	for v := 1; v <= versions; v++ {
		mon.ObserveBatch(registry.Meta{Name: "caps", Version: v}, model, batch, res)
	}
	mon.WaitReinductions()
	if err := mon.SaveAll(); err != nil {
		t.Fatal(err)
	}

	check := func(label string, st State) {
		t.Helper()
		if st.Windows != versions {
			t.Fatalf("%s: %d windows sealed, want %d", label, st.Windows, versions)
		}
		if len(st.Snapshots) != maxSnapshots {
			t.Fatalf("%s: %d snapshots retained, want %d", label, len(st.Snapshots), maxSnapshots)
		}
		for i, snap := range st.Snapshots {
			if want := versions - maxSnapshots + i; snap.Window != want {
				t.Fatalf("%s: snapshot %d is window %d, want %d (the newest %d, contiguous)",
					label, i, snap.Window, want, maxSnapshots)
			}
		}
		if len(st.Events) != maxEvents {
			t.Fatalf("%s: %d events retained, want %d", label, len(st.Events), maxEvents)
		}
		for i, e := range st.Events {
			if want := versions - maxEvents + i; e.Kind != EventBaselineAdopted || e.Window != want || e.Version != want+1 {
				t.Fatalf("%s: event %d is %s at window %d (v%d), want %s at window %d (v%d)",
					label, i, e.Kind, e.Window, e.Version, EventBaselineAdopted, want, want+1)
			}
		}
	}
	before, ok := mon.Quality("caps")
	if !ok {
		t.Fatal("no monitoring state")
	}
	check("live", before)

	after, ok := New(nil, opts).Quality("caps")
	if !ok {
		t.Fatal("no monitoring state after reload")
	}
	check("reloaded", after)
}
