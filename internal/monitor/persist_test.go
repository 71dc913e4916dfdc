package monitor

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// persistFixture publishes the fixture model and returns a monitor
// factory bound to one registry + state dir, so tests can simulate
// process restarts by building successive monitors over the same roots.
func persistFixture(t *testing.T, rows int) (reg *registry.Registry, stateDir string, model *audit.Model, clean, dirty *dataset.Table, meta registry.Meta, newMon func() *Monitor) {
	t.Helper()
	model, clean, dirty = fixture(t, rows)
	var err error
	reg, err = registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta, err = reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	stateDir = reg.StateDir()
	newMon = func() *Monitor {
		mon := New(reg, withClock(Options{WindowRows: 1000, MinWindows: 1, DriftDelta: 0.10, StateDir: stateDir}))
		// Drain the asynchronous state writes before TempDir removal, or a
		// late commit lands in a directory that is being deleted.
		t.Cleanup(mon.WaitReinductions)
		return mon
	}
	return
}

// TestPersistRestartRoundTrip is the library half of the restart
// acceptance criterion: quality history, drift state and the reservoir
// survive a monitor "restart" (new Monitor over the same registry root)
// byte-equivalently, including the open (unsealed) window, and the
// reloaded state keeps folding where the old one left off.
func TestPersistRestartRoundTrip(t *testing.T) {
	_, stateDir, model, clean, dirty, meta, newMon := persistFixture(t, 2500)

	mon := newMon()
	// One clean window, one dirty window that drifts (re-induction
	// disabled: skipped event), then a sub-window probe so the open
	// window holds pending rows at shutdown.
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	probe := dataset.NewTable(clean.Schema())
	row := make([]dataset.Value, clean.NumCols())
	for r := 0; r < 300; r++ {
		probe.AppendRow(clean.RowInto(r, row))
	}
	mon.ObserveBatch(meta, model, probe, model.AuditTable(probe))
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	before, ok := mon.Quality("engines")
	if !ok || before.Windows == 0 {
		t.Fatalf("no state before restart: %+v", before)
	}
	var drifted bool
	for _, e := range before.Events {
		if e.Kind == EventDrift {
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("fixture did not drift; restart test would be vacuous: %+v", before.Events)
	}
	if _, err := os.Stat(StateFile(stateDir, "engines")); err != nil {
		t.Fatalf("no persisted state file: %v", err)
	}

	// "Restart": a fresh monitor over the same registry + state dir must
	// serve the identical state without having observed anything.
	mon2 := newMon()
	after, ok := mon2.Quality("engines")
	if !ok {
		t.Fatal("no state after restart")
	}
	bj, _ := json.MarshalIndent(before, "", " ")
	aj, _ := json.MarshalIndent(after, "", " ")
	if string(bj) != string(aj) {
		t.Fatalf("state not byte-equivalent across restart:\n%s\n--- vs ---\n%s", bj, aj)
	}

	// The recovered state continues where the old one stopped: the open
	// window still holds its pending rows and seals on schedule.
	if after.PendingRows == 0 {
		t.Fatalf("open window lost: %+v", after)
	}
	mon2.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	cont, _ := mon2.Quality("engines")
	if cont.Windows != after.Windows+1 {
		t.Fatalf("recovered state did not keep sealing: %d -> %d windows", after.Windows, cont.Windows)
	}
	if cont.ReservoirSeen != after.ReservoirSeen+int64(clean.NumRows()) {
		t.Fatalf("recovered reservoir did not keep sampling: %d -> %d", after.ReservoirSeen, cont.ReservoirSeen)
	}
}

// TestPersistWindowCloseCommitPoint pins the commit cadence: a sealed
// window reaches disk without any explicit Save/Close call.
func TestPersistWindowCloseCommitPoint(t *testing.T) {
	_, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.WaitReinductions() // drains the asynchronous state write
	data, err := os.ReadFile(StateFile(stateDir, "engines"))
	if err != nil {
		t.Fatalf("window close did not commit state: %v", err)
	}
	var env stateEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Format != stateFormat || env.Windows != 1 || env.Version != meta.Version {
		t.Fatalf("committed envelope wrong: format=%d windows=%d version=%d", env.Format, env.Windows, env.Version)
	}
}

// corruptState is one state file that must load as "no state".
type corruptState struct {
	name string
	data []byte
}

// corruptStates derives the corrupt-file matrix from a good state file of
// the model "engines" — the cases TestPersistCorruptStateDegradesToFresh
// replays and FuzzLoadState starts from.
func corruptStates(t testing.TB, good []byte) []corruptState {
	t.Helper()
	// A reservoir every gob decoder accepts but whose nominal column is two
	// rows short of its ID list — in an envelope that is otherwise the good
	// one, so nothing but the reservoir's own validation can reject it.
	type wireAttr struct {
		Name     string
		Type     uint8
		Domain   []string
		Min, Max float64
	}
	type wireCol struct {
		Nom   []int32
		Num   []float64
		Nulls []uint64
	}
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for _, msg := range []any{
		struct{ Attrs []wireAttr }{[]wireAttr{{Name: "BRV", Type: uint8(dataset.NominalType), Domain: []string{"404", "501"}}}},
		struct {
			IDs  []int64
			N    int
			Cols []wireCol
		}{IDs: []int64{0, 1, 2}, N: 3, Cols: []wireCol{{Nom: []int32{0}, Nulls: []uint64{0}}}},
	} {
		if err := enc.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}
	var env stateEnvelope
	if err := json.Unmarshal(good, &env); err != nil {
		t.Fatal(err)
	}
	env.ReservoirTable = stream.Bytes()
	inconsistent, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}

	current := fmt.Sprintf(`{"format":%d,`, stateFormat)
	return []corruptState{
		{"garbage", []byte("{ not json")},
		{"truncated", good[:len(good)/3]},
		{"wrong format", []byte(`{"format":999,"name":"engines","version":1}`)},
		{"previous format", bytes.Replace(good, []byte(current), []byte(`{"format":1,`), 1)},
		{"wrong name", []byte(current + `"name":"other","version":1}`)},
		{"corrupt reservoir", []byte(current + `"name":"engines","version":` +
			`1,"createdAt":"2026-07-01T00:00:00Z","reservoirTable":"AAAA"}`)},
		{"inconsistent reservoir", inconsistent},
	}
}

// TestPersistCorruptStateDegradesToFresh: an unreadable, truncated or
// wrong-format state file must load as "no state" — never fail the model
// — and the next observation rebuilds and overwrites it.
func TestPersistCorruptStateDegradesToFresh(t *testing.T) {
	_, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	path := StateFile(stateDir, "engines")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range corruptStates(t, good) {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			mon2 := newMon()
			if st, ok := mon2.Quality("engines"); ok {
				t.Fatalf("corrupt state served as history: %+v", st)
			}
			// The model is not failed: observations start a fresh state.
			mon2.ObserveBatch(meta, model, clean, model.AuditTable(clean))
			st, ok := mon2.Quality("engines")
			if !ok || st.Windows != 1 || st.ReservoirSeen != int64(clean.NumRows()) {
				t.Fatalf("fresh state not rebuilt after corrupt load: ok=%v %+v", ok, st)
			}
			// Drain this monitor's asynchronous state write before the next
			// subtest plants its corrupt file — a late good-state commit
			// landing over it would leak state across subtests. (Sharing
			// one state dir between live monitors is not a supported
			// configuration outside this test.)
			mon2.WaitReinductions()
		})
	}
}

// TestPersistAttrDriftRoundTrip pins the per-attribute detector state
// across restart: the detectors' Page-Hinkley accumulators and drift
// latches reload byte-equivalently, and an envelope whose detector
// matrix disagrees with its class list — state from a different schema
// era — is discarded wholesale, never partially adopted.
func TestPersistAttrDriftRoundTrip(t *testing.T) {
	_, stateDir, model, clean, dirty, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.ObserveBatch(meta, model, dirty, model.AuditTable(dirty))
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	path := StateFile(stateDir, "engines")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env1 stateEnvelope
	if err := json.Unmarshal(good, &env1); err != nil {
		t.Fatal(err)
	}
	if len(env1.AttrDrift) != len(env1.Classes) {
		t.Fatalf("persisted %d attribute detectors for %d classes", len(env1.AttrDrift), len(env1.Classes))
	}
	var observed, latched bool
	for _, det := range env1.AttrDrift {
		observed = observed || det.PH.N > 0
		latched = latched || det.Drifted
	}
	if !observed || !latched {
		t.Fatalf("detectors idle (observed=%v latched=%v); round-trip would be vacuous: %+v",
			observed, latched, env1.AttrDrift)
	}

	// Restart: the reloaded detectors must re-persist byte-equivalently.
	mon2 := newMon()
	if _, ok := mon2.Quality("engines"); !ok {
		t.Fatal("no state after restart")
	}
	if err := mon2.SaveAll(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env2 stateEnvelope
	if err := json.Unmarshal(again, &env2); err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(env1.AttrDrift)
	b2, _ := json.Marshal(env2.AttrDrift)
	if string(b1) != string(b2) {
		t.Fatalf("attribute detector state changed across restart:\n%s\n--- vs ---\n%s", b1, b2)
	}

	// Ghost matrix: one detector too many for the class list.
	env1.AttrDrift = append(env1.AttrDrift, attrDetector{})
	bad, err := json.Marshal(&env1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	mon3 := newMon()
	if st, ok := mon3.Quality("engines"); ok {
		t.Fatalf("misaligned detector matrix served as history: %+v", st)
	}
}

// TestPersistGhostStateFileDiscarded pins the at-rest incarnation guard:
// a state file persisted for a model that was deleted (and recreated)
// while the process was down names a (version, createdAt) that no longer
// exists in the registry — it must be discarded, not resurrected as the
// recreated model's history.
func TestPersistGhostStateFileDiscarded(t *testing.T) {
	reg, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}

	// While "down": the model is deleted and recreated under the same
	// name — versions restart at 1, but CreatedAt moves.
	if err := reg.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	meta2, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != meta.Version || meta2.CreatedAt.Equal(meta.CreatedAt) {
		t.Fatalf("recreation did not reproduce the ghost shape: %+v vs %+v", meta2, meta)
	}

	mon2 := newMon()
	if st, ok := mon2.Quality("engines"); ok {
		t.Fatalf("ghost incarnation resurrected from its state file: %+v", st)
	}
	if _, err := os.Stat(StateFile(stateDir, "engines")); !os.IsNotExist(err) {
		t.Fatalf("stale state file not discarded: %v", err)
	}
	// The recreated incarnation monitors from scratch.
	mon2.ObserveBatch(meta2, model, clean, model.AuditTable(clean))
	st, ok := mon2.Quality("engines")
	if !ok || st.ReservoirSeen != int64(clean.NumRows()) || st.Windows != 1 {
		t.Fatalf("recreated incarnation state wrong: ok=%v %+v", ok, st)
	}
}

// TestPersistForgetRemovesFile: Forget must delete the on-disk state with
// the in-memory state, and block late writes from recreating it.
func TestPersistForgetRemovesFile(t *testing.T) {
	_, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.WaitReinductions()
	path := StateFile(stateDir, "engines")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	mon.Forget("engines")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("state file survived Forget: %v", err)
	}
	// SaveAll after Forget must not resurrect the file (dead state).
	if err := mon.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("dead state re-persisted: %v", err)
	}
}

// TestPersistAfterForgetRecreate is the regression test for the
// sequence-floor bug: Forget must only block the *dead* generation's
// in-flight writes — a model recreated under the same name afterwards
// must persist normally again (its fresh state generation outranks the
// dead one's exhausted sequence space), and the recreated state must
// survive a restart.
func TestPersistAfterForgetRecreate(t *testing.T) {
	reg, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
	mon.WaitReinductions()
	path := StateFile(stateDir, "engines")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// Delete + recreate the model (registry and monitor).
	mon.Forget("engines")
	if err := reg.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	meta2, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}

	// The recreated incarnation's monitoring state must reach disk again.
	mon.ObserveBatch(meta2, model, clean, model.AuditTable(clean))
	mon.WaitReinductions()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("recreated model's state never persisted after Forget: %v", err)
	}
	var env stateEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.CreatedAt.Equal(meta2.CreatedAt) || env.Windows != 1 {
		t.Fatalf("persisted state is not the recreated incarnation's: %+v vs %+v", env.CreatedAt, meta2.CreatedAt)
	}

	// And it survives a restart like any other state.
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	mon2 := newMon()
	st, ok := mon2.Quality("engines")
	if !ok || st.Windows != 1 || st.ReservoirSeen != int64(clean.NumRows()) {
		t.Fatalf("recreated state lost across restart: ok=%v %+v", ok, st)
	}
}

// TestPersistDisabled: without a StateDir nothing is written.
func TestPersistDisabled(t *testing.T) {
	model, clean, _ := fixture(t, 1500)
	meta := metaFor(model, clean)
	dir := t.TempDir()
	for _, stateDir := range []string{"", StateDisabled} {
		mon := New(nil, withClock(Options{WindowRows: 1000, StateDir: stateDir}))
		mon.ObserveBatch(meta, model, clean, model.AuditTable(clean))
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("persistence disabled but files appeared: %v", ents)
	}
	if _, err := os.Stat(filepath.Join(dir, StateDisabled)); !os.IsNotExist(err) {
		t.Fatalf("sentinel state dir created: %v", err)
	}
}
