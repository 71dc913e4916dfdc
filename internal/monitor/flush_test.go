package monitor

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dataaudit/internal/obs"
)

// The commit cadence: a model's flusher writes the first sealed window at
// once, coalesces the seals that follow into one commit of the newest
// state per interval, and is cut short by WaitReinductions, Close and
// Forget. Tests that must not depend on machine speed lengthen the
// interval to an hour, so only a cut-short wait lets them finish.

// eventually polls cond until it holds, failing the test after within.
func eventually(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainWithin runs WaitReinductions and fails the test unless it returns
// within d: a flusher that slept out its interval instead of being cut
// short would hold it for the whole interval.
func drainWithin(t *testing.T, mon *Monitor, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { mon.WaitReinductions(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("WaitReinductions did not return within %v", d)
	}
}

// readEnvelope returns the committed envelope of the model "engines", or
// nil while none is on disk.
func readEnvelope(t *testing.T, stateDir string) *stateEnvelope {
	t.Helper()
	data, err := os.ReadFile(StateFile(stateDir, "engines"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var env stateEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return &env
}

// TestPersistBurstCoalesces: a burst of sealed windows costs at most two
// commits — the leading one and the newest state when WaitReinductions
// cuts the interval short — and that newest state is what a restart
// loads.
func TestPersistBurstCoalesces(t *testing.T) {
	reg, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mets := obs.NewAuditMetrics(obs.NewRegistry())
	mon := New(reg, withClock(Options{WindowRows: 1000, MinWindows: 1, DriftDelta: 0.10, StateDir: stateDir, Metrics: mets}))
	t.Cleanup(mon.WaitReinductions)
	mon.interval = time.Hour

	const burst = 60
	res := model.AuditTable(clean)
	for i := 0; i < burst; i++ {
		mon.ObserveBatch(meta, model, clean, res) // 2500 rows: one window each
	}
	drainWithin(t, mon, 30*time.Second)

	ok := mets.StateWrites.With("engines", obs.OutcomeOK).Value()
	if ok < 1 || ok > 2 {
		t.Fatalf("a %d-window burst made %d commits, want 1 or 2", burst, ok)
	}
	if failed := mets.StateWrites.With("engines", obs.OutcomeError).Value(); failed != 0 {
		t.Fatalf("%d failed state writes", failed)
	}
	st, _ := mon.Quality("engines")
	if st.Windows != burst {
		t.Fatalf("monitor sealed %d windows, want %d", st.Windows, burst)
	}

	after, ok2 := newMon().Quality("engines")
	if !ok2 || after.Windows != burst {
		t.Fatalf("restart loaded %d windows (ok=%v), want %d", after.Windows, ok2, burst)
	}
}

// TestPersistTrailingCommitWithoutWait: with no WaitReinductions or Close,
// a window sealed inside the interval still reaches disk — the flusher
// commits it when the interval ends — and no sooner than one interval
// after the previous commit.
func TestPersistTrailingCommitWithoutWait(t *testing.T) {
	reg, stateDir, model, clean, _, meta, _ := persistFixture(t, 2500)
	// The real clock: SavedAt records when each commit captured the state.
	mon := New(reg, Options{WindowRows: 1000, MinWindows: 1, DriftDelta: 0.10, StateDir: stateDir})
	t.Cleanup(mon.WaitReinductions)
	const interval = 100 * time.Millisecond
	mon.interval = interval

	res := model.AuditTable(clean)
	mon.ObserveBatch(meta, model, clean, res)
	var first *stateEnvelope
	eventually(t, 5*time.Second, "leading commit", func() bool {
		first = readEnvelope(t, stateDir)
		return first != nil
	})
	if first.Windows != 1 {
		t.Fatalf("leading commit holds %d windows, want 1", first.Windows)
	}

	mon.ObserveBatch(meta, model, clean, res)
	var second *stateEnvelope
	eventually(t, 50*interval, "trailing commit", func() bool {
		second = readEnvelope(t, stateDir)
		return second != nil && second.Windows == 2
	})
	if gap := second.SavedAt.Sub(first.SavedAt); gap < interval {
		t.Fatalf("commits %v apart, want at least the %v interval", gap, interval)
	}
}

// TestPersistForgetPendingCommit: Forget while a trailing commit is
// pending wakes the flusher, which exits without writing — no file is
// left behind — and the name, recreated, persists normally.
func TestPersistForgetPendingCommit(t *testing.T) {
	reg, stateDir, model, clean, _, meta, newMon := persistFixture(t, 2500)
	mon := newMon()
	mon.interval = time.Hour

	res := model.AuditTable(clean)
	mon.ObserveBatch(meta, model, clean, res)
	eventually(t, 5*time.Second, "leading commit", func() bool { return readEnvelope(t, stateDir) != nil })
	mon.ObserveBatch(meta, model, clean, res)
	st := mon.lookupOrLoad("engines", false)
	st.mu.Lock()
	pending := st.dirty && st.flushing
	st.mu.Unlock()
	if !pending {
		t.Fatal("second window not pending behind the flusher's interval")
	}

	mon.Forget("engines")
	eventually(t, 5*time.Second, "flusher exit after Forget", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return !st.flushing
	})
	if env := readEnvelope(t, stateDir); env != nil {
		t.Fatalf("state file survived Forget: %d windows", env.Windows)
	}

	if err := reg.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	meta2, err := reg.PublishWithQuality("engines", model, model.QualityProfile(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	mon.ObserveBatch(meta2, model, clean, res)
	drainWithin(t, mon, 30*time.Second)
	env := readEnvelope(t, stateDir)
	if env == nil || !env.CreatedAt.Equal(meta2.CreatedAt) || env.Windows != 1 {
		t.Fatalf("recreated model's state not persisted: %+v", env)
	}
}

// TestPersistFailedWriteRetries: a failed commit is counted, leaves the
// state dirty, and the flusher's next tick retries it without a further
// seal. While a drain is in progress a failing disk does not hold the
// drain: the flusher leaves the retry to SaveAll.
func TestPersistFailedWriteRetries(t *testing.T) {
	model, clean, _ := fixture(t, 2500)
	meta := metaFor(model, clean)
	stateDir := filepath.Join(t.TempDir(), "state")
	block := func() {
		// A regular file where the directory belongs fails every commit.
		if err := os.RemoveAll(stateDir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stateDir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unblock := func() {
		if err := os.Remove(stateDir); err != nil {
			t.Fatal(err)
		}
	}
	mets := obs.NewAuditMetrics(obs.NewRegistry())
	mon := New(nil, withClock(Options{WindowRows: 1000, StateDir: stateDir, Metrics: mets,
		Logger: log.New(io.Discard, "", 0)}))
	t.Cleanup(mon.WaitReinductions)
	mon.interval = 10 * time.Millisecond
	okWrites := mets.StateWrites.With("engines", obs.OutcomeOK)
	failedWrites := mets.StateWrites.With("engines", obs.OutcomeError)

	block()
	res := model.AuditTable(clean)
	mon.ObserveBatch(meta, model, clean, res)
	eventually(t, 5*time.Second, "failed write counted", func() bool { return failedWrites.Value() > 0 })
	unblock()
	eventually(t, 5*time.Second, "retried write", func() bool { return okWrites.Value() > 0 })
	if env := readEnvelope(t, stateDir); env == nil || env.Windows != 1 {
		t.Fatalf("retry committed %+v, want 1 window", env)
	}

	block()
	mon.ObserveBatch(meta, model, clean, res)
	drainWithin(t, mon, 30*time.Second)
	if err := mon.Close(); err == nil {
		t.Fatal("Close on a failing state dir returned no error")
	}
	unblock()
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if env := readEnvelope(t, stateDir); env == nil || env.Windows != 2 {
		t.Fatalf("Close committed %+v, want 2 windows", env)
	}
}
