package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dataaudit/internal/atomicfile"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// Crash-durable monitoring state. When Options.StateDir is set, every
// model's monitoring state — snapshot history, lifecycle events, drift
// detector state and the re-induction reservoir — is serialized into one
// JSON envelope per model and committed atomically (temp file + rename)
// after every persistence commit point: a sealed window, a re-induction
// outcome, and SaveAll/Close at graceful shutdown. At the next boot the
// state is recovered lazily, on the model's first observation or quality
// read, after validating that the persisted (version, createdAt) still
// names a committed registry version — a state file left behind by a
// deleted incarnation is discarded, never resurrected.
//
// Commits are coalesced: a commit point only marks the state dirty, and
// one flusher goroutine per dirty model does the writing — at once for
// the first commit point after a quiet interval, then at most once per
// commitInterval, always capturing the newest state. So a serving process
// that seals a hundred windows a second writes each model's file once a
// second, and a crash loses at most the windows sealed in the last
// interval; WaitReinductions, Close and Forget cut a pending interval
// short, and a graceful shutdown loses nothing. The fold path never
// waits on disk: the flusher clones the state under st.mu (cheap, pure
// memory) and encodes and writes it outside the lock. Each capture takes
// the state's next saveSeq; the persister drops any write that would
// regress the sequence already on disk, so a slow flusher cannot
// overwrite SaveAll's newer state with older state.

// commitInterval is the shortest spacing between two state commits of one
// model by its flusher.
const commitInterval = time.Second

// stateFormat versions the envelope. Readers reject other formats and
// fall back to fresh state — compatibility by degradation, never by
// failing the model. Format 2 carries the reservoir as a chunk stream
// (dataset.EncodeTable); a format-1 file left by an older binary costs one
// fresh start of that model's monitoring history.
const stateFormat = 2

// StateFile returns the path of the persisted monitoring state for one
// model inside a state directory.
func StateFile(dir, name string) string {
	return filepath.Join(dir, name+".monitor.json")
}

// stateEnvelope is the on-disk form of one modelState: the persisted
// fields themselves plus what only a file needs. envelopeLocked fills it
// with a consistent copy under st.mu; the expensive part — gob-encoding
// the reservoir and marshalling the JSON — happens in encode, outside
// every monitor lock.
type stateEnvelope struct {
	Format  int       `json:"format"`
	SavedAt time.Time `json:"savedAt"`
	persistedState
	// ReservoirTable is the sampled rows plus their schema as a
	// dataset.EncodeTable chunk stream (base64 inside the JSON envelope),
	// filled from the embedded reservoir's table by encode. The schema
	// embedded here is also what the reloaded state's schema comes from.
	ReservoirTable []byte `json:"reservoirTable"`
}

// seqMark orders persisted snapshots of one name across state
// generations: gen identifies the modelState incarnation (monotonic per
// Monitor), seq the marshal order within it. A write is stale — and
// dropped — when it does not advance the mark.
type seqMark struct{ gen, seq uint64 }

// persister owns the state directory. Its lock serializes file writes and
// guards the per-model sequence marks.
type persister struct {
	dir string

	mu      sync.Mutex
	written map[string]seqMark // newest (generation, saveSeq) committed per model
}

func newPersister(dir string) *persister {
	return &persister{dir: dir, written: make(map[string]seqMark)}
}

// stale reports whether (gen, seq) does not advance the mark.
func (mk seqMark) stale(gen, seq uint64) bool {
	return gen < mk.gen || (gen == mk.gen && seq <= mk.seq)
}

// write commits one marshalled envelope atomically, unless a newer
// snapshot of the name — from this state generation or a later one —
// already reached disk, or the generation was blocked by remove.
func (p *persister) write(name string, gen, seq uint64, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.written[name].stale(gen, seq) {
		return nil
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	err := atomicfile.Write(StateFile(p.dir, name), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	p.written[name] = seqMark{gen: gen, seq: seq}
	return nil
}

// remove deletes a model's state file (Forget, or a stale file found at
// load) and exhausts the dropped generation's sequence space, so an
// in-flight write for that dead state cannot recreate the file — while a
// *later* generation (the name recreated) starts a fresh mark and
// persists normally.
func (p *persister) remove(name string, gen uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	os.Remove(StateFile(p.dir, name))
	if gen >= p.written[name].gen {
		p.written[name] = seqMark{gen: gen, seq: ^uint64(0)}
	}
}

// envelopeLocked captures a consistent copy of the state for
// persistence; st.mu must be held. The capture is cheap, pure memory: one
// struct copy, then clones of what the fold path mutates in place — the
// open-window tallies, the detectors, the two histories and the reservoir
// table. Immutable values (baseline, classes — replaced wholesale, never
// edited) are shared. Encoding happens later, outside the lock, so audits
// never wait on serialization.
func (st *modelState) envelopeLocked(now time.Time) *stateEnvelope {
	env := &stateEnvelope{Format: stateFormat, SavedAt: now, persistedState: st.persistedState}
	env.WinAttrs = slices.Clone(st.WinAttrs)
	env.AttrDrift = slices.Clone(st.AttrDrift)
	env.Snapshots = slices.Clone(st.Snapshots)
	env.Events = slices.Clone(st.Events)
	env.tab = st.tab.Clone()
	return env
}

// encode serializes a captured envelope — the expensive half of a save,
// safe to run without any lock because the envelope owns its data.
func (env *stateEnvelope) encode() ([]byte, error) {
	rvTab, err := dataset.MarshalTable(env.tab)
	if err != nil {
		return nil, err
	}
	env.ReservoirTable = rvTab
	return json.Marshal(env)
}

// saveLocked marks the state as changed since its last commit; st.mu
// must be held. The model's flusher, started here when none is running,
// commits it — at once, or at the end of the running flusher's interval.
// A no-op when persistence is disabled or the state is dead (its file was
// already removed by Forget).
func (m *Monitor) saveLocked(st *modelState) {
	if m.disk == nil || st.dead || st.Version == 0 {
		return
	}
	st.dirty = true
	if st.flushing {
		return
	}
	st.flushing = true
	if st.wake == nil {
		st.wake = make(chan struct{}, 1)
	}
	// A wake-up left over from an earlier WaitReinductions must not cut
	// the new flusher's first interval short.
	select {
	case <-st.wake:
	default:
	}
	m.wg.Add(1)
	go m.flush(st)
}

// flush is one model's flusher: while the state is dirty it commits the
// newest state, then sleeps out an interval; it exits when an interval
// passed with nothing new, or as soon as the state is dead.
func (m *Monitor) flush(st *modelState) {
	defer m.wg.Done()
	for {
		st.mu.Lock()
		if st.dead || !st.dirty {
			st.flushing = false
			st.mu.Unlock()
			return
		}
		st.dirty = false
		w := m.captureLocked(st)
		st.mu.Unlock()

		if m.commit(w) != nil {
			st.mu.Lock()
			st.dirty = true // the next tick retries
			if m.hurry.Load() > 0 {
				// Draining: the drainer's SaveAll (Close) or the next seal's
				// flusher retries, instead of spinning on a failing disk.
				st.flushing = false
				st.mu.Unlock()
				return
			}
			st.mu.Unlock()
		}
		m.pause(st)
	}
}

// pause sleeps out one commit interval, cut short by a drain
// (WaitReinductions, Close) or by Forget.
func (m *Monitor) pause(st *modelState) {
	if m.hurry.Load() > 0 {
		return
	}
	t := time.NewTimer(m.interval)
	defer t.Stop()
	select {
	case <-t.C:
	case <-st.wake:
	}
}

// wakeLocked cuts a pending flusher interval short; st.mu must be held.
func (st *modelState) wakeLocked() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// stateWrite is one captured commit: the envelope, its (gen, seq) mark
// and the model's write counters.
type stateWrite struct {
	env      *stateEnvelope
	name     string
	gen, seq uint64
	met      *modelMetrics
}

// captureLocked takes the state's next save sequence number and a
// consistent copy of it; st.mu must be held.
func (m *Monitor) captureLocked(st *modelState) stateWrite {
	st.saveSeq++
	return stateWrite{env: st.envelopeLocked(m.opts.now()), name: st.Name,
		gen: st.gen, seq: st.saveSeq, met: m.metricsLocked(st)}
}

// commit encodes and writes one captured state outside every monitor
// lock, logging a failure and counting the outcome.
func (m *Monitor) commit(w stateWrite) error {
	data, err := w.env.encode()
	if err == nil {
		err = m.disk.write(w.name, w.gen, w.seq, data)
	}
	if err != nil {
		m.opts.Logger.Printf("monitor: persisting state for %s: %v", w.name, err)
	}
	if mm := w.met; mm != nil {
		if err != nil {
			mm.writeErr.Inc()
		} else {
			mm.writeOK.Inc()
		}
	}
	return err
}

// SaveAll synchronously persists every tracked model's state — the
// graceful-shutdown commit point, also usable as a checkpoint. It returns
// the first write error (later models are still attempted).
func (m *Monitor) SaveAll() error {
	if m.disk == nil {
		return nil
	}
	var firstErr error
	for _, st := range m.states() {
		st.mu.Lock()
		if st.dead || st.Version == 0 {
			st.mu.Unlock()
			continue
		}
		w := m.captureLocked(st)
		st.mu.Unlock()
		if err := m.commit(w); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("monitor: persisting state for %s: %w", w.name, err)
		}
	}
	return firstErr
}

// WaitReinductions blocks until every in-flight background re-induction
// worker and state flusher has finished — the rendezvous tests and
// graceful shutdown use before inspecting or persisting final state. It
// cuts every flusher's pending interval short, so dirty state is
// committed at once rather than after the interval. It does not prevent
// new work from starting; callers are expected to have quiesced the
// observation sources first.
func (m *Monitor) WaitReinductions() {
	m.hurry.Add(1)
	defer m.hurry.Add(-1)
	for _, st := range m.states() {
		st.mu.Lock()
		st.wakeLocked()
		st.mu.Unlock()
	}
	m.wg.Wait()
}

// states lists the tracked model states.
func (m *Monitor) states() []*modelState {
	m.mu.Lock()
	defer m.mu.Unlock()
	states := make([]*modelState, 0, len(m.models))
	for _, st := range m.models {
		states = append(states, st)
	}
	return states
}

// Close waits for in-flight re-induction workers and flushes pending
// state commits, then persists every model's final state — the
// graceful-shutdown hook. The caller is expected to have quiesced the
// observation sources (e.g. drained the HTTP server) first.
func (m *Monitor) Close() error {
	m.WaitReinductions()
	return m.SaveAll()
}

// loadState recovers one model's persisted state from the state dir, or
// nil when there is none, it is unreadable (corrupt/truncated files
// degrade to fresh state, never fail the model), or it belongs to a dead
// incarnation. The incarnation check consults the registry: the persisted
// (version, createdAt) must still name a committed version, byte-for-byte
// the same publish — a file left behind by a model that was deleted (and
// possibly recreated under the same name) while the process was down is
// discarded by the same guard that drops live ghost observations.
func (m *Monitor) loadState(name string) *modelState {
	if m.disk == nil || !registry.ValidName(name) {
		return nil
	}
	data, err := os.ReadFile(StateFile(m.disk.dir, name))
	if err != nil {
		if !os.IsNotExist(err) {
			m.opts.Logger.Printf("monitor: reading state for %s: %v", name, err)
		}
		return nil
	}
	var env stateEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		m.opts.Logger.Printf("monitor: discarding corrupt state for %s: %v", name, err)
		return nil
	}
	if env.Format != stateFormat || env.Name != name || env.Version < 1 {
		m.opts.Logger.Printf("monitor: discarding state for %s: format %d, name %q, version %d",
			name, env.Format, env.Name, env.Version)
		return nil
	}
	rvTab, err := dataset.UnmarshalTable(env.ReservoirTable)
	if err != nil {
		m.opts.Logger.Printf("monitor: discarding corrupt reservoir for %s: %v", name, err)
		return nil
	}
	schema := rvTab.Schema()
	for _, c := range env.Classes {
		if c < 0 || c >= schema.Len() {
			m.opts.Logger.Printf("monitor: discarding state for %s: class column %d outside schema", name, c)
			return nil
		}
	}
	if len(env.WinAttrs) != len(env.Classes) {
		m.opts.Logger.Printf("monitor: discarding state for %s: %d window tallies for %d classes",
			name, len(env.WinAttrs), len(env.Classes))
		return nil
	}
	if len(env.AttrDrift) != len(env.Classes) {
		m.opts.Logger.Printf("monitor: discarding state for %s: %d attribute detectors for %d classes",
			name, len(env.AttrDrift), len(env.Classes))
		return nil
	}

	if m.reg != nil {
		meta, err := m.reg.MetaOfVersion(name, env.Version)
		if err != nil || !meta.CreatedAt.Equal(env.CreatedAt) {
			m.opts.Logger.Printf("monitor: discarding stale state for %s: v%d@%s is not a committed registry version",
				name, env.Version, env.CreatedAt.Format(time.RFC3339Nano))
			// gen 0: no live state generation owns the discarded file, so
			// nothing needs blocking — a state created afterwards persists
			// normally.
			m.disk.remove(name, 0)
			return nil
		}
	}

	st := &modelState{persistedState: env.persistedState}
	st.reservoir = newReservoir(schema, m.opts.ReservoirRows, m.opts.seed)
	st.adopt(rvTab, env.Seen)
	return st
}
