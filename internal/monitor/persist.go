package monitor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
)

// Crash-durable monitoring state. When Options.StateDir is set, every
// model's monitoring state — snapshot history, lifecycle events, drift
// detector state and the re-induction reservoir — is serialized into one
// JSON envelope per model and committed atomically (temp file + rename)
// at every persistence commit point: a sealed window, a re-induction
// outcome, and SaveAll/Close at graceful shutdown. At the next boot the
// state is recovered lazily, on the model's first observation or quality
// read, after validating that the persisted (version, createdAt) still
// names a committed registry version — a state file left behind by a
// deleted incarnation is discarded, never resurrected.
//
// Writes are asynchronous: the envelope is marshalled under st.mu (cheap,
// pure memory) and handed to a goroutine, so the fold path never waits on
// disk. Each marshal takes the state's next saveSeq; the persister drops
// any write that would regress the sequence already on disk, so slow
// writers cannot overwrite newer state with older state.

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

// stateEnvelope is the on-disk form of one modelState. envelopeLocked
// fills it with consistent copies under st.mu; the expensive part —
// gob-encoding the reservoir and marshalling the JSON — happens in
// encode, outside every monitor lock.
type stateEnvelope struct {
	// reservoir is the materialized sample, encoded into ReservoirTable
	// by encode (never marshalled directly).
	reservoir *dataset.Table

	Format    int       `json:"format"`
	Name      string    `json:"name"`
	Version   int       `json:"version"`
	CreatedAt time.Time `json:"createdAt"`
	SavedAt   time.Time `json:"savedAt"`

	Options persistedOptions `json:"options"`
	Classes []int            `json:"classes"`

	Baseline        *audit.QualityProfile `json:"baseline,omitempty"`
	BaselineAdopted bool                  `json:"baselineAdopted,omitempty"`

	WinRows       int64             `json:"winRows"`
	WinSuspicious int64             `json:"winSuspicious"`
	WinAttrs      []audit.AttrTally `json:"winAttrs"`

	Windows              int         `json:"windows"`
	WindowsSinceBaseline int         `json:"windowsSinceBaseline"`
	Snapshots            []Snapshot  `json:"snapshots"`
	PH                   pageHinkley `json:"ph"`
	Drifted              bool        `json:"drifted"`
	LastDelta            float64     `json:"lastDelta"`
	// AttrDrift is the per-attribute detector state, aligned with Classes.
	AttrDrift []attrDetector `json:"attrDrift,omitempty"`
	Events    []Event        `json:"events"`

	// ReservoirTable is the sampled rows plus their schema as a
	// dataset.EncodeTable chunk stream (base64 inside the JSON envelope);
	// ReservoirSeen the rows ever offered since the last re-induction.
	// The schema embedded here is also what rebuilds st.schema on load.
	ReservoirTable []byte `json:"reservoirTable"`
	ReservoirSeen  int64  `json:"reservoirSeen"`
}

// persistedOptions is the serializable subset of audit.Options the
// re-induction path needs. A custom Options.Trainer (a code hook) cannot
// be persisted; after a restart re-induction falls back to the named
// Inducer.
type persistedOptions struct {
	MinConfidence float64             `json:"minConfidence,omitempty"`
	ConfLevel     float64             `json:"confLevel,omitempty"`
	Bins          int                 `json:"bins,omitempty"`
	Inducer       audit.InducerKind   `json:"inducer,omitempty"`
	KNNk          int                 `json:"knnK,omitempty"`
	BaseAttrs     map[string][]string `json:"baseAttrs,omitempty"`
	SkipClasses   []string            `json:"skipClasses,omitempty"`
	Filter        uint8               `json:"filter,omitempty"`
}

func toPersistedOptions(o audit.Options) persistedOptions {
	return persistedOptions{
		MinConfidence: o.MinConfidence,
		ConfLevel:     o.ConfLevel,
		Bins:          o.Bins,
		Inducer:       o.Inducer,
		KNNk:          o.KNNk,
		BaseAttrs:     o.BaseAttrs,
		SkipClasses:   o.SkipClasses,
		Filter:        uint8(o.Filter),
	}
}

func (p persistedOptions) toAudit() audit.Options {
	return audit.Options{
		MinConfidence: p.MinConfidence,
		ConfLevel:     p.ConfLevel,
		Bins:          p.Bins,
		Inducer:       p.Inducer,
		KNNk:          p.KNNk,
		BaseAttrs:     p.BaseAttrs,
		SkipClasses:   p.SkipClasses,
		Filter:        audittree.FilterMode(p.Filter),
	}
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
	path := StateFile(p.dir, name)
	tmp, err := os.CreateTemp(p.dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
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

// read loads a model's raw state file; os.IsNotExist errors mean "no
// persisted state".
func (p *persister) read(name string) ([]byte, error) {
	return os.ReadFile(StateFile(p.dir, name))
}

// envelopeLocked captures a consistent copy of the state for
// persistence; st.mu must be held. The capture is cheap, pure memory:
// the histories and open-window tallies are copied (they are mutated in
// place by the fold path), the reservoir is materialized as a fresh
// table, and immutable values (schema, baseline, classes — replaced
// wholesale, never edited) are shared. Encoding happens later, outside
// the lock, so audits never wait on serialization.
func (st *modelState) envelopeLocked(now time.Time) *stateEnvelope {
	return &stateEnvelope{
		reservoir:            st.rv.table(),
		Format:               stateFormat,
		Name:                 st.name,
		Version:              st.version,
		CreatedAt:            st.createdAt,
		SavedAt:              now,
		Options:              toPersistedOptions(st.opts),
		Classes:              st.classes,
		Baseline:             st.baseline,
		BaselineAdopted:      st.baselineAdopted,
		WinRows:              st.winRows,
		WinSuspicious:        st.winSuspicious,
		WinAttrs:             append([]audit.AttrTally(nil), st.winAttrs...),
		Windows:              st.windows,
		WindowsSinceBaseline: st.windowsSinceBaseline,
		Snapshots:            append([]Snapshot(nil), st.snapshots...),
		PH:                   st.ph,
		Drifted:              st.drifted,
		LastDelta:            st.lastDelta,
		AttrDrift:            append([]attrDetector(nil), st.attrDrift...),
		Events:               append([]Event(nil), st.events...),
		ReservoirSeen:        st.rv.seen,
	}
}

// encode serializes a captured envelope — the expensive half of a save,
// safe to run without any lock because the envelope owns its data.
func (env *stateEnvelope) encode() ([]byte, error) {
	rvTab, err := dataset.MarshalTable(env.reservoir)
	if err != nil {
		return nil, err
	}
	env.ReservoirTable = rvTab
	return json.Marshal(env)
}

// saveLocked schedules an asynchronous persistence commit of the state;
// st.mu must be held. A no-op when persistence is disabled or the state
// is dead (its file was already removed by Forget).
func (m *Monitor) saveLocked(st *modelState) {
	if m.disk == nil || st.dead || st.version == 0 {
		return
	}
	env := st.envelopeLocked(m.opts.Now())
	st.saveSeq++
	gen, seq, name := st.gen, st.saveSeq, st.name
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		data, err := env.encode()
		if err == nil {
			err = m.disk.write(name, gen, seq, data)
		}
		if err != nil {
			m.opts.Logger.Printf("monitor: persisting state for %s: %v", name, err)
		}
	}()
}

// SaveAll synchronously persists every tracked model's state — the
// graceful-shutdown commit point, also usable as a checkpoint. It returns
// the first write error (later models are still attempted).
func (m *Monitor) SaveAll() error {
	if m.disk == nil {
		return nil
	}
	m.mu.Lock()
	states := make([]*modelState, 0, len(m.models))
	for _, st := range m.models {
		states = append(states, st)
	}
	m.mu.Unlock()

	var firstErr error
	for _, st := range states {
		st.mu.Lock()
		if st.dead || st.version == 0 {
			st.mu.Unlock()
			continue
		}
		env := st.envelopeLocked(m.opts.Now())
		st.saveSeq++
		gen, seq, name := st.gen, st.saveSeq, st.name
		st.mu.Unlock()

		data, err := env.encode()
		if err == nil {
			err = m.disk.write(name, gen, seq, data)
		}
		if err != nil {
			m.opts.Logger.Printf("monitor: persisting state for %s: %v", name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("monitor: persisting state for %s: %w", name, err)
			}
		}
	}
	return firstErr
}

// Close waits for in-flight re-induction workers and pending asynchronous
// writes, then persists every model's final state — the graceful-shutdown
// hook. The caller is expected to have quiesced the observation sources
// (e.g. drained the HTTP server) first.
func (m *Monitor) Close() error {
	m.wg.Wait()
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
	data, err := m.disk.read(name)
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

	rv := newReservoir(schema, m.opts.ReservoirRows, m.opts.Seed)
	rv.restore(rvTab, env.ReservoirSeen)
	ph := env.PH
	ph.Delta, ph.Lambda = m.opts.PHDelta, m.opts.PHLambda
	return &modelState{
		name:                 name,
		version:              env.Version,
		createdAt:            env.CreatedAt,
		schema:               schema,
		opts:                 env.Options.toAudit(),
		classes:              env.Classes,
		baseline:             env.Baseline,
		baselineAdopted:      env.BaselineAdopted,
		winRows:              env.WinRows,
		winSuspicious:        env.WinSuspicious,
		winAttrs:             env.WinAttrs,
		windows:              env.Windows,
		windowsSinceBaseline: env.WindowsSinceBaseline,
		snapshots:            env.Snapshots,
		ph:                   ph,
		drifted:              env.Drifted,
		lastDelta:            env.LastDelta,
		attrDrift:            env.AttrDrift,
		events:               env.Events,
		rv:                   rv,
	}
}
