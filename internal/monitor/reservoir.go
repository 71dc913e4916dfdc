package monitor

import (
	"math/rand"

	"dataaudit/internal/dataset"
)

// reservoir keeps a bounded uniform sample of audited rows (algorithm R)
// for drift-triggered re-induction, held as a Table so a snapshot is a
// Clone and the persisted form is the table itself. The PRNG is seeded, so
// the sample — and therefore the re-induced model — is a deterministic
// function of the observed row sequence. It is embedded in persistedState:
// Seen is its one JSON field, the rows travel as
// stateEnvelope.ReservoirTable.
type reservoir struct {
	cap int
	rng *rand.Rand
	tab *dataset.Table
	// Seen counts the rows offered since the sample was last reset.
	Seen int64 `json:"reservoirSeen"`
}

func newReservoir(schema *dataset.Schema, capRows int, seed int64) reservoir {
	return reservoir{
		cap: capRows,
		rng: rand.New(rand.NewSource(seed)),
		tab: dataset.NewTable(schema),
	}
}

// offer considers one row for the sample; the row is copied, never
// retained.
func (rv *reservoir) offer(row []dataset.Value) {
	rv.Seen++
	if rv.tab.NumRows() < rv.cap {
		rv.tab.AppendRow(row)
		return
	}
	if j := rv.rng.Int63n(rv.Seen); j < int64(rv.cap) {
		for c, v := range row {
			rv.tab.Set(int(j), c, v)
		}
	}
}

// reset drops the sampled rows (after they were consumed by a
// re-induction, or when the tracked version changes) but keeps the PRNG
// stream, so determinism holds across the whole observation sequence.
func (rv *reservoir) reset(schema *dataset.Schema) {
	rv.tab = dataset.NewTable(schema)
	rv.Seen = 0
}

// adopt takes over a persisted sample (state reload), cut down to the
// capacity configured now. The PRNG was freshly seeded by the caller: the
// recovered rows and the seen count match the pre-restart sample exactly,
// while the sampling stream restarts from the seed.
func (rv *reservoir) adopt(tab *dataset.Table, seen int64) {
	for tab.NumRows() > rv.cap {
		tab.DeleteRow(tab.NumRows() - 1)
	}
	rv.tab = tab
	rv.Seen = max(seen, int64(tab.NumRows()))
}
