package monitor

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dataaudit/internal/dataset"
)

// parentState copies the state file committed under testdata/parent into a
// fresh state dir and returns the dir and the file's bytes. The file was
// written by the commit that preceded the declared-once persistedState
// (separate modelState/stateEnvelope declarations, row-major reservoir):
// drifted model-level detector, latched attribute and null detectors, a
// full 64-row reservoir, three events, an open window of 150 rows.
func parentState(t testing.TB) (dir string, data []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent", "engines.monitor.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(StateFile(dir, "engines"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// parentOptions are the options the parent-written state was produced and
// reloaded under.
func parentOptions(dir string) Options {
	return withClock(Options{WindowRows: 500, MinWindows: 1, ReservoirRows: 64, seed: 7, StateDir: dir,
		Logger: log.New(io.Discard, "", 0)})
}

func tableCSV(t testing.TB, tab *dataset.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := dataset.WriteCSV(&sb, tab); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestLoadParentWrittenState: a .monitor.json written by the parent commit
// loads — format 2 stays format 2 — with the /quality view byte-identical
// to what the parent served from it, the reservoir rows (in slot order)
// and seen count intact, and every key of the file re-persisted with the
// value it had: a field dropped on the load or the save side shows up as a
// missing or changed key.
func TestLoadParentWrittenState(t *testing.T) {
	dir, data := parentState(t)
	mon := New(nil, parentOptions(dir))

	wantQuality, err := os.ReadFile(filepath.Join("testdata", "parent", "engines.quality.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, mon, "engines"); string(got) != string(wantQuality) {
		t.Fatalf("quality view differs from the parent's:\n%s\n--- vs ---\n%s", got, wantQuality)
	}
	wantRows, err := os.ReadFile(filepath.Join("testdata", "parent", "engines.reservoir.csv"))
	if err != nil {
		t.Fatal(err)
	}
	st := mon.lookupOrLoad("engines", false)
	if got := tableCSV(t, st.tab); got != string(wantRows) || st.Seen != 1350 {
		t.Fatalf("reservoir differs from the parent's (seen %d, want 1350):\n%s\n--- vs ---\n%s", st.Seen, got, wantRows)
	}

	if err := mon.SaveAll(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(StateFile(dir, "engines"))
	if err != nil {
		t.Fatal(err)
	}
	keys := func(file []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(file, &m); err != nil {
			t.Fatal(err)
		}
		// savedAt is the save's own clock; the reservoir is compared as
		// rows, not as gob bytes.
		delete(m, "savedAt")
		var env stateEnvelope
		if err := json.Unmarshal(file, &env); err != nil {
			t.Fatal(err)
		}
		tab, err := dataset.UnmarshalTable(env.ReservoirTable)
		if err != nil {
			t.Fatal(err)
		}
		m["reservoirTable"] = tableCSV(t, tab)
		return m
	}
	if want, got := keys(data), keys(again); !reflect.DeepEqual(want, got) {
		t.Fatalf("re-persisted state differs from the parent-written file:\n%v\n--- vs ---\n%v", got, want)
	}
}

// fillNonZero sets every settable field reachable from v to a non-zero
// value, so a round trip that drops a field cannot hide behind a zero.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), path+"[0]")
	case reflect.Map:
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, key, path+"[key]")
		fillNonZero(t, elem, path+"[elem]")
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), path)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch {
			case f.Tag.Get("json") == "-":
				// declared unpersistable (audit.Options.Trainer)
			case f.Anonymous || f.IsExported():
				fillNonZero(t, v.Field(i), path+"."+f.Name)
			}
		}
	default:
		t.Fatalf("%s: a %s cannot be persisted; tag it json:\"-\" or give it a serializable type", path, v.Kind())
	}
}

// TestPersistedStateRoundTripsEveryField fills every field of
// persistedState with a non-zero value, saves, reloads in a fresh monitor
// and compares reflectively — it fails the day a field is added that one
// side of the save/load pair does not carry.
func TestPersistedStateRoundTripsEveryField(t *testing.T) {
	schema := dataset.MustSchema(dataset.NewNominal("a", "p", "q"), dataset.NewNumeric("b", 0, 10))
	var want persistedState
	fillNonZero(t, reflect.ValueOf(&want).Elem(), "persistedState")
	// What loadState validates: the file's name, and Classes (filled as
	// [1]) inside the reservoir's two-column schema.
	want.Name = "engines"
	want.reservoir = newReservoir(schema, 8, 1)
	for i := 0; i < 3; i++ {
		want.offer([]dataset.Value{dataset.Nom(i % 2), dataset.Num(float64(i))})
	}
	want.Seen = 5

	opts := Options{StateDir: t.TempDir(), ReservoirRows: 8, Logger: log.New(io.Discard, "", 0)}
	mon := New(nil, opts)
	mon.models["engines"] = &modelState{persistedState: want, gen: mon.gens.Add(1)}
	if err := mon.SaveAll(); err != nil {
		t.Fatal(err)
	}
	got := New(nil, opts).lookupOrLoad("engines", false)
	if got == nil {
		t.Fatal("filled state did not load")
	}
	if !reflect.DeepEqual(got.persistedState, want) {
		t.Fatalf("state changed across save/load:\n%+v\n--- vs ---\n%+v", got.persistedState, want)
	}
}

// TestReservoirTruncatesToLoweredCap: a sample persisted under one
// ReservoirRows and reloaded under a lower one is cut to the new capacity
// (it used to stay over capacity until the next re-induction, and
// /quality reported reservoirRows above the cap); seen survives, and the
// sampler keeps replacing inside the smaller sample.
func TestReservoirTruncatesToLoweredCap(t *testing.T) {
	for _, tc := range []struct {
		name          string
		cap, wantRows int
	}{
		{"lowered", 32, 32},
		{"unchanged", 64, 64},
		{"raised", 128, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := parentState(t)
			opts := parentOptions(dir)
			opts.ReservoirRows = tc.cap
			mon := New(nil, opts)
			q, ok := mon.Quality("engines")
			if !ok || q.ReservoirRows != tc.wantRows || q.ReservoirSeen != 1350 {
				t.Fatalf("reloaded reservoir: ok=%v rows=%d seen=%d, want %d rows, 1350 seen", ok, q.ReservoirRows, q.ReservoirSeen, tc.wantRows)
			}
			st := mon.lookupOrLoad("engines", false)
			row := st.tab.Row(0)
			for i := 0; i < 5000; i++ {
				st.offer(row) // an index past the sample would panic in Table.Set
			}
			if want := min(tc.cap, tc.wantRows+5000); st.tab.NumRows() != want || st.Seen != 6350 {
				t.Fatalf("after 5000 offers: %d rows, %d seen, want %d rows, 6350 seen", st.tab.NumRows(), st.Seen, want)
			}
		})
	}
}

// FuzzLoadState feeds arbitrary bytes to the monitor as a state file: the
// load never panics, and whatever it accepts is a state the fold path can
// index — detectors and tallies aligned with the class list, classes and
// reservoir cells inside the reservoir's schema, the sample within its
// capacity.
func FuzzLoadState(f *testing.F) {
	_, good := parentState(f)
	f.Add(good)
	for _, tc := range corruptStates(f, good) {
		f.Add(tc.data)
	}
	dir := f.TempDir() // one per fuzz worker process; executions are sequential
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(StateFile(dir, "engines"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		mon := New(nil, parentOptions(dir))
		q, ok := mon.Quality("engines")
		if !ok {
			return
		}
		st := mon.lookupOrLoad("engines", false)
		if len(st.WinAttrs) != len(st.Classes) || len(st.AttrDrift) != len(st.Classes) {
			t.Fatalf("%d tallies and %d detectors for %d classes", len(st.WinAttrs), len(st.AttrDrift), len(st.Classes))
		}
		for _, c := range st.Classes {
			if c < 0 || c >= st.tab.Schema().Len() {
				t.Fatalf("class column %d outside the %d-column schema", c, st.tab.Schema().Len())
			}
		}
		// Kind and nominal domain, not Table.Validate: a numeric cell outside
		// its attribute's declared range decodes (and scores) like any other.
		for c := 0; c < st.tab.NumCols(); c++ {
			a := st.tab.Schema().Attr(c)
			for r := 0; r < st.tab.NumRows(); r++ {
				v := st.tab.Get(r, c)
				if !v.IsNull() && (v.IsNominal() != (a.Type == dataset.NominalType) || v.IsNominal() && v.NomIdx() >= a.NumValues()) {
					t.Fatalf("reservoir cell (%d,%d) does not fit attribute %s", r, c, a.Name)
				}
			}
		}
		if n := st.tab.NumRows(); n > 64 || q.ReservoirRows != n || st.Seen < int64(n) {
			t.Fatalf("reservoir holds %d rows (reported %d, seen %d) under a cap of 64", n, q.ReservoirRows, st.Seen)
		}
	})
}
