package registry

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/quis"
)

// testModel induces a small structure model (a QUIS-flavoured relation
// with a strong BRV → GBM dependency) for registry tests.
func testModel(t testing.TB) *audit.Model {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501", "600"),
		dataset.NewNominal("KBM", "01", "02"),
		dataset.NewNominal("GBM", "901", "911", "950"),
		dataset.NewNumeric("DISP", 1000, 4000),
	)
	tab := dataset.NewTable(schema)
	rng := rand.New(rand.NewSource(7))
	row := make([]dataset.Value, 4)
	for i := 0; i < 800; i++ {
		brv := rng.Intn(3)
		disp := 1500 + float64(brv)*1000 + rng.NormFloat64()*80
		if disp < 1000 {
			disp = 1000
		}
		if disp > 4000 {
			disp = 4000
		}
		row[0], row[1], row[2], row[3] = dataset.Nom(brv), dataset.Nom(rng.Intn(2)), dataset.Nom(brv), dataset.Num(disp)
		tab.AppendRow(row)
	}
	m, err := audit.Induce(tab, audit.Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublishGetRoundTrip(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)

	meta, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 {
		t.Fatalf("first publish version = %d, want 1", meta.Version)
	}
	if meta.SchemaHash == "" || meta.SchemaHash != SchemaHash(m.Schema) {
		t.Fatalf("bad schema hash %q", meta.SchemaHash)
	}
	if meta.TrainRows != m.TrainRows {
		t.Fatalf("TrainRows = %d, want %d", meta.TrainRows, m.TrainRows)
	}

	got, gotMeta, err := reg.Get("engines")
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Version != 1 || got == nil {
		t.Fatalf("Get returned version %d, model %v", gotMeta.Version, got)
	}
	if len(got.Attrs) != len(m.Attrs) {
		t.Fatalf("loaded model has %d attr models, want %d", len(got.Attrs), len(m.Attrs))
	}

	// A second publish bumps the version; Get serves the latest, and the
	// old version stays addressable.
	meta2, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != 2 {
		t.Fatalf("second publish version = %d, want 2", meta2.Version)
	}
	if _, latest, err := reg.Get("engines"); err != nil || latest.Version != 2 {
		t.Fatalf("latest = v%d, err %v; want v2", latest.Version, err)
	}
	if _, old, err := reg.GetVersion("engines", 1); err != nil || old.Version != 1 {
		t.Fatalf("GetVersion(1) = v%d, err %v", old.Version, err)
	}
}

func TestListAndDelete(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	for _, name := range []string{"b-model", "a-model"} {
		if _, err := reg.Publish(name, m); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Name != "a-model" || metas[1].Name != "b-model" {
		t.Fatalf("List = %+v, want a-model then b-model", metas)
	}

	if err := reg.Delete("a-model"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Get("a-model"); !IsNotFound(err) {
		t.Fatalf("Get after Delete: err = %v, want not-found", err)
	}
	if err := reg.Delete("a-model"); !IsNotFound(err) {
		t.Fatalf("double Delete: err = %v, want not-found", err)
	}
}

func TestInvalidNames(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	for _, name := range []string{"", "../escape", "a/b", ".hidden", "x y"} {
		if _, err := reg.Publish(name, m); err == nil {
			t.Fatalf("Publish(%q) accepted an invalid name", name)
		}
		if _, _, err := reg.Get(name); err == nil {
			t.Fatalf("Get(%q) accepted an invalid name", name)
		}
	}
}

// TestConcurrentPublishGet hammers one model name with concurrent
// publishers and readers; run with -race. Every publish must get a unique
// monotonic version and readers must always see a complete model.
func TestConcurrentPublishGet(t *testing.T) {
	reg, err := Open(t.TempDir(), WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	if _, err := reg.Publish("hot", m); err != nil {
		t.Fatal(err)
	}

	const publishers, readers, rounds = 4, 8, 5
	versions := make(chan int, publishers*rounds)
	var wg sync.WaitGroup
	errs := make(chan error, publishers*rounds+readers*rounds)

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				meta, err := reg.Publish("hot", m)
				if err != nil {
					errs <- err
					return
				}
				versions <- meta.Version
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, meta, err := reg.Get("hot")
				if err != nil {
					errs <- err
					return
				}
				if got == nil || meta.Version < 1 {
					errs <- fmt.Errorf("incomplete read: model %v, meta %+v", got, meta)
					return
				}
				// The loaded model must be usable, not torn.
				if len(got.Attrs) != len(m.Attrs) {
					errs <- fmt.Errorf("read model with %d attrs, want %d", len(got.Attrs), len(m.Attrs))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(versions)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seen := make(map[int]bool)
	for v := range versions {
		if seen[v] {
			t.Fatalf("version %d assigned twice", v)
		}
		seen[v] = true
	}
	if len(seen) != publishers*rounds {
		t.Fatalf("%d distinct versions, want %d", len(seen), publishers*rounds)
	}
}

// TestAbortedPublishIgnored plants a model file without its meta sidecar
// (a simulated crash between the two renames) and checks that reads skip
// it and the next publish garbage-collects it.
func TestAbortedPublishIgnored(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	if _, err := reg.Publish("engines", m); err != nil {
		t.Fatal(err)
	}

	// Simulate an aborted publish of v2: model written, meta missing.
	orphan := filepath.Join(dir, "engines", "v000002.model")
	if err := audit.Save(orphan, m); err != nil {
		t.Fatal(err)
	}
	if _, meta, err := reg.Get("engines"); err != nil || meta.Version != 1 {
		t.Fatalf("Get with orphan present: v%d, err %v; want v1", meta.Version, err)
	}

	// The next publish claims version 2 (the orphan never committed) and
	// atomically replaces the leftover model file.
	meta, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 {
		t.Fatalf("publish after abort: v%d, want v2", meta.Version)
	}
}

// TestParseVersionName: a version file name is v, ASCII digits, then the
// exact suffix; the millionth version keeps all seven digits.
func TestParseVersionName(t *testing.T) {
	for _, tc := range []struct {
		name, suffix string
		want         int
		ok           bool
	}{
		{"v000012.json", ".json", 12, true},
		{"v000012.model", ".model", 12, true},
		{"v999999.json", ".json", 999999, true},
		{"v1000000.json", ".json", 1000000, true},
		{"v1000000.model", ".model", 1000000, true},
		{"v-00001.json", ".json", 0, false},
		{"v+00001.json", ".json", 0, false},
		{"v000012.json.tmp", ".json", 0, false},
		{"v000012.model", ".json", 0, false},
		{"v.json", ".json", 0, false},
		{"000012.json", ".json", 0, false},
		{"v00 012.json", ".json", 0, false},
		{"v99999999999999999999.json", ".json", 0, false},
	} {
		got, ok := parseVersionName(tc.name, tc.suffix)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseVersionName(%q, %q) = %d, %v; want %d, %v", tc.name, tc.suffix, got, ok, tc.want, tc.ok)
		}
	}
}

// TestCommittedVersionsPastSixDigits: the scan orders versions by number
// and sees the millionth, so the next publish takes the version after it.
func TestCommittedVersionsPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"v999999.json", "v1000000.json", "v-00001.json", "v000012.json.tmp", "v1000001.model"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := committedVersions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{999999, 1000000}; !slices.Equal(got, want) {
		t.Fatalf("committed versions %v, want %v", got, want)
	}
}

func TestSchemaHashStability(t *testing.T) {
	s1 := quis.Schema()
	s2 := quis.Schema()
	if SchemaHash(s1) != SchemaHash(s2) {
		t.Fatal("identical schemas hash differently")
	}
	other := dataset.MustSchema(dataset.NewNominal("X", "a", "b"))
	if SchemaHash(s1) == SchemaHash(other) {
		t.Fatal("different schemas share a hash")
	}
}

// TestPublishRefusesEmptySchemaHash pins the corrupt-fingerprint guard: a
// schema that does not render to well-formed text (here: an attribute
// whose Type was corrupted after construction) hashes to "", and Publish
// must refuse to commit it rather than publish a Meta whose empty hash
// would make every schema-drift comparison silently pass.
func TestPublishRefusesEmptySchemaHash(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	if SchemaHash(m.Schema) == "" {
		t.Fatal("healthy schema must hash")
	}
	m.Schema.Attrs()[0].Type = dataset.Type(99) // corrupt in place
	if SchemaHash(m.Schema) != "" {
		t.Fatal("corrupt schema must hash to empty")
	}
	if _, err := reg.Publish("corrupt", m); err == nil || !strings.Contains(err.Error(), "schema hash") {
		t.Fatalf("publish of corrupt schema not refused: %v", err)
	}
	// Nothing may have been committed — the model must not exist.
	if _, err := reg.MetaOf("corrupt"); !IsNotFound(err) {
		t.Fatalf("refused publish left state behind: %v", err)
	}
}

// TestPublishWithQualityRoundTrip checks the quality baseline commits
// atomically with the meta sidecar and survives a registry reopen.
func TestPublishWithQualityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	profile := &audit.QualityProfile{
		Rows:           800,
		SuspiciousRate: 0.0125,
		ConfHist:       make([]int64, audit.ConfHistBins),
		Attrs: []audit.AttrQuality{
			{Attr: 0, Name: "BRV", DeviationRate: 0.02, ConfHist: make([]int64, audit.ConfHistBins)},
		},
	}
	profile.ConfHist[1] = 10

	meta, err := reg.PublishWithQuality("engines", m, profile)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Quality == nil || meta.Quality.SuspiciousRate != 0.0125 {
		t.Fatalf("publish dropped the profile: %+v", meta.Quality)
	}

	// A fresh registry handle reads the profile back from the sidecar.
	reg2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg2.MetaOf("engines")
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality == nil || got.Quality.Rows != 800 || got.Quality.ConfHist[1] != 10 ||
		len(got.Quality.Attrs) != 1 || got.Quality.Attrs[0].Name != "BRV" {
		t.Fatalf("profile did not round-trip: %+v", got.Quality)
	}

	// Plain Publish still works and simply carries no baseline.
	meta2, err := reg2.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Version != 2 || meta2.Quality != nil {
		t.Fatalf("plain publish meta wrong: v%d quality=%v", meta2.Version, meta2.Quality)
	}
}

// TestMetaOfVersionAndStateDir pins the cross-restart plumbing the
// quality monitor's persistence layer relies on: MetaOfVersion resolves
// a specific committed version without loading the model (and without
// caching it), its CreatedAt identifies the incarnation across a
// delete/recreate, and StateDir stays outside the model namespace.
func TestMetaOfVersionAndStateDir(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	meta1, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}

	got, err := reg.MetaOfVersion("engines", 1)
	if err != nil || got.Version != 1 || !got.CreatedAt.Equal(meta1.CreatedAt) {
		t.Fatalf("MetaOfVersion(1) = %+v, %v", got, err)
	}
	if got, err = reg.MetaOfVersion("engines", 2); err != nil || got.Version != 2 {
		t.Fatalf("MetaOfVersion(2) = %+v, %v", got, err)
	}
	if _, err := reg.MetaOfVersion("engines", 3); !IsNotFound(err) {
		t.Fatalf("missing version must be NotFound, got %v", err)
	}
	if _, err := reg.MetaOfVersion("engines", 0); err == nil {
		t.Fatal("version 0 must be rejected")
	}
	if _, err := reg.MetaOfVersion("../escape", 1); err == nil {
		t.Fatal("invalid name must be rejected")
	}

	// Delete + recreate: the version number exists again, but CreatedAt
	// moved — the incarnation check a persisted monitor state must fail.
	if err := reg.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	meta3, err := reg.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	got, err = reg.MetaOfVersion("engines", meta2.Version-1)
	if err != nil || got.CreatedAt.Equal(meta1.CreatedAt) || !got.CreatedAt.Equal(meta3.CreatedAt) {
		t.Fatalf("recreated v1 must carry the new incarnation's CreatedAt: %+v, %v", got, err)
	}

	// StateDir sits under the root but cannot collide with a model: its
	// name is not a ValidName, so List and the model routes skip it.
	sd := reg.StateDir()
	if filepath.Dir(sd) != dir {
		t.Fatalf("StateDir %q not under root %q", sd, dir)
	}
	if ValidName(filepath.Base(sd)) {
		t.Fatalf("StateDir base %q collides with the model namespace", filepath.Base(sd))
	}
}
