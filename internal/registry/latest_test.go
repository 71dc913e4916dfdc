package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// removeVersion deletes one committed version the way a per-version
// delete would: the meta sidecar, its commit point, first.
func removeVersion(t *testing.T, dir, name string, version int) {
	t.Helper()
	model, meta := versionFiles(version)
	for _, f := range []string{meta, model} {
		if err := os.Remove(filepath.Join(dir, name, f)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLatestAcrossRegistries: two registries over one directory, as two
// processes would open it. A publish through one is the other's latest on
// its next Get; once the latest version is removed, both serve the
// previous one; after a Delete through one, the other finds nothing.
func TestLatestAcrossRegistries(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	latest := func(reg *Registry, want int) {
		t.Helper()
		_, meta, err := reg.Get("engines")
		if err != nil || meta.Version != want {
			t.Fatalf("Get latest = v%d, err %v; want v%d", meta.Version, err, want)
		}
		if meta, err := reg.MetaOf("engines"); err != nil || meta.Version != want {
			t.Fatalf("MetaOf = v%d, err %v; want v%d", meta.Version, err, want)
		}
	}
	for v := 1; v <= 3; v++ {
		if _, err := a.Publish("engines", m); err != nil {
			t.Fatal(err)
		}
		latest(b, v)
		latest(a, v)
	}
	// Two publishes between reads: the next read steps over both.
	for i := 0; i < 2; i++ {
		if _, err := b.Publish("engines", m); err != nil {
			t.Fatal(err)
		}
	}
	latest(a, 5)

	removeVersion(t, dir, "engines", 5)
	latest(a, 4)
	latest(b, 4)

	if err := a.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Get("engines"); !IsNotFound(err) {
		t.Fatalf("Get after another registry's Delete: err = %v, want not-found", err)
	}
	if _, err := b.MetaOf("engines"); !IsNotFound(err) {
		t.Fatalf("MetaOf after another registry's Delete: err = %v, want not-found", err)
	}
}

// BenchmarkRegistryGetLatest times Get of the latest version, a cache hit,
// with 1, 100 and 1 000 committed versions on disk.
func BenchmarkRegistryGetLatest(b *testing.B) {
	m := testModel(b)
	for _, n := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("versions=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			reg, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			meta, err := reg.Publish("engines", m)
			if err != nil {
				b.Fatal(err)
			}
			// Later versions commit their sidecars only; the latest one
			// also gets the model file that Get loads.
			for v := 2; v <= n; v++ {
				meta.Version = v
				modelFile, metaFile := versionFiles(v)
				if err := writeMeta(filepath.Join(dir, "engines", metaFile), meta); err != nil {
					b.Fatal(err)
				}
				if v == n {
					first, _ := versionFiles(1)
					if err := os.Link(filepath.Join(dir, "engines", first), filepath.Join(dir, "engines", modelFile)); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, got, err := reg.Get("engines"); err != nil || got.Version != n {
				b.Fatalf("Get latest = v%d, err %v; want v%d", got.Version, err, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := reg.Get("engines"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
