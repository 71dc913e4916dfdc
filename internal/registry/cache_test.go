package registry

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"dataaudit/internal/audit"
)

// cacheKeys snapshots the resident cache keys under the registry lock.
func cacheKeys(r *Registry) map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]bool, len(r.cache))
	for k := range r.cache {
		out[k.name+"@"+strconv.Itoa(k.version)] = true
	}
	return out
}

// TestCacheEviction pins the LRU contract: the cache never exceeds its
// cap, the least-recently-used entry is the one evicted, and evicted
// models remain perfectly loadable from disk.
func TestCacheEviction(t *testing.T) {
	reg, err := Open(t.TempDir(), WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Publish(name, m); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the LRU entry.
	if _, _, err := reg.Get("a"); err != nil {
		t.Fatal(err)
	}
	// Publishing "c" must evict "b", not "a".
	if _, err := reg.Publish("c", m); err != nil {
		t.Fatal(err)
	}
	keys := cacheKeys(reg)
	if len(keys) != 2 {
		t.Fatalf("cache holds %d entries, cap is 2: %v", len(keys), keys)
	}
	if !keys["a@1"] || !keys["c@1"] || keys["b@1"] {
		t.Fatalf("LRU evicted the wrong entry: %v (want a@1 and c@1 resident)", keys)
	}

	// The evicted model reloads from disk and re-enters the cache.
	if _, meta, err := reg.Get("b"); err != nil || meta.Version != 1 {
		t.Fatalf("evicted model unloadable: v%d, %v", meta.Version, err)
	}
	if keys = cacheKeys(reg); !keys["b@1"] || len(keys) != 2 {
		t.Fatalf("reload did not re-cache b: %v", keys)
	}
}

// TestCacheEvictionAcrossVersions checks that versions of one name are
// distinct cache entries and eviction plays well with republish.
func TestCacheEvictionAcrossVersions(t *testing.T) {
	reg, err := Open(t.TempDir(), WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	for i := 0; i < 4; i++ {
		if _, err := reg.Publish("hot", m); err != nil {
			t.Fatal(err)
		}
	}
	keys := cacheKeys(reg)
	if len(keys) != 2 || !keys["hot@4"] || !keys["hot@3"] {
		t.Fatalf("want the two newest versions resident, got %v", keys)
	}
	// A pinned old version loads from disk despite eviction.
	if _, meta, err := reg.GetVersion("hot", 1); err != nil || meta.Version != 1 {
		t.Fatalf("pinned old version: v%d, %v", meta.Version, err)
	}
}

// TestConcurrentGetUnderEvictionPressure hammers a cache of 1 with
// readers of many names plus publishers of the same name — under -race
// this proves eviction, lazy loads and publish commits never tear.
func TestConcurrentGetUnderEvictionPressure(t *testing.T) {
	reg, err := Open(t.TempDir(), WithCacheSize(1))
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	names := []string{"n0", "n1", "n2", "n3"}
	for _, name := range names {
		if _, err := reg.Publish(name, m); err != nil {
			t.Fatal(err)
		}
	}

	const readers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, readers*rounds+rounds)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := names[(r+i)%len(names)]
				got, meta, err := reg.Get(name)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", name, err)
					return
				}
				if got == nil || len(got.Attrs) != len(m.Attrs) || meta.Name != name {
					errs <- fmt.Errorf("torn read of %s: %+v", name, meta)
					return
				}
			}
		}(r)
	}
	// Publishers churn the same name the readers are hitting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := reg.Publish("n0", m); err != nil {
				errs <- fmt.Errorf("publish: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if keys := cacheKeys(reg); len(keys) > 1 {
		t.Fatalf("cache exceeded its cap of 1: %v", keys)
	}
}

// TestRecreatedModelAcrossRegistries: two registries over one directory,
// as two processes would open it. When one deletes a model and publishes
// it again, the other must serve the new incarnation — never the deleted
// one its cache still holds under the same name and version — from Get,
// GetVersion, MetaOf and MetaOfVersion alike, and must find nothing once
// the model is deleted for good.
func TestRecreatedModelAcrossRegistries(t *testing.T) {
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
	recreate := func() Meta {
		t.Helper()
		if err := a.Delete("engines"); err != nil {
			t.Fatal(err)
		}
		meta, err := a.Publish("engines", m)
		if err != nil || meta.Version != 1 {
			t.Fatalf("republish: v%d, %v", meta.Version, err)
		}
		return meta
	}
	// want checks every read of b against the incarnation a committed
	// last, and returns the model b served.
	want := func(pub Meta, stale *audit.Model, byVersion bool) *audit.Model {
		t.Helper()
		var got *audit.Model
		var meta Meta
		if byVersion {
			got, meta, err = b.GetVersion("engines", 1)
		} else {
			got, meta, err = b.Get("engines")
		}
		if err != nil || !meta.CreatedAt.Equal(pub.CreatedAt) || got == stale {
			t.Fatalf("Get (by version %v) = createdAt %v, err %v, stale model %v; want createdAt %v",
				byVersion, meta.CreatedAt, err, got == stale, pub.CreatedAt)
		}
		if meta, err := b.MetaOf("engines"); err != nil || !meta.CreatedAt.Equal(pub.CreatedAt) {
			t.Fatalf("MetaOf = createdAt %v, err %v; want %v", meta.CreatedAt, err, pub.CreatedAt)
		}
		if meta, err := b.MetaOfVersion("engines", 1); err != nil || !meta.CreatedAt.Equal(pub.CreatedAt) {
			t.Fatalf("MetaOfVersion = createdAt %v, err %v; want %v", meta.CreatedAt, err, pub.CreatedAt)
		}
		return got
	}

	first, err := a.Publish("engines", m)
	if err != nil {
		t.Fatal(err)
	}
	cached := want(first, nil, false)
	cached = want(recreate(), cached, false)
	want(recreate(), cached, true)

	if err := a.Delete("engines"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.GetVersion("engines", 1); !IsNotFound(err) {
		t.Fatalf("GetVersion after another registry's Delete: err = %v, want not-found", err)
	}
	if _, err := b.MetaOfVersion("engines", 1); !IsNotFound(err) {
		t.Fatalf("MetaOfVersion after another registry's Delete: err = %v, want not-found", err)
	}
}
