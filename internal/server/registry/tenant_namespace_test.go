package registry

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestTenantNamespacedStores exercises the registry as the tenant manager
// uses it: one store per tenant directory under a shared data root, opened
// and mutated concurrently. Each namespace versions, activates, and prunes
// independently.
func TestTenantNamespacedStores(t *testing.T) {
	root := t.TempDir()
	dirs := []string{
		filepath.Join(root, "acme", "models"),
		filepath.Join(root, "beta", "models"),
	}

	regs := make([]*Registry, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			r, err := Open(dir)
			if err != nil {
				t.Errorf("Open(%s): %v", dir, err)
				return
			}
			for v := 1; v <= 3; v++ {
				if _, err := r.Models.Add(testBlob(t, int64(10*i+v))); err != nil {
					t.Errorf("Add %s v%d: %v", dir, v, err)
					return
				}
			}
			if err := r.Models.Activate(2); err != nil {
				t.Errorf("Activate(%s): %v", dir, err)
				return
			}
			regs[i] = r
		}(i, dir)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Per-tenant prune: each namespace retains its active version plus the
	// newest keep=1, independent of the other tenant's registry.
	for i, r := range regs {
		removed, err := r.Models.Prune(1)
		if err != nil {
			t.Fatalf("Prune tenant %d: %v", i, err)
		}
		if len(removed) != 1 || removed[0] != 1 {
			t.Fatalf("Prune tenant %d removed %v, want [1]", i, removed)
		}
		if got := len(r.Models.List()); got != 2 {
			t.Fatalf("tenant %d retains %d versions, want 2 (active v2 + newest v3)", i, got)
		}
		if a := r.Models.Active(); a == nil || a.ID != 2 {
			t.Fatalf("tenant %d active = %v, want v2", i, a)
		}
	}

	// Tenant layouts are disjoint: acme's prune must not have touched
	// beta's files and vice versa.
	for i, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, "v0001.clf")); !os.IsNotExist(err) {
			t.Fatalf("tenant %d: pruned v0001.clf still present (err=%v)", i, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "v0002.clf")); err != nil {
			t.Fatalf("tenant %d: active blob missing: %v", i, err)
		}
	}

	// Corrupting one tenant's store rejects only that tenant on reopen —
	// the blast radius of a bad namespace is one tenant, not the fleet.
	if err := os.WriteFile(filepath.Join(dirs[0], "v0002.clf"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dirs[0]); err == nil {
		t.Fatal("Open of corrupt tenant store succeeded")
	}
	r, err := Open(dirs[1])
	if err != nil {
		t.Fatalf("healthy tenant store rejected after sibling corruption: %v", err)
	}
	if a := r.Models.Active(); a == nil || a.ID != 2 {
		t.Fatalf("healthy tenant reopened active = %v, want v2", a)
	}
}

// TestConcurrentReopenAcrossTenants reopens two tenant stores in parallel
// repeatedly (the eviction → reload path) while asserting CURRENT survives
// every cycle.
func TestConcurrentReopenAcrossTenants(t *testing.T) {
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "a", "models"), filepath.Join(root, "b", "models")}
	for i, dir := range dirs {
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Models.AddAndActivate(testBlob(t, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, dir := range dirs {
		wg.Add(1)
		go func(dir string) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				r, err := Open(dir)
				if err != nil {
					t.Errorf("reopen %s: %v", dir, err)
					return
				}
				a := r.Models.Active()
				if a == nil || a.ID != 1 {
					t.Errorf("reopen %s: active = %v, want v1", dir, a)
					return
				}
			}
		}(dir)
	}
	wg.Wait()
}
