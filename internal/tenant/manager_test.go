package tenant

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
)

// blob trains a tiny classifier so registry Add/Activate have real bytes.
func blob(t testing.TB, seed int64) []byte {
	t.Helper()
	clf := models.NewClassifier(feat.Default(), models.RF(3, seed), 0.2)
	const n, dim = 40, 6
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((i*7+j*13+int(seed))%19) / 19
		}
		X[i] = v
		y[i] = i % 3
	}
	if err := clf.TrainVectors(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.SaveClassifier(clf, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testManager(t *testing.T, mutate func(*Config)) *Manager {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		TenantsDir:           filepath.Join(dir, "tenants"),
		DefaultModelDir:      filepath.Join(dir, "models"),
		DefaultTelemetryPath: filepath.Join(dir, "telemetry.jsonl"),
		MaxActiveTenants:     4,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func TestManagerRejectsInvalidID(t *testing.T) {
	m := testManager(t, nil)
	for _, id := range []string{"", "..", "a/b", "UP"} {
		if _, err := m.Acquire(id); !errors.Is(err, ErrInvalidID) {
			t.Fatalf("Acquire(%q) = %v, want ErrInvalidID", id, err)
		}
	}
}

func TestManagerNamespacing(t *testing.T) {
	m := testManager(t, nil)

	def, err := m.Acquire(DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(def)
	a, err := m.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(a)

	// The default tenant keeps the flat pre-multi-tenant layout; acme is
	// namespaced under the tenants root.
	if _, err := def.Reg.Models.Add(blob(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reg.Models.Add(blob(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.DefaultModelDir, "v0001.clf")); err != nil {
		t.Fatalf("default tenant model not in flat layout: %v", err)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.TenantsDir, "acme", "models", "v0001.clf")); err != nil {
		t.Fatalf("acme model not namespaced: %v", err)
	}

	// Telemetry partitions are likewise disjoint.
	if _, err := a.Sink.Append([]expdata.PlanRecord{{Query: "q", Cost: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.TenantsDir, "acme", "telemetry.jsonl")); err != nil {
		t.Fatalf("acme telemetry not namespaced: %v", err)
	}
	recs, _ := def.Sink.Snapshot()
	if len(recs) != 0 {
		t.Fatalf("default tenant sees %d of acme's records", len(recs))
	}
}

func TestManagerEvictionThenReloadPreservesCurrent(t *testing.T) {
	m := testManager(t, func(c *Config) { c.MaxActiveTenants = 1 })

	a, err := m.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Reg.Models.AddAndActivate(blob(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Sink.Append([]expdata.PlanRecord{{Query: "q1", Cost: 3}}); err != nil {
		t.Fatal(err)
	}
	m.Release(a)

	// Materializing a second tenant overflows MaxActiveTenants=1 and evicts acme.
	b, err := m.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b)
	if got := m.ActiveCount(); got != 1 {
		t.Fatalf("ActiveCount after eviction = %d, want 1", got)
	}

	// Re-acquiring acme reloads from disk: CURRENT still points at v, and
	// the telemetry window survives with its watermark.
	a2, err := m.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(a2)
	if a2 == a {
		t.Fatal("re-acquire returned the evicted instance")
	}
	active := a2.Reg.Models.Active()
	if active == nil || active.ID != v.ID {
		t.Fatalf("reloaded active = %+v, want version %d", active, v.ID)
	}
	recs, total := a2.Sink.Snapshot()
	if len(recs) != 1 || total != 1 {
		t.Fatalf("reloaded telemetry = %d records, total %d; want 1, 1", len(recs), total)
	}
	if recs[0].Query != "q1" {
		t.Fatalf("reloaded record = %+v", recs[0])
	}
}

func TestManagerEvictionSkipsReferencedTenants(t *testing.T) {
	m := testManager(t, func(c *Config) { c.MaxActiveTenants = 1 })

	a, err := m.Acquire("acme") // held: refs=1
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	// Both are referenced, so the set transiently exceeds the bound rather
	// than tearing state out from under a handler.
	if got := m.ActiveCount(); got != 2 {
		t.Fatalf("ActiveCount with both referenced = %d, want 2", got)
	}
	m.Release(a)
	m.Release(b)

	// The next Acquire triggers overflow eviction of the LRU idle tenant
	// (acme: released first but acquired earlier — beta has the fresher
	// lastUsed, and gamma is brand new).
	g, err := m.Acquire("gamma")
	if err != nil {
		t.Fatal(err)
	}
	m.Release(g)
	ids := m.ActiveIDs()
	for _, id := range ids {
		if id == "acme" {
			t.Fatalf("LRU tenant survived eviction: %v", ids)
		}
	}
}

func TestManagerConcurrentAcquire(t *testing.T) {
	m := testManager(t, func(c *Config) { c.MaxActiveTenants = 2 })

	// Two tenants, many goroutines acquiring each concurrently with churn
	// from a third; -race and the conservation checks below are the assert.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids := []string{"acme", "beta", "churn"}
			for j := 0; j < 30; j++ {
				id := ids[(i+j)%len(ids)]
				tn, err := m.Acquire(id)
				if err != nil {
					t.Errorf("Acquire(%s): %v", id, err)
					return
				}
				if tn.ID != id {
					t.Errorf("Acquire(%s) returned tenant %s", id, tn.ID)
				}
				m.Release(tn)
			}
		}(i)
	}
	wg.Wait()
	if got := m.ActiveCount(); got > 3 {
		t.Fatalf("ActiveCount after churn = %d, want <= 3", got)
	}
}

func TestManagerCloseRejectsAcquire(t *testing.T) {
	m := NewManager(Config{DefaultModelDir: "", DefaultTelemetryPath: ""})
	tn, err := m.Acquire(DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(tn)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(DefaultID); err == nil {
		t.Fatal("Acquire after Close succeeded")
	}
	// Close is idempotent.
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
