package opt

import (
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/race"
)

// TestWhatIfCacheHitAllocBudget pins the hot path of the tuner's probe
// loop: a repeated what-if probe must resolve from the plan cache with a
// handful of allocations, never by re-planning. That holds too for a
// configuration that adds an index on a table the query does not
// reference: its key is rendered per call and its plan is a shallow copy.
func TestWhatIfCacheHitAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are not stable under -race (sync.Pool drops Puts)")
	}
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	q := pointQuery() // reads only fact
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})
	withDim := cfg.Clone().Add(&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}})
	if _, err := w.Plan(q, cfg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  *catalog.Configuration
	}{{"same configuration", cfg}, {"unreferenced index", withDim}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := w.Plan(q, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 8
		if allocs > budget {
			t.Fatalf("%s: cache-hit Plan allocated %.1f times per run, budget %d", c.name, allocs, budget)
		}
	}
	calls, hits := w.Stats()
	if hits < calls-1 {
		t.Fatalf("expected all repeat probes to hit: calls=%d hits=%d", calls, hits)
	}
}
