package opt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	sqlparse "repro/internal/sql"
	"repro/internal/util"
	"repro/internal/workload"
)

// TestWhatIfKeyIncludesPredicates is the regression test for the cache-key
// bug: the cache used to key plans by q.Name alone, so two distinct queries
// sharing a name silently received each other's plans.
func TestWhatIfKeyIncludesPredicates(t *testing.T) {
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})

	// Same name, different predicates: a selective point lookup vs a wide
	// range scan. The optimizer picks different plans (seek vs scan) and
	// certainly different estimates.
	narrow := &query.Query{
		Name:   "q",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 100, Hi: 100}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}},
	}
	wide := &query.Query{
		Name:   "q",
		Tables: []string{"fact"},
		Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 3650}},
		Select: []query.ColRef{{Table: "fact", Column: "f_val"}},
	}

	pNarrow, err := w.Plan(narrow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pWide, err := w.Plan(wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pNarrow == pWide {
		t.Fatal("same-named queries with different predicates shared a cached plan")
	}
	if pNarrow.EstTotalCost == pWide.EstTotalCost {
		t.Fatal("distinct parameterizations should cost differently")
	}
	// Each query must still hit its own entry.
	again, _ := w.Plan(narrow, cfg)
	if again != pNarrow {
		t.Fatal("narrow query lost its cache entry")
	}
	calls, hits := w.Stats()
	if calls != 3 || hits != 1 {
		t.Fatalf("calls=%d hits=%d, want 3/1", calls, hits)
	}
}

// TestWhatIfSingleflight checks that concurrent misses on one key run
// Optimize once: every other caller joins the in-flight computation and
// counts as a hit.
func TestWhatIfSingleflight(t *testing.T) {
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	q := pointQuery()
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})

	const n = 32
	plans := make([]interface{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := w.Plan(q, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent callers got different plan objects for one key")
		}
	}
	calls, hits := w.Stats()
	if calls != n {
		t.Fatalf("calls=%d, want %d", calls, n)
	}
	if hits != n-1 {
		t.Fatalf("hits=%d, want %d (one Optimize, everyone else joins or hits)", hits, n-1)
	}
}

// TestWhatIfEntryBound checks that a bounded cache evicts rather than
// growing without limit, and keeps answering correctly after eviction.
func TestWhatIfEntryBound(t *testing.T) {
	s, _, ds := buildEnv(t)
	const bound = 32
	w := NewWhatIfBounded(New(s, ds), bound)
	q := pointQuery()
	for i := 0; i < 10*bound; i++ {
		cfg := catalog.NewConfiguration(&catalog.Index{
			Table:      "fact",
			KeyColumns: []string{"f_date"},
			// Vary the included column set so every configuration has a
			// distinct fingerprint.
			IncludedColumns: []string{fmt.Sprintf("c%d", i)},
		})
		if _, err := w.Plan(q, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if entries := cacheEntries(w); entries > bound {
		t.Fatalf("cache holds %d entries, bound %d", entries, bound)
	}
	// A fresh probe after heavy eviction still plans correctly.
	p, err := w.Plan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstTotalCost <= 0 {
		t.Fatal("post-eviction plan has no cost")
	}
}

// TestWhatIfConcurrentHammer drives Plan, Stats, and Reset from many
// goroutines; the race detector (CI runs go test -race) verifies the
// sharded cache and singleflight machinery are data-race free.
func TestWhatIfConcurrentHammer(t *testing.T) {
	s, _, ds := buildEnv(t)
	w := NewWhatIfBounded(New(s, ds), 64)
	queries := []*query.Query{pointQuery(), joinQuery()}
	configs := []*catalog.Configuration{
		nil,
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}}),
		catalog.NewConfiguration(
			&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}, IncludedColumns: []string{"f_val"}},
			&catalog.Index{Table: "dim", KeyColumns: []string{"d_id"}},
		),
	}
	const workers = 16
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := queries[(g+i)%len(queries)]
				cfg := configs[(g*7+i)%len(configs)]
				if _, err := w.Plan(q, cfg); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					w.Stats()
				}
				if g == 0 && i%50 == 25 {
					w.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
}

// cacheEntries counts the plans (completed or in flight) the cache holds.
func cacheEntries(w *WhatIf) int {
	var n int
	for i := range w.shards {
		w.shards[i].mu.Lock()
		n += len(w.shards[i].entries)
		w.shards[i].mu.Unlock()
	}
	return n
}

// TestWhatIfDuplicateConfigs: two configurations with the same fingerprint
// are planned once and share the cache entry. So is a configuration that
// adds only an index the query cannot use: one on a table the query does
// not reference, or a B+ tree on a referenced table that no predicate,
// join or covering scan of the query reads. The cache key keeps just the
// indexes relevant to the query. Such a plan shares the cached tree and
// estimates but names its own configuration.
func TestWhatIfDuplicateConfigs(t *testing.T) {
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	q := pointQuery() // reads only fact, filtering on f_date
	a := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})
	b := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})
	withDim := a.Clone().Add(&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}})
	withPad := a.Clone().Add(&catalog.Index{Table: "fact", KeyColumns: []string{"f_pad"}})
	var plans []*plan.Plan
	for _, cfg := range []*catalog.Configuration{a, b, a, withDim, withPad} {
		p, err := w.Plan(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	if plans[0] != plans[1] || plans[1] != plans[2] {
		t.Fatal("configurations with one fingerprint must share one cached plan")
	}
	calls, hits := w.Stats()
	if calls != 5 || hits != 4 {
		t.Fatalf("stats: calls=%d hits=%d, want 5/4", calls, hits)
	}
	if n := cacheEntries(w); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	for i, cfg := range map[int]*catalog.Configuration{3: withDim, 4: withPad} {
		p := plans[i]
		if p.Root != plans[0].Root {
			t.Fatalf("%s: an index the query cannot use must not re-plan it", cfg.Fingerprint())
		}
		if math.Float64bits(p.EstTotalCost) != math.Float64bits(plans[0].EstTotalCost) {
			t.Fatalf("%s: estimate changed: %v vs %v", cfg.Fingerprint(), p.EstTotalCost, plans[0].EstTotalCost)
		}
		if p.ConfigFP != cfg.Fingerprint() || plans[0].ConfigFP != a.Fingerprint() {
			t.Fatalf("ConfigFP %q / %q, want %q / %q", p.ConfigFP, plans[0].ConfigFP, cfg.Fingerprint(), a.Fingerprint())
		}
		if want := fmt.Sprintf("config %q)", cfg.Fingerprint()); !strings.Contains(p.String(), want) {
			t.Fatalf("plan header does not name its configuration %s:\n%s", want, p)
		}
	}
}

// TestWhatIfReparsedQueryAddsNoState: a daemon parses every ad-hoc SQL
// body into a new *query.Query, from many request goroutines at once.
// Planning many parses of one text keeps one per-query analysis, so the
// optimizer's state grows with distinct queries, not with requests.
func TestWhatIfReparsedQueryAddsNoState(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	w := NewWhatIf(o)
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}})
	const text = "SELECT SUM(f_val) FROM fact, dim WHERE f_dim = d_id AND d_cat = 3"
	const workers, each = 4, 50
	plans := make([]*plan.Plan, workers*each)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q, err := sqlparse.Parse(text, s)
				if err != nil {
					t.Error(err)
					return
				}
				if plans[g*each+i], err = w.Plan(q, cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("parse %d: a re-parsed query must share the cached plan", i)
		}
	}
	count := func(m *sync.Map) int {
		n := 0
		m.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	if n, m := count(&o.qinfo), count(&o.byFP); n != 1 || m != 1 {
		t.Fatalf("optimizer holds %d query pointers over %d analyses, want 1 and 1", n, m)
	}
	if calls, hits := w.Stats(); calls != 200 || hits != 199 {
		t.Fatalf("stats: calls=%d hits=%d, want 200/199", calls, hits)
	}
}

// TestWhatIfErrorNotCached: a failing probe returns the optimizer's error,
// leaves no cache entry behind, and fails the same way on retry.
func TestWhatIfErrorNotCached(t *testing.T) {
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	if _, err := w.Plan(pointQuery(), nil); err != nil {
		t.Fatal(err)
	}
	prior := cacheEntries(w)
	bad := &query.Query{
		Name:   "bad",
		Tables: []string{"nope"},
		Select: []query.ColRef{{Table: "nope", Column: "x"}},
	}
	for i, cfg := range []*catalog.Configuration{nil, catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore})} {
		_, err := w.Plan(bad, cfg)
		if err == nil {
			t.Fatalf("config %d: expected an error for an invalid query", i)
		}
		if n := cacheEntries(w); n != prior {
			t.Fatalf("config %d: the failure left %d entries, want %d", i, n, prior)
		}
		// Not a poisoned entry that panics or returns a nil plan.
		_, retry := w.Plan(bad, cfg)
		if retry == nil || retry.Error() != err.Error() {
			t.Fatalf("config %d: retry returned %v, want %v", i, retry, err)
		}
	}
}

// FuzzPlanSQL runs SQL text through the parser and the what-if planner, as
// every /v1/plan and /v1/classify request does, against a small TPC-H
// schema: under no index, then under a B+ tree on every foreign-key column
// and a columnstore on lineitem. Any input may be rejected with an error;
// none may panic or return neither a plan nor an error. Each input gets a
// fresh optimizer and cache, so a long run does not grow them.
func FuzzPlanSQL(f *testing.F) {
	w := workload.TPCH("fuzz-tpch", 400, 1)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(1), 64, 8)
	fks := catalog.NewConfiguration(&catalog.Index{Table: "lineitem", Kind: catalog.Columnstore})
	for _, fk := range [][2]string{
		{"nation", "n_region"}, {"supplier", "s_nation"}, {"customer", "c_nation"},
		{"partsupp", "ps_part"}, {"partsupp", "ps_supp"}, {"orders", "o_cust"},
		{"lineitem", "l_order"}, {"lineitem", "l_part"}, {"lineitem", "l_supp"},
	} {
		fks.Add(&catalog.Index{Table: fk[0], KeyColumns: []string{fk[1]}})
	}
	for _, q := range w.Queries {
		f.Add(q.SQL())
	}
	f.Add("SELECT orders.o_id FROM orders, customer WHERE " +
		strings.Repeat("orders.o_cust = customer.c_id AND ", maxJoins) + "orders.o_cust = customer.c_id")
	f.Add("SELECT orders.o_id FROM orders WHERE orders.o_cust = orders.o_id")
	f.Add("SELECT orders.o_id FROM orders, orders")
	f.Fuzz(func(t *testing.T, text string) {
		q, err := sqlparse.Parse(text, w.Schema)
		if err != nil {
			return
		}
		wi := NewWhatIf(New(w.Schema, ds))
		for _, cfg := range []*catalog.Configuration{nil, fks} {
			if p, err := wi.Plan(q, cfg); p == nil && err == nil {
				t.Fatalf("%q under %q: neither a plan nor an error", text, fpOf(cfg))
			}
		}
	})
}
