package opt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/obs"
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

// TestWhatIfEntryBound checks that the cache evicts rather than growing
// past its node budget, and keeps answering correctly after eviction.
func TestWhatIfEntryBound(t *testing.T) {
	s, _, ds := buildEnv(t)
	const share = 8
	w := NewWhatIf(New(s, ds))
	w.shardNodes = share
	q := pointQuery()
	for i := 0; i < 10*share*whatIfShards; i++ {
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
	if err := checkShards(w); err != nil {
		t.Fatal(err)
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
	w := NewWhatIf(New(s, ds))
	w.shardNodes = 6 // a join plan (5 nodes) and a point plan (2) overflow it: evictions too
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
	if err := checkShards(w); err != nil {
		t.Fatal(err)
	}
}

// cacheEntries counts the plans and the misses in flight the cache holds.
func cacheEntries(w *WhatIf) int {
	var n int
	for i := range w.shards {
		w.shards[i].mu.Lock()
		n += len(w.shards[i].plans) + len(w.shards[i].flight)
		w.shards[i].mu.Unlock()
	}
	return n
}

// checkShards reports a shard that holds more plan nodes than its share, or
// whose node total, plans and CLOCK ring disagree.
func checkShards(w *WhatIf) error {
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		var nodes, ring int
		for _, e := range sh.plans {
			n, _ := countNodes(e.p.Root)
			nodes += n
		}
		for e := sh.hand; e != nil && ring <= len(sh.plans); {
			ring++
			if e = e.next; e == sh.hand {
				break
			}
		}
		counted, plans := sh.nodes, len(sh.plans)
		sh.mu.Unlock()
		if counted > w.shardNodes || nodes != counted || ring != plans {
			return fmt.Errorf("shard %d: %d nodes counted, %d in its plans, share %d; ring of %d for %d plans",
				i, counted, nodes, w.shardNodes, ring, plans)
		}
	}
	return nil
}

// TestWhatIfClockOrder drives one shard's CLOCK directly with plans of
// known sizes: unreferenced plans leave oldest first, a hit lets a plan
// outlive one pass of the hand, a large plan evicts as many nodes as it
// needs, and a plan larger than the whole budget is not cached.
func TestWhatIfClockOrder(t *testing.T) {
	sh := &NewWhatIf(nil).shards[0]
	sized := func(n int) *plan.Plan { // a chain of n nodes
		root := &plan.Node{}
		for n--; n > 0; n-- {
			root = &plan.Node{Kids: [2]*plan.Node{root}}
		}
		return &plan.Plan{Root: root}
	}
	key := func(i int) whatIfKey { return whatIfKey{queryFP: fmt.Sprint(i)} }
	insert := func(i, nodes int) {
		sh.insertLocked(key(i), sized(nodes), 4)
	}
	cached := func() string {
		var in []string
		for i := 0; i < 16; i++ {
			if _, ok := sh.plans[key(i)]; ok {
				in = append(in, fmt.Sprint(i))
			}
		}
		return strings.Join(in, " ")
	}
	for i := 0; i < 4; i++ {
		insert(i, 1)
	}
	sh.plans[key(1)].ref = true // as a hit sets it
	for i, want := range []string{
		"1 2 3 4", // 0 was the oldest
		"1 3 4 5", // the hand cleared 1's bit and took 2
		"1 4 5 6",
		"1 5 6 7",
		"5 6 7 8", // 1 is reached again, now unreferenced
	} {
		if insert(4+i, 1); cached() != want {
			t.Fatalf("after inserting %d: cached %q, want %q", 4+i, cached(), want)
		}
	}
	if insert(9, 3); cached() != "8 9" {
		t.Fatalf("a 3-node plan left %q cached, want \"8 9\"", cached())
	}
	if insert(10, 5); cached() != "8 9" || sh.nodes != 4 {
		t.Fatalf("a plan over the budget changed the shard: %q cached, %d nodes", cached(), sh.nodes)
	}
}

// TestWhatIfSoakStaysBounded sends ten times the cache's lowered node budget
// in distinct configurations through one WhatIf from several goroutines, as
// a hostile /v1/plan client could. Between batches it re-probes a small hot
// set. No shard may ever hold more than its share of nodes, eviction must
// happen, the hot set must keep hitting, and every plan must match a fresh
// optimizer's to the bit: eviction changes time, never an answer.
func TestWhatIfSoakStaysBounded(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	w.shardNodes = 64
	fresh := New(s, ds)
	check := func(q *query.Query, cfg *catalog.Configuration, p *plan.Plan) error {
		want, err := fresh.Optimize(q, cfg)
		if err != nil {
			return err
		}
		if p.String() != want.String() || math.Float64bits(p.EstTotalCost) != math.Float64bits(want.EstTotalCost) {
			return fmt.Errorf("%s under %s: cached plan differs from a fresh optimizer's:\n%s\nwant\n%s", q.Name, cfg.Fingerprint(), p, want)
		}
		return nil
	}
	queries := []*query.Query{pointQuery(), joinQuery()}
	// An index on f_date is relevant to the point query and one on f_dim to
	// the join, so every included-column set is a new cache key.
	lead := []string{"f_date", "f_dim"}
	cold := func(i int) (*query.Query, *catalog.Configuration) {
		return queries[i%2], catalog.NewConfiguration(&catalog.Index{
			Table: "fact", KeyColumns: []string{lead[i%2]}, IncludedColumns: []string{fmt.Sprintf("c%d", i)},
		})
	}
	type probe struct {
		q   *query.Query
		cfg *catalog.Configuration
	}
	hot := []probe{
		{queries[0], nil},
		{queries[1], nil},
		{queries[0], catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})},
		{queries[1], catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}})},
	}
	for _, h := range hot {
		if _, err := w.Plan(h.q, h.cfg); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() { // checks the bound while the batches run
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				if err := checkShards(w); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	evict0 := mCacheEvict.Value()
	const workers, batch = 4, 24 // a batch adds about a twelfth of the budget
	total := 10 * w.shardNodes * whatIfShards
	for start := 0; start < total; start += batch {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := start + g; i < start+batch && i < total; i += workers {
					q, cfg := cold(i)
					p, err := w.Plan(q, cfg)
					if err == nil {
						err = check(q, cfg, p)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		calls, hits := w.Stats()
		for _, h := range hot {
			p, err := w.Plan(h.q, h.cfg)
			if err == nil {
				err = check(h.q, h.cfg, p)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if c, h := w.Stats(); c-calls != len(hot) || h-hits != len(hot) {
			t.Fatalf("after %d cold configurations the hot set missed: %d of %d re-probes hit", start+batch, h-hits, c-calls)
		}
	}
	close(stop)
	<-polled
	if err := checkShards(w); err != nil {
		t.Fatal(err)
	}
	if mCacheEvict.Value() == evict0 {
		t.Fatal("ten budgets of distinct configurations evicted nothing")
	}
}

// TestWhatIfResetDropsInFlightMiss holds a miss open across Reset: its
// waiters still receive the plan, but it is not cached, so a plan made
// under statistics that Reset retired never serves a later call.
func TestWhatIfResetDropsInFlightMiss(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s, _, ds := buildEnv(t)
	w := NewWhatIf(New(s, ds))
	q := pointQuery()
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}})
	if _, err := w.Plan(q, cfg); err != nil { // learns the key and its shard
		t.Fatal(err)
	}
	var sh *whatIfShard
	var key whatIfKey
	for i := range w.shards {
		for k := range w.shards[i].plans {
			sh, key = &w.shards[i], k
		}
	}
	w.Reset()
	entries0, waits0 := mEntries.Value(), mCacheWait.Value()

	// Claim the miss as Plan does, then let waiters join it.
	c := new(whatIfCall)
	c.wg.Add(1)
	sh.mu.Lock()
	sh.flight[key] = c
	sh.mu.Unlock()
	const waiters = 4
	got := make([]*plan.Plan, waiters)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = w.Plan(q, cfg); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); mCacheWait.Value()-waits0 < waiters; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the parked miss", mCacheWait.Value()-waits0, waiters)
		}
	}
	w.Reset()
	c.p, c.err = w.Opt.Optimize(q, cfg) // the owner's Optimize completes
	w.settle(sh, key, c)
	wg.Wait()

	for i, p := range got {
		if p != c.p {
			t.Fatalf("waiter %d got %p, want the in-flight plan %p", i, p, c.p)
		}
	}
	if n := cacheEntries(w); n != 0 {
		t.Fatalf("a miss in flight across Reset left %d entries, want 0", n)
	}
	if d := mEntries.Value() - entries0; d != 0 {
		t.Fatalf("whatif.cache.entries moved by %v, want 0", d)
	}
	if p, err := w.Plan(q, cfg); err != nil || p == c.p {
		t.Fatalf("the call after Reset returned %p (%v), want a fresh plan", p, err)
	}
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
	a := o.analyses.Load()
	if n, m := count(&a.qinfo), count(&a.byFP); n != 1 || m != 1 {
		t.Fatalf("optimizer holds %d query pointers over %d analyses, want 1 and 1", n, m)
	}
	if calls, hits := w.Stats(); calls != 200 || hits != 199 {
		t.Fatalf("stats: calls=%d hits=%d, want 200/199", calls, hits)
	}
}

// TestQueryAnalysesCapped: a client that sends twice maxAnalyses distinct
// SQL texts leaves the optimizer at most maxAnalyses analyses, the latest
// query's among them.
func TestQueryAnalysesCapped(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	w := NewWhatIf(o)
	var last *query.Query
	for i := 0; i < 2*maxAnalyses; i++ {
		q, err := sqlparse.Parse(fmt.Sprintf("SELECT f_val FROM fact WHERE f_date = %d", i), s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Plan(q, nil); err != nil {
			t.Fatal(err)
		}
		last = q
	}
	a := o.analyses.Load()
	count := func(m *sync.Map) int {
		n := 0
		m.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	if n, m := count(&a.qinfo), count(&a.byFP); n > maxAnalyses || m > maxAnalyses {
		t.Fatalf("optimizer holds %d query pointers over %d analyses, cap %d", n, m, maxAnalyses)
	}
	if _, ok := a.byFP.Load(last.Fingerprint()); !ok {
		t.Fatal("the latest query's analysis was dropped")
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
