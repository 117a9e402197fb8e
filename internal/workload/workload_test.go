package workload

import (
	"testing"

	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/util"
)

const testScale = 0.05

func TestTPCHValid(t *testing.T) {
	w := TPCH("tpch-test", 1500, 1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 22 {
		t.Fatalf("tpch should have 22 queries, got %d", len(w.Queries))
	}
	if w.Schema.NumTables() != 8 {
		t.Fatalf("tpch should have 8 tables, got %d", w.Schema.NumTables())
	}
	if w.DB.Table("lineitem").NumRows() != 1500 {
		t.Fatalf("lineitem rows: %d", w.DB.Table("lineitem").NumRows())
	}
}

func TestCompositeValid(t *testing.T) {
	w := Composite("composite-test", 1500, 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 8 {
		t.Fatalf("composite should have 8 queries, got %d", len(w.Queries))
	}
	// The mix must stack at least two seekable predicates on one table
	// somewhere — that's its reason to exist.
	stacked := false
	for _, q := range w.Queries {
		perTable := map[string]int{}
		for _, p := range q.Preds {
			perTable[p.Table]++
		}
		for _, n := range perTable {
			if n >= 2 {
				stacked = true
			}
		}
	}
	if !stacked {
		t.Fatal("composite mix has no multi-predicate table")
	}
}

func TestReplicate(t *testing.T) {
	w := Composite("composite-rep", 1500, 3)
	qs := Replicate(w.Queries[:3], 4)
	if len(qs) != 12 {
		t.Fatalf("replicate: got %d queries, want 12", len(qs))
	}
	// Originals lead unchanged; copies are renamed but otherwise identical.
	for i, q := range w.Queries[:3] {
		if qs[i] != q {
			t.Fatal("replicate must keep the originals first")
		}
	}
	if qs[3].Name != "c1#1" || qs[3].TemplateHash() != w.Queries[0].TemplateHash() {
		t.Fatalf("copy should share the original's template: %s", qs[3].Name)
	}
	if qs[3].Fingerprint() == w.Queries[0].Fingerprint() {
		t.Fatal("copy must have a distinct fingerprint (it is a separate trace entry)")
	}
}

func TestTPCDSValid(t *testing.T) {
	w := TPCDS("tpcds-test", 1200, 2)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Schema.NumTables() != 20 {
		t.Fatalf("tpcds should have 20 tables, got %d", w.Schema.NumTables())
	}
	if len(w.Queries) < 35 {
		t.Fatalf("tpcds should have a broad query set, got %d", len(w.Queries))
	}
}

func TestCustomerValid(t *testing.T) {
	for c := 1; c <= 4; c++ {
		w := Customer("cust-test", int64(100+c), c, testScale)
		if err := w.Validate(); err != nil {
			t.Fatalf("complexity %d: %v", c, err)
		}
		if len(w.Queries) < 10 {
			t.Fatalf("complexity %d: too few queries: %d", c, len(w.Queries))
		}
	}
}

func TestCustomerComplexityGrowsJoins(t *testing.T) {
	simple := Customer("c1", 500, 1, testScale).ComputeStats()
	complexW := Customer("c6", 506, 4, testScale).ComputeStats()
	if complexW.MaxJoins <= simple.MaxJoins {
		t.Fatalf("complexity 4 should have deeper joins: %d vs %d", complexW.MaxJoins, simple.MaxJoins)
	}
}

func TestSuiteShape(t *testing.T) {
	ws := Suite(Opts{Scale: 0.02, Seed: 7})
	if len(ws) != 15 {
		t.Fatalf("suite should have 15 databases, got %d", len(ws))
	}
	order := []string{
		"tpch10", "tpch100", "tpcds10", "tpcds100",
		"cust1", "cust2", "cust3", "cust4", "cust5", "cust6",
		"cust7", "cust8", "cust9", "cust10", "cust11",
	}
	names := map[string]bool{}
	for i, w := range ws {
		if w.Name != order[i] {
			t.Fatalf("suite order: %s != %s", w.Name, order[i])
		}
		if names[w.Name] {
			t.Fatalf("duplicate workload name %s", w.Name)
		}
		names[w.Name] = true
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	// Scale ordering: tpch100 bigger than tpch10.
	if ws[1].Schema.TotalBytes() <= ws[0].Schema.TotalBytes() {
		t.Fatal("tpch100 should be larger than tpch10")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := TPCH("t", 800, 99)
	b := TPCH("t", 800, 99)
	ca, cb := a.DB.Table("lineitem").Column("l_price"), b.DB.Table("lineitem").Column("l_price")
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("tpch data not deterministic at row %d", i)
		}
	}
	for i := range a.Queries {
		if a.Queries[i].SQL() != b.Queries[i].SQL() {
			t.Fatalf("tpch queries not deterministic: %s", a.Queries[i].Name)
		}
	}
	c1 := Customer("c", 5, 3, testScale)
	c2 := Customer("c", 5, 3, testScale)
	if len(c1.Queries) != len(c2.Queries) {
		t.Fatal("customer workload not deterministic")
	}
	for i := range c1.Queries {
		if c1.Queries[i].SQL() != c2.Queries[i].SQL() {
			t.Fatalf("customer query %d not deterministic", i)
		}
	}
}

func TestComputeStats(t *testing.T) {
	w := TPCH("t", 1000, 3)
	st := w.ComputeStats()
	if st.Tables != 8 || st.Queries != 22 {
		t.Fatalf("stats: %+v", st)
	}
	if st.AvgJoins <= 0.5 || st.MaxJoins < 4 {
		t.Fatalf("tpch joins look wrong: %+v", st)
	}
	if st.SizeMB <= 0 {
		t.Fatal("size must be positive")
	}
}

func TestQueryLookup(t *testing.T) {
	w := TPCH("t", 500, 3)
	if w.Query("q5") == nil || w.Query("zzz") != nil {
		t.Fatal("Query lookup wrong")
	}
}

// TestAllSuiteQueriesPlanAndExecute is the big integration gate: every query
// of every suite database must optimize and execute without error.
func TestAllSuiteQueriesPlanAndExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, w := range Suite(Opts{Scale: 0.03, Seed: 11}) {
		ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(5), 256, 16)
		o := opt.New(w.Schema, ds)
		ex := exec.New(w.DB)
		for _, q := range w.Queries {
			p, err := o.Optimize(q, nil)
			if err != nil {
				t.Fatalf("%s/%s: optimize: %v", w.Name, q.Name, err)
			}
			if _, err := ex.Execute(p, util.NewRNG(1)); err != nil {
				t.Fatalf("%s/%s: execute: %v\n%s", w.Name, q.Name, err, p)
			}
		}
	}
}
