package expdata

import (
	"testing"

	"repro/internal/util"
	"repro/internal/workload"
)

func testOpts() CollectOpts {
	return CollectOpts{Seed: 3, MaxConfigsPerQuery: 6, ExecRepeats: 2, StatsSampleSize: 256, StatsBuckets: 16}
}

func collectSmall(t testing.TB) *Dataset {
	t.Helper()
	w := workload.TPCH("tpch-small", 1200, 5)
	ds, err := Collect(w, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLabelOf(t *testing.T) {
	if LabelOf(100, 130, 0.2) != Regression {
		t.Fatal("30% increase should be a regression")
	}
	if LabelOf(100, 70, 0.2) != Improvement {
		t.Fatal("30% decrease should be an improvement")
	}
	if LabelOf(100, 110, 0.2) != Unsure || LabelOf(100, 95, 0.2) != Unsure {
		t.Fatal("within-threshold changes should be unsure")
	}
	// Boundary: exactly at the threshold is not significant.
	if LabelOf(100, 120, 0.2) != Unsure || LabelOf(100, 80, 0.2) != Unsure {
		t.Fatal("boundary values should be unsure")
	}
}

func TestCollectProducesDiversePlans(t *testing.T) {
	ds := collectSmall(t)
	if len(ds.Plans) < 30 {
		t.Fatalf("too few distinct plans collected: %d", len(ds.Plans))
	}
	if ds.MaxPlansPerQuery() < 3 {
		t.Fatalf("expected several plans for some query, max %d", ds.MaxPlansPerQuery())
	}
	for _, ep := range ds.Plans {
		if ep.Cost <= 0 {
			t.Fatalf("plan of %s has non-positive cost", ep.Query.Name)
		}
		if len(ep.Configs) == 0 {
			t.Fatal("plan must record its configurations")
		}
		if ep.DB != "tpch-small" {
			t.Fatal("wrong db label")
		}
	}
	// Dedup: fingerprints unique per query.
	seen := map[string]map[uint64]bool{}
	for _, ep := range ds.Plans {
		m := seen[ep.Query.Name]
		if m == nil {
			m = map[uint64]bool{}
			seen[ep.Query.Name] = m
		}
		fp := ep.Plan.Fingerprint()
		if m[fp] {
			t.Fatalf("duplicate plan fingerprint for %s", ep.Query.Name)
		}
		m[fp] = true
	}
}

func TestPairsRespectCapAndOrdering(t *testing.T) {
	ds := collectSmall(t)
	rng := util.NewRNG(7)
	pairs := ds.Pairs(10, rng)
	perQuery := map[string]int{}
	for _, p := range pairs {
		if p.P1.Query.Name != p.P2.Query.Name {
			t.Fatal("pair must be within one query")
		}
		if p.P1 == p.P2 {
			t.Fatal("self pair")
		}
		perQuery[p.QueryName()]++
	}
	for q, n := range perQuery {
		if n > 10 {
			t.Fatalf("query %s has %d pairs, cap 10", q, n)
		}
	}
	// Uncapped yields n*(n-1) per query.
	all := ds.Pairs(0, rng)
	for _, qn := range ds.QueryNames() {
		n := len(ds.PlansOf(qn))
		want := n * (n - 1)
		got := 0
		for _, p := range all {
			if p.QueryName() == qn {
				got++
			}
		}
		if got != want {
			t.Fatalf("query %s: %d pairs, want %d", qn, got, want)
		}
	}
}

func TestLabelDistributionNontrivial(t *testing.T) {
	ds := collectSmall(t)
	pairs := ds.Pairs(40, util.NewRNG(8))
	counts := LabelCounts(pairs, DefaultAlpha)
	if counts[Regression] == 0 || counts[Improvement] == 0 || counts[Unsure] == 0 {
		t.Fatalf("expected all three classes present: %v", counts)
	}
}

func TestSplitPair(t *testing.T) {
	ds := collectSmall(t)
	c := &Corpus{Sets: []*Dataset{ds}}
	train, test := Split(c, SplitPair, 0.6, 20, util.NewRNG(9))
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("both sides must be non-empty")
	}
	frac := float64(len(train)) / float64(len(train)+len(test))
	if frac < 0.55 || frac > 0.65 {
		t.Fatalf("train fraction %v, want ~0.6", frac)
	}
}

func TestSplitPlanDisjointness(t *testing.T) {
	ds := collectSmall(t)
	c := &Corpus{Sets: []*Dataset{ds}}
	train, test := Split(c, SplitPlan, 0.6, 0, util.NewRNG(10))
	trainPlans := map[*ExecutedPlan]bool{}
	for _, p := range train {
		trainPlans[p.P1] = true
		trainPlans[p.P2] = true
	}
	for _, p := range test {
		if trainPlans[p.P1] || trainPlans[p.P2] {
			t.Fatal("test pair references a training plan")
		}
	}
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("both sides must be non-empty")
	}
}

func TestSplitQueryDisjointness(t *testing.T) {
	ds := collectSmall(t)
	c := &Corpus{Sets: []*Dataset{ds}}
	train, test := Split(c, SplitQuery, 0.6, 20, util.NewRNG(11))
	trainQ := map[string]bool{}
	for _, p := range train {
		trainQ[p.QueryName()] = true
	}
	for _, p := range test {
		if trainQ[p.QueryName()] {
			t.Fatalf("query %s appears in both sides", p.QueryName())
		}
	}
}

func TestHoldOutDatabase(t *testing.T) {
	w2 := workload.Customer("cust-x", 21, 1, 0.05)
	ds2, err := Collect(w2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ds1 := collectSmall(t)
	c := &Corpus{Sets: []*Dataset{ds1, ds2}}
	train, test := HoldOutDatabase(c, "cust-x", 20, util.NewRNG(12))
	for _, p := range train {
		if p.DB() == "cust-x" {
			t.Fatal("held-out data leaked into training")
		}
	}
	for _, p := range test {
		if p.DB() != "cust-x" {
			t.Fatal("test must only contain the held-out database")
		}
	}
	if c.Set("cust-x") != ds2 || c.Set("nope") != nil {
		t.Fatal("Corpus.Set lookup wrong")
	}
}

func TestLeakPlans(t *testing.T) {
	ds := collectSmall(t)
	leak, test := LeakPlans(ds, 2, 0, util.NewRNG(13))
	leaked := map[*ExecutedPlan]bool{}
	for _, p := range leak {
		leaked[p.P1] = true
		leaked[p.P2] = true
	}
	for _, p := range test {
		if leaked[p.P1] || leaked[p.P2] {
			t.Fatal("test pair references a leaked plan")
		}
	}
	// k=0 leaks nothing.
	leak0, _ := LeakPlans(ds, 0, 0, util.NewRNG(14))
	if len(leak0) != 0 {
		t.Fatal("k=0 must leak no pairs")
	}
}

func TestProductionModeDefaults(t *testing.T) {
	o := CollectOpts{ProductionMode: true, MaxConfigsPerQuery: 20}.withDefaults()
	if o.ExecRepeats != 1 {
		t.Fatal("production mode should execute once")
	}
	if o.MaxConfigsPerQuery > 8 {
		t.Fatal("production mode should cap configs")
	}
}

// TestSortPairsDeterministic checks that Pairs returns the same pairs in
// the same order for the same seed.
func TestSortPairsDeterministic(t *testing.T) {
	ds := collectSmall(t)
	a := ds.Pairs(20, util.NewRNG(15))
	b := ds.Pairs(20, util.NewRNG(15))
	if len(a) != len(b) {
		t.Fatal("pair generation not deterministic")
	}
	for i := range a {
		if a[i].P1 != b[i].P1 || a[i].P2 != b[i].P2 {
			t.Fatalf("pair order differs at %d", i)
		}
	}
}
