package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine/catalog"
	"repro/internal/engine/data"
	"repro/internal/util"
)

func TestReservoir(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	s := Reservoir(vals, util.NewRNG(1), 100)
	if len(s) != 100 {
		t.Fatalf("sample size %d", len(s))
	}
	small := Reservoir(vals[:10], util.NewRNG(1), 100)
	if len(small) != 10 {
		t.Fatalf("small input should be returned whole, got %d", len(small))
	}
	// Values come from the population.
	for _, v := range s {
		if v < 0 || v >= 1000 {
			t.Fatalf("sample value out of population: %d", v)
		}
	}
	// Roughly uniform: mean should be near 500.
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	if m := sum / 100; m < 350 || m > 650 {
		t.Fatalf("reservoir sample mean suspicious: %v", m)
	}
}

func TestHistogramUniformRangeEstimate(t *testing.T) {
	vals := make([]int64, 10000)
	rng := util.NewRNG(2)
	for i := range vals {
		vals[i] = rng.Int64Range(0, 999)
	}
	cs := BuildColumnStats("t", "c", vals, util.NewRNG(3), 1024, 32)
	// On uniform data the histogram should be accurate within ~20%.
	est := cs.Hist.EstimateRange(100, 199)
	if est < 600 || est > 1400 {
		t.Fatalf("range estimate on uniform data off: %v (true ~1000)", est)
	}
	full := cs.Hist.EstimateRange(0, 999)
	if math.Abs(full-10000) > 500 {
		t.Fatalf("full-range estimate: %v", full)
	}
	if cs.Hist.EstimateRange(5000, 6000) != 0 {
		t.Fatal("out-of-domain range should be 0")
	}
	if cs.Hist.EstimateRange(10, 5) != 0 {
		t.Fatal("inverted range should be 0")
	}
}

func TestHistogramEqEstimate(t *testing.T) {
	// 50% of rows are value 7 (heavy hitter), rest uniform over [100, 1099].
	vals := make([]int64, 8000)
	rng := util.NewRNG(4)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 7
		} else {
			vals[i] = rng.Int64Range(100, 1099)
		}
	}
	cs := BuildColumnStats("t", "c", vals, util.NewRNG(5), 1024, 32)
	hot := cs.Hist.EstimateEq(7)
	if hot < 1500 {
		t.Fatalf("heavy hitter estimate too low: %v (true 4000)", hot)
	}
	cold := cs.Hist.EstimateEq(500)
	if cold > hot/4 {
		t.Fatalf("cold value estimated %v vs hot %v", cold, hot)
	}
	if cs.Hist.EstimateEq(-5) != 0 || cs.Hist.EstimateEq(99999) != 0 {
		t.Fatal("out-of-domain eq should be 0")
	}
}

func TestHistogramEstimatesBoundedProperty(t *testing.T) {
	f := func(raw []int32, lo32, hi32 int32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		cs := BuildColumnStats("t", "c", vals, util.NewRNG(6), 256, 16)
		lo, hi := int64(lo32), int64(hi32)
		if lo > hi {
			lo, hi = hi, lo
		}
		est := cs.Hist.EstimateRange(lo, hi)
		return est >= 0 && est <= float64(len(vals))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramFullSampleExactOnSmallData(t *testing.T) {
	vals := []int64{1, 1, 2, 3, 3, 3, 10}
	cs := BuildColumnStats("t", "c", vals, util.NewRNG(7), 1024, 4)
	if got := cs.Hist.EstimateRange(1, 10); math.Abs(got-7) > 0.5 {
		t.Fatalf("full range on fully-sampled data: %v", got)
	}
	if got := cs.Hist.EstimateEq(3); got < 1 || got > 4 {
		t.Fatalf("eq estimate: %v (true 3)", got)
	}
}

func TestEstimateDistinct(t *testing.T) {
	// Unique column: sample all-distinct, expect scale-up toward row count.
	uniq := make([]int64, 512)
	for i := range uniq {
		uniq[i] = int64(i * 7)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	d := estimateDistinct(uniq, 100000)
	if d < 10000 {
		t.Fatalf("unique column distinct estimate too low: %v", d)
	}
	// Low-cardinality column: estimate should stay near true distinct.
	low := make([]int64, 512)
	for i := range low {
		low[i] = int64(i % 5)
	}
	sort.Slice(low, func(i, j int) bool { return low[i] < low[j] })
	d = estimateDistinct(low, 100000)
	if d < 5 || d > 20 {
		t.Fatalf("low-cardinality distinct estimate: %v (true 5)", d)
	}
	if estimateDistinct(nil, 100) != 0 {
		t.Fatal("empty sample should estimate 0")
	}
}

func buildTestDB(t *testing.T) *data.Database {
	t.Helper()
	s := catalog.NewSchema("db")
	meta := &catalog.Table{Name: "t1", Columns: []catalog.Column{
		{Name: "id", Type: catalog.TypeInt},
		{Name: "fk", Type: catalog.TypeInt},
		{Name: "v", Type: catalog.TypeInt},
	}}
	s.AddTable(meta)
	rng := util.NewRNG(8)
	tb := data.BuildTable(meta, rng, 5000, []data.ColumnSpec{
		{Name: "id", Gen: data.SequentialGen{}},
		{Name: "fk", Gen: data.UniformGen{Lo: 0, Hi: 99}},
		{Name: "v", Gen: data.ZipfGen{S: 1.2, N: 1000}},
	})
	db := data.NewDatabase(s)
	db.AddTable(tb)
	return db
}

func TestBuildDatabaseStats(t *testing.T) {
	db := buildTestDB(t)
	ds := BuildDatabaseStats(db, util.NewRNG(9), 512, 32)
	if ds.RowCount("t1") != 5000 {
		t.Fatalf("row count: %d", ds.RowCount("t1"))
	}
	if ds.RowCount("ghost") != 0 {
		t.Fatal("unknown table row count should be 0")
	}
	cs := ds.Column("t1", "fk")
	if cs == nil {
		t.Fatal("missing column stats")
	}
	if cs.Distinct < 50 || cs.Distinct > 200 {
		t.Fatalf("fk distinct estimate: %v (true 100)", cs.Distinct)
	}
	if ds.Column("t1", "ghost") != nil || ds.Column("ghost", "x") != nil {
		t.Fatal("unknown lookups should be nil")
	}
}

func TestSelectivities(t *testing.T) {
	db := buildTestDB(t)
	ds := BuildDatabaseStats(db, util.NewRNG(10), 512, 32)
	sel := ds.SelectivityEq("t1", "fk", 50)
	if sel < 0.001 || sel > 0.1 {
		t.Fatalf("eq selectivity on 100-distinct uniform column: %v (true 0.01)", sel)
	}
	r := ds.SelectivityRange("t1", "fk", 0, 49)
	if r < 0.3 || r > 0.7 {
		t.Fatalf("range selectivity: %v (true 0.5)", r)
	}
	if got := ds.SelectivityEq("ghost", "x", 1); got != 0.1 {
		t.Fatalf("default eq selectivity: %v", got)
	}
	if got := ds.SelectivityRange("ghost", "x", 1, 2); got != 0.3 {
		t.Fatalf("default range selectivity: %v", got)
	}
}

func TestJoinSelectivity(t *testing.T) {
	db := buildTestDB(t)
	ds := BuildDatabaseStats(db, util.NewRNG(11), 512, 32)
	// Self-join on fk: ndv ~100 -> selectivity ~1/100.
	sel := ds.JoinSelectivity("t1", "fk", "t1", "fk")
	if sel < 1.0/300 || sel > 1.0/30 {
		t.Fatalf("join selectivity: %v (want ~0.01)", sel)
	}
	// Missing stats falls back to a default.
	if s := ds.JoinSelectivity("ghost", "a", "ghost", "b"); s <= 0 || s > 1 {
		t.Fatalf("fallback join selectivity: %v", s)
	}
	// One side known.
	if s := ds.JoinSelectivity("t1", "fk", "ghost", "b"); s <= 0 || s > 1 {
		t.Fatalf("one-sided join selectivity: %v", s)
	}
}

func TestHistogramMinMax(t *testing.T) {
	vals := []int64{5, 1, 9, 3}
	cs := BuildColumnStats("t", "c", vals, util.NewRNG(12), 1024, 4)
	if cs.Hist.Min() != 1 || cs.Hist.Max() != 9 {
		t.Fatalf("min/max: %d %d", cs.Hist.Min(), cs.Hist.Max())
	}
	empty := BuildColumnStats("t", "c", nil, util.NewRNG(13), 8, 4)
	if empty.Hist.Min() != 0 || empty.Hist.Max() != 0 || len(empty.Hist.counts) != 0 {
		t.Fatal("empty histogram accessors")
	}
}
