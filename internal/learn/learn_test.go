package learn

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/engine/plan"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/util"
	"repro/internal/workload"
)

func newTestRNG(t *testing.T) *util.RNG {
	t.Helper()
	return util.NewRNG(42).Split("test")
}

// gen builds synthetic telemetry with unique plan fingerprints. Records
// carry one-dimensional channel vectors (exercising the zero-padding path)
// whose mass correlates with cost however the phase dictates.
type gen struct{ fp uint64 }

// rec emits one record for template tmpl with the given channel mass,
// measured cost, and estimated cost.
func (g *gen) rec(tmpl int, mass, cost, est float64) expdata.PlanRecord {
	g.fp++
	return expdata.PlanRecord{
		DB:           "db",
		Query:        fmt.Sprintf("q%02d", tmpl),
		TemplateHash: uint64(1000 + tmpl),
		Fingerprint:  g.fp,
		Cost:         cost,
		EstTotalCost: est,
		Channels: map[string][]float64{
			"EstNodeCost":                   {mass},
			"LeafWeightEstBytesWeightedSum": {mass / 2},
		},
	}
}

// phaseMasses spread within a template wide enough to produce all three
// labels under α=0.2 (800 vs 820 is "unsure"; everything else separates).
var phaseMasses = []float64{100, 200, 400, 800, 820}

// phaseA emits templates×5 records where measured cost equals the mass —
// the optimizer estimate (also mass) is truthful.
func phaseA(g *gen, templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	for t := 0; t < templates; t++ {
		for _, m := range phaseMasses {
			out = append(out, g.rec(t, m, m, m))
		}
	}
	return out
}

// phaseB emits the same estimates but inverted measured costs (cost =
// 1000 − mass): the world changed under the optimizer, so a phase-A model
// is systematically wrong on phase-B pairs.
func phaseB(g *gen, templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	for t := 0; t < templates; t++ {
		for _, m := range phaseMasses {
			out = append(out, g.rec(t, m, 1000-m, m))
		}
	}
	return out
}

// checkAccounting asserts the compaction identity: every input record is
// used, skipped, deduplicated, or windowed — nothing vanishes.
func checkAccounting(t *testing.T, st CompactStats) {
	t.Helper()
	if got := st.SkippedCost + st.SkippedChannels + st.Deduped + st.Windowed + st.Used; got != st.Total {
		t.Fatalf("compaction accounting broken: used+skipped+deduped+windowed=%d, total=%d (%+v)", got, st.Total, st)
	}
}

func TestCompactPairsAndLabels(t *testing.T) {
	g := &gen{}
	recs := []expdata.PlanRecord{
		g.rec(0, 100, 100, 100),
		g.rec(0, 200, 200, 200),
	}
	set := Compact(recs, feat.Default(), Options{})
	checkAccounting(t, set.Stats)
	if set.Stats.Used != 2 || set.Stats.Pairs != 2 || set.Stats.Templates != 1 {
		t.Fatalf("stats = %+v, want 2 used, 2 pairs, 1 template", set.Stats)
	}
	// Ordered pairs: (100→200) regresses, (200→100) improves.
	if set.Y[0] != int(expdata.Regression) || set.Y[1] != int(expdata.Improvement) {
		t.Fatalf("labels = %v, want [regression improvement]", set.Y)
	}
	if set.Stats.Padded != 2 {
		t.Fatalf("padded = %d, want 2 (1-dim channels padded to plan.NumKeys)", set.Stats.Padded)
	}
	wantDim := feat.Default().PairDim()
	for _, x := range set.X {
		if len(x) != wantDim {
			t.Fatalf("pair vector dim %d, want %d", len(x), wantDim)
		}
	}
}

func TestCompactSkipsHostileRecords(t *testing.T) {
	g := &gen{}
	nan := g.rec(0, 100, 100, 100)
	nan.Cost = math.NaN()
	neg := g.rec(0, 100, 100, 100)
	neg.EstTotalCost = -5
	missing := g.rec(0, 100, 100, 100)
	delete(missing.Channels, "EstNodeCost")
	oversized := g.rec(0, 100, 100, 100)
	oversized.Channels["EstNodeCost"] = make([]float64, plan.NumKeys+1)
	inf := g.rec(0, 100, 100, 100)
	inf.Channels["EstNodeCost"] = []float64{math.Inf(1)}
	good1 := g.rec(0, 100, 100, 100)
	good2 := g.rec(0, 200, 200, 200)

	set := Compact([]expdata.PlanRecord{nan, neg, missing, oversized, inf, good1, good2}, feat.Default(), Options{})
	checkAccounting(t, set.Stats)
	if set.Stats.SkippedCost != 2 {
		t.Fatalf("skipped_cost = %d, want 2", set.Stats.SkippedCost)
	}
	if set.Stats.SkippedChannels != 3 {
		t.Fatalf("skipped_channels = %d, want 3", set.Stats.SkippedChannels)
	}
	if set.Stats.Used != 2 || set.Stats.Pairs != 2 {
		t.Fatalf("stats = %+v, want the 2 good records paired", set.Stats)
	}
}

func TestCompactDedupKeepsFreshest(t *testing.T) {
	g := &gen{}
	a := g.rec(0, 100, 100, 100)
	b := g.rec(0, 200, 200, 200)
	remeasured := a
	remeasured.Cost = 130 // same fingerprint, fresher measurement
	set := Compact([]expdata.PlanRecord{a, b, remeasured}, feat.Default(), Options{})
	checkAccounting(t, set.Stats)
	if set.Stats.Deduped != 1 || set.Stats.Used != 2 {
		t.Fatalf("stats = %+v, want 1 deduped, 2 used", set.Stats)
	}
	// The surviving record for fingerprint a must carry the fresh cost.
	found := false
	for _, cr := range set.Records {
		if cr.rec.Fingerprint == a.Fingerprint {
			found = true
			if cr.rec.Cost != 130 {
				t.Fatalf("deduped record cost = %v, want the fresher 130", cr.rec.Cost)
			}
		}
	}
	if !found {
		t.Fatal("deduplicated fingerprint missing from the compacted set")
	}
}

func TestCompactContentDedupWithoutFingerprint(t *testing.T) {
	g := &gen{}
	a := g.rec(0, 100, 100, 100)
	a.Fingerprint = 0
	dup := a // byte-identical, still no fingerprint
	set := Compact([]expdata.PlanRecord{a, dup}, feat.Default(), Options{})
	checkAccounting(t, set.Stats)
	if set.Stats.Deduped != 1 || set.Stats.Used != 1 {
		t.Fatalf("stats = %+v, want content-hash dedup to collapse the copies", set.Stats)
	}
}

func TestCompactWindowKeepsNewest(t *testing.T) {
	g := &gen{}
	old := g.rec(0, 100, 100, 100)
	mid := g.rec(0, 200, 200, 200)
	fresh := g.rec(0, 400, 400, 400)
	set := Compact([]expdata.PlanRecord{old, mid, fresh}, feat.Default(), Options{Window: 2})
	checkAccounting(t, set.Stats)
	if set.Stats.Windowed != 1 || set.Stats.Used != 2 {
		t.Fatalf("stats = %+v, want the oldest record windowed out", set.Stats)
	}
	for _, cr := range set.Records {
		if cr.rec.Fingerprint == old.Fingerprint {
			t.Fatal("oldest record survived a window of 2")
		}
	}
}

func TestCompactCapsPairsPerTemplate(t *testing.T) {
	g := &gen{}
	recs := phaseA(g, 1) // 5 records → 20 ordered pairs uncapped
	set := Compact(recs, feat.Default(), Options{MaxPairsPerTemplate: 6})
	if set.Stats.Pairs != 6 {
		t.Fatalf("pairs = %d, want the 6-pair cap", set.Stats.Pairs)
	}
}

// exportedTelemetry collects execution data for w and round-trips it
// through the telemetry wire format, as a database emits it.
func exportedTelemetry(t *testing.T, w *workload.Workload, f *feat.Featurizer) (*expdata.Dataset, []expdata.PlanRecord) {
	t.Helper()
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 6, ExecRepeats: 2, StatsSampleSize: 256, StatsBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := expdata.ExportTelemetry(&buf, ds, f.Channels); err != nil {
		t.Fatal(err)
	}
	recs, err := expdata.ImportTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ds, recs
}

// TestCompactMatchesDirectFeaturization: pairing exported telemetry yields,
// bit for bit, the vectors and labels of featurizing the plan pairs
// themselves, in the same per-query order.
func TestCompactMatchesDirectFeaturization(t *testing.T) {
	f := feat.Default()
	ds, recs := exportedTelemetry(t, workload.TPCH("tpch-small", 1200, 5), f)
	set := Compact(recs, f, Options{Window: -1, MaxPairsPerTemplate: math.MaxInt})
	checkAccounting(t, set.Stats)
	if set.Stats.Used != len(recs) || set.Stats.Padded != 0 {
		t.Fatalf("stats = %+v, want every well-formed record used as it is", set.Stats)
	}
	if len(set.X) != len(set.Y) || len(set.X) != len(set.Groups) {
		t.Fatal("output lengths disagree")
	}
	direct := ds.Pairs(0, util.NewRNG(1))
	if len(direct) != len(set.X) {
		t.Fatalf("pair counts differ: telemetry %d vs direct %d", len(set.X), len(direct))
	}
	type pk struct{ a, b uint64 }
	directVec := map[pk][]float64{}
	directLabel := map[pk]expdata.Label{}
	for _, p := range direct {
		k := pk{p.P1.Plan.Fingerprint(), p.P2.Plan.Fingerprint()}
		directVec[k] = f.Pair(p.P1.Plan, p.P2.Plan)
		directLabel[k] = p.Label(expdata.DefaultAlpha)
	}
	// Re-walk the records in Compact's emission order: queries in first-seen
	// order, then every ordered pair of the query's records.
	byQuery := map[string][]expdata.PlanRecord{}
	var queryOrder []string
	for _, r := range recs {
		if _, ok := byQuery[r.Query]; !ok {
			queryOrder = append(queryOrder, r.Query)
		}
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	i := 0
	for _, qn := range queryOrder {
		plans := byQuery[qn]
		for a := range plans {
			for b := range plans {
				if a == b {
					continue
				}
				k := pk{plans[a].Fingerprint, plans[b].Fingerprint}
				want := directVec[k]
				if want == nil {
					t.Fatalf("missing direct pair for %s", qn)
				}
				if len(set.X[i]) != len(want) {
					t.Fatalf("pair %d of %s has %d attributes, want %d", i, qn, len(set.X[i]), len(want))
				}
				for j := range want {
					if math.Float64bits(set.X[i][j]) != math.Float64bits(want[j]) {
						t.Fatalf("pair vector differs at %s attr %d", qn, j)
					}
				}
				if set.Y[i] != int(directLabel[k]) {
					t.Fatalf("label differs at %s", qn)
				}
				if set.Groups[i] != plans[a].TemplateHash {
					t.Fatalf("pair %d of %s grouped under %d, want its template %d", i, qn, set.Groups[i], plans[a].TemplateHash)
				}
				i++
			}
		}
	}
	if i == 0 {
		t.Fatal("nothing compared")
	}
}

// TestTemplateGroupSharedWithEmbed pins one template-group rule: a record
// without a TemplateHash groups its pairs in Compact and its sample in
// embed.RecordSamples under the same value, an FNV-1a hash of (db, 0x00,
// query).
func TestTemplateGroupSharedWithEmbed(t *testing.T) {
	recs := phaseA(&gen{}, 2)
	for i := range recs {
		recs[i].TemplateHash = 0
	}
	group := func(r *expdata.PlanRecord) uint64 {
		h := fnv.New64a()
		h.Write([]byte(r.DB + "\x00" + r.Query))
		return h.Sum64()
	}
	want := []uint64{group(&recs[0]), group(&recs[len(recs)-1])}
	if want[0] == want[1] {
		t.Fatal("fixture's two queries share a group")
	}
	f := feat.Default()
	if got := Compact(recs, f, Options{}).templateOrder(); !slices.Equal(got, want) {
		t.Fatalf("Compact's pair groups %v, want %v", got, want)
	}
	samples := embed.RecordSamples(recs, f.Channels)
	if len(samples) != len(recs) {
		t.Fatalf("%d samples of %d records", len(samples), len(recs))
	}
	for i, s := range samples {
		if w := group(&recs[i]); s.Template != w {
			t.Fatalf("sample %d (%s) grouped under %d, want %d", i, recs[i].Query, s.Template, w)
		}
	}
}

// TestTelemetryTrainableEndToEnd: telemetry records alone yield enough
// labeled pairs, of more than one class, to train on — the §2.3
// cross-database pipeline.
func TestTelemetryTrainableEndToEnd(t *testing.T) {
	_, recs := exportedTelemetry(t, workload.Customer("tele-db", 77, 1, 0.05), feat.Default())
	set := Compact(recs, feat.Default(), Options{Window: -1, MaxPairsPerTemplate: 40})
	if len(set.X) < 50 {
		t.Fatalf("too few telemetry pairs: %d", len(set.X))
	}
	classes := map[int]bool{}
	for _, c := range set.Y {
		classes[c] = true
	}
	if len(classes) < 2 {
		t.Fatal("telemetry labels degenerate")
	}
}

func TestSplitByTemplateNeverStraddles(t *testing.T) {
	g := &gen{}
	set := Compact(phaseA(g, 4), feat.Default(), Options{})
	rng := newTestRNG(t)
	trainIdx, evalIdx, err := splitByTemplate(set, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trainIdx) == 0 || len(evalIdx) == 0 {
		t.Fatalf("degenerate split: train=%d eval=%d", len(trainIdx), len(evalIdx))
	}
	trainGroups := map[uint64]bool{}
	for _, i := range trainIdx {
		trainGroups[set.Groups[i]] = true
	}
	for _, i := range evalIdx {
		if trainGroups[set.Groups[i]] {
			t.Fatalf("template %d straddles the train/eval boundary", set.Groups[i])
		}
	}
}

func TestSplitByTemplateRejectsSingleGroup(t *testing.T) {
	g := &gen{}
	set := Compact(phaseA(g, 1), feat.Default(), Options{})
	if _, _, err := splitByTemplate(set, 0.3, newTestRNG(t)); err == nil {
		t.Fatal("single-template split must fail rather than leak pairs across the boundary")
	}
}

func TestDriftScoreDetectsShift(t *testing.T) {
	g := &gen{}
	f := feat.Default()
	setA1 := Compact(phaseA(g, 4), f, Options{})
	setA2 := Compact(phaseA(g, 4), f, Options{})
	setB := Compact(phaseB(g, 4), f, Options{})
	refA := Summarize(setA1, len(f.Channels))
	same := DriftScore(refA, Summarize(setA2, len(f.Channels)))
	shifted := DriftScore(refA, Summarize(setB, len(f.Channels)))
	if same > 0.5 {
		t.Fatalf("identical distributions scored drift %.3f, want ~0", same)
	}
	if shifted <= same {
		t.Fatalf("cost-shifted window scored %.3f, not above the identical window's %.3f", shifted, same)
	}
	if DriftScore(nil, refA) != 0 || DriftScore(refA, nil) != 0 {
		t.Fatal("nil summaries must score 0 (no reference, no drift signal)")
	}
}
