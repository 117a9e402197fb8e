package tuner

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/util"
	"repro/internal/workload"
)

const greedyGoldenPath = "testdata/greedy_golden.txt"

type namedCmp struct {
	name string
	cmp  models.Comparator
}

// greedySweep tunes every case of the golden sweep at one Parallelism, each
// workload on a fresh what-if cache. It returns one line per case — the new
// index IDs in recommendation order and the Float64bits of EstCost — and the
// case's gate-counter deltas (regression, improvement, unsure).
func greedySweep(t *testing.T, parallelism int, cmps []namedCmp) ([]string, [][3]int64) {
	t.Helper()
	type variant struct {
		name      string
		opts      Options
		replicate int // > 1 tunes that many renamed copies of each query
	}
	var variants []variant
	for k := 1; k <= 5; k++ {
		variants = append(variants, variant{fmt.Sprintf("max%d", k), Options{MaxNewIndexes: k}, 0})
	}
	variants = append(variants,
		variant{"per-table1", Options{MaxNewIndexes: 5, MaxIndexesPerTable: 1}, 0},
		variant{"colfrac0.1", Options{MaxNewIndexes: 8, MaxColumnFraction: 0.1}, 0},
		variant{"storage64k", Options{MaxNewIndexes: 5, StorageBudget: 64 << 10}, 0},
		variant{"compress-x3", Options{MaxNewIndexes: 4, Compress: true}, 3},
	)
	var lines []string
	var counts [][3]int64
	for _, w := range []*workload.Workload{
		workload.TPCH("greedy-tpch", 2000, 9),
		workload.Composite("greedy-composite", 3000, 13),
		workload.Customer("greedy-customer", 5, 3, 0.1),
	} {
		whatIf := opt.NewWhatIf(opt.New(w.Schema, stats.BuildDatabaseStats(w.DB, util.NewRNG(4), 512, 32)))
		for _, c := range cmps {
			for _, v := range variants {
				label := fmt.Sprintf("%s/%s/%s", w.Name, c.name, v.name)
				qs := w.Queries
				if v.replicate > 1 {
					qs = workload.Replicate(qs, v.replicate)
				}
				v.opts.Parallelism = parallelism
				before := gateCounts()
				rec, err := New(w.Schema, whatIf, c.cmp, v.opts).TuneWorkload(context.Background(), qs, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				after := gateCounts()
				ids := make([]string, len(rec.NewIndexes))
				for i, ix := range rec.NewIndexes {
					ids[i] = ix.ID()
				}
				lines = append(lines, fmt.Sprintf("%s cost=%#016x new=[%s]", label, math.Float64bits(rec.EstCost), strings.Join(ids, " ")))
				counts = append(counts, [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]})
			}
		}
	}
	return lines, counts
}

// gateCounts reads the gate-verdict counters (regression, improvement,
// unsure); obs must be enabled.
func gateCounts() [3]int64 {
	c := obs.TakeSnapshot().Counters
	return [3]int64{c["tuner.gate.regression"], c["tuner.gate.improvement"], c["tuner.gate.unsure"]}
}

// TestWorkloadGreedyGolden pins TuneWorkload's recommendations and their
// estimated-cost bits across seeded TPC-H, composite and customer
// workloads, every budget knob, compression, and three gates, against a
// digest recorded from the exhaustive greedy (every query re-planned for
// every pool candidate). The incremental greedy must reproduce it exactly,
// at Parallelism 1 and 4, with equal gate-verdict counters at both.
//
// To re-record after an intended recommendation change, delete the digest
// and run the test twice.
func TestWorkloadGreedyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes 81 workload cases twice")
	}
	// One seeded forest trained on TPC-H executions gates every workload:
	// featurization is workload-agnostic.
	ds, err := expdata.Collect(workload.TPCH("greedy-golden-train", 2000, 9),
		expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 4, ExecRepeats: 1, StatsSampleSize: 256, StatsBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	clf := models.NewClassifier(feat.Default(), models.RF(25, 7), expdata.DefaultAlpha)
	if err := clf.Train(ds.Pairs(20, util.NewRNG(5))); err != nil {
		t.Fatal(err)
	}
	cmps := []namedCmp{{"none", nil}, {"optimizer", models.NewOptimizerBaseline(expdata.DefaultAlpha)}, {"rf25", clf}}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	serial, serialCounts := greedySweep(t, 1, cmps)
	raw, err := os.ReadFile(greedyGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(greedyGoldenPath, []byte(strings.Join(serial, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s from the current TuneWorkload; run again to compare", greedyGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	par, parCounts := greedySweep(t, 4, cmps)
	for p, lines := range map[int][]string{1: serial, 4: par} {
		if len(lines) != len(want) {
			t.Fatalf("parallelism %d: %d cases, golden has %d", p, len(lines), len(want))
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Errorf("parallelism %d, case %d\n got: %s\nwant: %s", p, i, lines[i], want[i])
			}
		}
	}
	for i := range serialCounts {
		if serialCounts[i] != parCounts[i] {
			t.Errorf("%s: gate counters (regression, improvement, unsure) %v at parallelism 1, %v at 4",
				want[i], serialCounts[i], parCounts[i])
		}
	}
}
