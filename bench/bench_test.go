package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

// TestOpenLoopTimesFromDueTime stalls one request of a single-worker open
// loop: every request queued behind the stall is charged the wait, and the
// generator reports itself late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	ss := openLoop(1, start, 1000, 40, start.Add(time.Second), func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if got := ss[2].latencyMS(); got > 20 {
		t.Errorf("request before the stall: latency %.1fms, want well under the stall", got)
	}
	for _, i := range []int{6, 20, 39} {
		if got := ss[i].latencyMS(); got < 20 {
			t.Errorf("request %d behind the stall: latency %.1fms, want the queueing charged", i, got)
		}
		if got := ss[i].latenessMS(); got < 10 {
			t.Errorf("request %d behind the stall: lateness %.1fms, want the generator late", i, got)
		}
	}
	var late []float64
	for _, s := range ss {
		late = append(late, s.latenessMS())
	}
	if p99 := quantile(sortedCopy(late), 0.99); p99 < 20 {
		t.Errorf("lateness p99 = %.1fms, want the stall visible", p99)
	}
}

// TestOpenLoopCountsUnsentRequestsAsFailures: requests the stop time
// overtakes are failures, so they miss every latency limit.
func TestOpenLoopCountsUnsentRequestsAsFailures(t *testing.T) {
	start := time.Now()
	ss := openLoop(1, start, 1000, 50, start.Add(10*time.Millisecond), func(int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	unsent := 0
	for _, s := range ss {
		if errors.Is(s.err, errNotSent) {
			unsent++
			if s.latencyMS() != inf {
				t.Fatalf("unsent request latency %v, want +Inf", s.latencyMS())
			}
		}
	}
	if unsent == 0 {
		t.Fatal("no request was recorded as unsent")
	}
}

// TestCapacityLadderFindsKnownCapacity drives the ladder against a
// synthetic single-server handler that takes 1.3 ms per request, so its
// capacity is 1/1.3ms ≈ 769 req/s: below it every request waits only for
// its own service, above it the backlog grows for the whole step. The
// handler runs in virtual time, so the answer does not depend on the host.
func TestCapacityLadderFindsKnownCapacity(t *testing.T) {
	const service = 1300 * time.Microsecond
	capacity := float64(time.Second) / float64(service)
	stepDur := 1500 * time.Millisecond
	step := func(rate float64) []sample {
		t0 := time.Unix(0, 0)
		stop := t0.Add(stepDur + stepDur/10)
		ss := make([]sample, int(rate*stepDur.Seconds()))
		free := t0
		for i := range ss {
			s := &ss[i]
			s.due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if s.due.After(free) {
				free = s.due
			}
			if free.After(stop) {
				s.err = errNotSent
				continue
			}
			s.sent = free
			free = free.Add(service)
			s.done = free
		}
		return ss
	}
	got, steps := capacityLadder(100, 2, 9, step)
	if got > capacity || got < capacity/1.05 {
		t.Errorf("ladder found %.1f req/s, want within one 5%% step below %.1f (steps %+v)", got, capacity, steps)
	}
	if len(steps) > 9 {
		t.Errorf("ladder took %d steps, want at most 9", len(steps))
	}
	// A handler that cannot meet the limit at any rate the ladder tries.
	if got, _ := capacityLadder(100, 0.5, 4, step); got != 0 {
		t.Errorf("ladder found %.1f req/s under an unmeetable limit, want 0", got)
	}
}

// batchless hides a comparator's CompareBatch.
type batchless struct{ c models.Comparator }

func (b batchless) Compare(p1, p2 *plan.Plan) expdata.Label { return b.c.Compare(p1, p2) }

// TestTimedComparatorKeepsTheGatePath: the decorator forwards CompareBatch
// when the classifier has it, so a decorated tune takes the same gate path
// and tallies the same tuner.gate.* verdicts as an undecorated one.
func TestTimedComparatorKeepsTheGatePath(t *testing.T) {
	obs.SetEnabled(true)
	w := workload.TPCH("tpch10", 400, 7)
	data, err := expdata.Collect(w, expdata.CollectOpts{Seed: 1, MaxConfigsPerQuery: 6})
	if err != nil {
		t.Fatal(err)
	}
	clf := models.NewClassifier(feat.Default(), models.RF(10, 1), expdata.DefaultAlpha)
	if err := clf.Train(data.Pairs(20, util.NewRNG(1))); err != nil {
		t.Fatal(err)
	}
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(1), stats.DefaultSampleSize, stats.DefaultBuckets)
	tuneWith := func(cmp models.Comparator) (string, map[string]int64) {
		before := obs.TakeSnapshot()
		tn := tuner.New(w.Schema, opt.NewWhatIf(opt.New(w.Schema, ds)), cmp, tuner.Options{Parallelism: 1})
		rec, err := tn.TuneWorkload(context.Background(), w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := obsSince(before)
		counts := map[string]int64{}
		for _, v := range []string{"regression", "improvement", "unsure"} {
			counts[v] = int64(d.counter("tuner.gate." + v))
		}
		ids := ""
		for _, ix := range rec.NewIndexes {
			ids += ix.ID() + " "
		}
		return ids, counts
	}

	var gt gateTimer
	decorated := timeComparator(clf, &gt)
	if _, ok := decorated.(models.BatchComparator); !ok {
		t.Fatal("decorating a batching classifier dropped CompareBatch")
	}
	if _, ok := timeComparator(batchless{clf}, &gateTimer{}).(models.BatchComparator); ok {
		t.Fatal("decorating a comparator without CompareBatch added one")
	}
	wantRec, wantCounts := tuneWith(clf)
	gotRec, gotCounts := tuneWith(decorated)
	if gotRec != wantRec {
		t.Errorf("decorated recommendation %q, undecorated %q", gotRec, wantRec)
	}
	for v, n := range wantCounts {
		if gotCounts[v] != n {
			t.Errorf("tuner.gate.%s = %d decorated, %d undecorated", v, gotCounts[v], n)
		}
	}
	// The decorator sees every verdict the gate tallies, plus the ones the
	// tuner draws without tallying (improvement checks, verdicts past a
	// workload's first regression).
	var tallied int64
	for _, n := range wantCounts {
		tallied += n
	}
	if gt.calls.Load() == 0 || gt.pairs.Load() < tallied || gt.busyNS.Load() == 0 {
		t.Errorf("decorator counted %d calls over %d pairs in %dns; the gate tallied %d", gt.calls.Load(), gt.pairs.Load(), gt.busyNS.Load(), tallied)
	}
}

func TestParseIndexIDRoundTrips(t *testing.T) {
	w := servedDB(smokeScale)
	n := 0
	for _, q := range w.Queries {
		for _, ix := range candidates.Generate(q, w.Schema, candidates.Limits{}) {
			got, err := parseIndexID(w.Schema, ix.ID())
			if err != nil || got.ID() != ix.ID() || got.Kind != ix.Kind {
				t.Fatalf("parseIndexID(%q) = %v, %v", ix.ID(), got, err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no candidates to round-trip")
	}
	for _, bad := range []string{"nosuch/cs", "fact0", "fact0/bt()", "fact0/bt(nosuch)", "fact0/hash(f0_fk2)", "fact0/bt(f0_fk2)+f0_m0"} {
		if _, err := parseIndexID(w.Schema, bad); err == nil {
			t.Errorf("parseIndexID(%q) accepted a malformed index", bad)
		}
	}
}

// TestBenchmarkFileMatchesTheProgram keeps BENCHMARK.json and the metrics
// and workloads the program reports in step.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, file []metricDef, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: file lists %d metrics, program reports %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i] != prog[i] {
				t.Errorf("%s %d: file %+v, program %+v", kind, i, file[i], prog[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// TestSmoke runs every workload traced, on small databases with short
// phases: each must pass its output checks and report every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemon once per workload")
	}
	if code := cmdRun([]string{"-workload", "all", "-smoke", "-trace", "1"}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
}
