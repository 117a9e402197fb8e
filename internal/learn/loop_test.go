package learn

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/server/registry"
)

// fakeSink is a slice-backed telemetry source with the sink contract: the
// snapshot's last record has ordinal total−1.
type fakeSink struct {
	mu   sync.Mutex
	recs []expdata.PlanRecord
}

func (f *fakeSink) add(recs ...expdata.PlanRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recs = append(f.recs, recs...)
}

func (f *fakeSink) snapshot() ([]expdata.PlanRecord, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]expdata.PlanRecord(nil), f.recs...), int64(len(f.recs))
}

// testLoopOptions are sized for the synthetic phases (20 records each): a
// window of exactly one phase, low pair floors, quick forests.
func testLoopOptions(seed int64) Options {
	return Options{
		Seed:             seed,
		Trees:            15,
		Window:           20,
		MinRecords:       10,
		MinTrainPairs:    8,
		MinEvalPairs:     4,
		RollbackMinPairs: 8,
		RecordThreshold:  8,
	}
}

// TestLoopPromoteMonitorRollback walks the full lifecycle: a first
// challenger promoted with no champion, a second promoted over it when the
// workload inverts, and a rollback to the first when live telemetry shows
// the second was a mistake.
func TestLoopPromoteMonitorRollback(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(7))
	defer loop.Stop()
	g := &gen{}
	ctx := context.Background()

	// Cycle 1: phase-A telemetry, no champion → promoted on the absolute
	// accuracy floor. No prior exists, so nothing is monitored.
	sink.add(phaseA(g, 4)...)
	rep, err := loop.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionPromoted {
		t.Fatalf("cycle 1 = %s (%s), want promoted", rep.Decision, rep.Reason)
	}
	if rep.ChallengerVersion != 1 || reg.Models.Active() == nil || reg.Models.Active().ID != 1 {
		t.Fatalf("cycle 1 should activate v1 (report %+v)", rep)
	}
	if st := loop.Status(); st.Monitoring != nil {
		t.Fatalf("promotion without a prior must not monitor, got %+v", st.Monitoring)
	}

	// Cycle 2: the workload inverts (phase B fills the window). The v1
	// champion is systematically wrong on the fresh pairs, so the
	// challenger wins the shadow evaluation and v2 is promoted — this time
	// with v1 pinned as the rollback target.
	sink.add(phaseB(g, 4)...)
	rep, err = loop.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionPromoted || rep.ChallengerVersion != 2 {
		t.Fatalf("cycle 2 = %s (%s), want v2 promoted", rep.Decision, rep.Reason)
	}
	if rep.Champion == nil || rep.Challenger == nil || rep.Challenger.Accuracy <= rep.Champion.Accuracy {
		t.Fatalf("cycle 2 shadow eval: champion %+v challenger %+v, want the challenger clearly ahead",
			rep.Champion, rep.Challenger)
	}
	st := loop.Status()
	if st.Monitoring == nil || st.Monitoring.PromotedVersion != 2 || st.Monitoring.PriorVersion != 1 {
		t.Fatalf("cycle 2 must monitor v2 with v1 as rollback target, got %+v", st.Monitoring)
	}
	if st.Monitoring.Watermark != 40 {
		t.Fatalf("watermark = %d, want 40 (records at promotion)", st.Monitoring.Watermark)
	}

	// Cycle 3a: no fresh telemetry yet — the loop must wait, not train a
	// new challenger on top of an unconfirmed promotion.
	rep, err = loop.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionMonitoring {
		t.Fatalf("cycle 3a = %s (%s), want monitoring (awaiting live pairs)", rep.Decision, rep.Reason)
	}

	// Cycle 3b: the workload reverts to phase-A behavior. v2's live
	// accuracy collapses versus its shadow accuracy → roll back to v1.
	sink.add(phaseA(g, 4)...)
	rep, err = loop.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionRolledBack {
		t.Fatalf("cycle 3b = %s (%s), want rolled_back", rep.Decision, rep.Reason)
	}
	if rep.Live == nil || rep.Live.Accuracy >= st.Monitoring.ShadowAccuracy {
		t.Fatalf("rollback must be driven by degraded live accuracy, got %+v", rep.Live)
	}
	if act := reg.Models.Active(); act == nil || act.ID != 1 {
		t.Fatalf("active after rollback = %v, want v1 restored", act)
	}
	final := loop.Status()
	if final.Promotions != 2 || final.Rollbacks != 1 || final.Monitoring != nil {
		t.Fatalf("final status = %+v, want 2 promotions, 1 rollback, no monitoring", final)
	}
}

// TestLoopRejectsBadChallenger drives the rejection path through the
// training seam: a deliberately mislabeled challenger must fail the shadow
// evaluation and never touch the registry.
func TestLoopRejectsBadChallenger(t *testing.T) {
	reg, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(7))
	defer loop.Stop()
	loop.trainFn = func(X [][]float64, y []int, seed int64) (*models.Classifier, error) {
		wrong := make([]int, len(y))
		for i := range y {
			wrong[i] = (y[i] + 1) % expdata.NumLabels
		}
		clf := models.NewClassifier(feat.Default(), models.RF(5, seed), expdata.DefaultAlpha)
		if err := clf.TrainVectors(X, wrong); err != nil {
			return nil, err
		}
		return clf, nil
	}
	g := &gen{}
	sink.add(phaseA(g, 4)...)
	rep, err := loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionRejected {
		t.Fatalf("decision = %s (%s), want the mislabeled challenger rejected", rep.Decision, rep.Reason)
	}
	if len(reg.Models.List()) != 0 || reg.Models.Active() != nil {
		t.Fatal("rejected challenger leaked into the registry")
	}
	if st := loop.Status(); st.Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", st.Rejections)
	}
}

// TestLoopSkipsThinTelemetry: below the record floor a cycle reports
// skipped without training.
func TestLoopSkipsThinTelemetry(t *testing.T) {
	reg, _ := registry.Open("")
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(7))
	defer loop.Stop()
	g := &gen{}
	sink.add(g.rec(0, 100, 100, 100), g.rec(0, 200, 200, 200))
	rep, err := loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionSkipped {
		t.Fatalf("decision = %s, want skipped on thin telemetry", rep.Decision)
	}
}

// TestDueTriggerOrder pins the ticker's trigger order and what each check
// reads: a pending monitor fires before the telemetry is read, then the
// record threshold, then a champion whose accuracy on fresh pairs falls
// below MinAccuracy.
func TestDueTriggerOrder(t *testing.T) {
	reg, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{}
	reads := 0
	source := func() ([]expdata.PlanRecord, int64) {
		reads++
		return sink.snapshot()
	}
	loop := NewLoop(reg, source, 0, testLoopOptions(7))
	defer loop.Stop()
	due := func() (string, int) {
		reads = 0
		return loop.dueTrigger(), reads
	}
	g := &gen{}
	ctx := context.Background()

	// v1 promoted on phase A, then v2 over it on phase B: v2 awaits its
	// live check.
	for i, phase := range [][]expdata.PlanRecord{phaseA(g, 4), phaseB(g, 4)} {
		sink.add(phase...)
		if rep, err := loop.RunCycle(ctx, "test"); err != nil || rep.Decision != DecisionPromoted {
			t.Fatalf("cycle %d: %v %+v, want promoted", i+1, err, rep)
		}
	}
	if trig, n := due(); trig != "monitor" || n != 0 {
		t.Fatalf("pending monitor: trigger %q after %d telemetry reads, want monitor after 0", trig, n)
	}

	// Phase A returns, so the live check rolls v2 back to v1. That clears
	// the monitor and both drift references, and nothing is new after it.
	sink.add(phaseA(g, 4)...)
	if rep, err := loop.RunCycle(ctx, "test"); err != nil || rep.Decision != DecisionRolledBack {
		t.Fatalf("cycle 3: %v %+v, want rolled_back", err, rep)
	}
	if trig, n := due(); trig != "" || n != 1 {
		t.Fatalf("no new records: trigger %q after %d reads, want none after 1", trig, n)
	}
	sink.add(phaseB(g, 4)[:loop.opts.RecordThreshold]...)
	if trig, n := due(); trig != "records" || n != 1 {
		t.Fatalf("record threshold reached: trigger %q after %d reads, want records after 1", trig, n)
	}

	// With the record trigger parked, a window of phase-B pairs leaves the
	// phase-A champion below MinAccuracy, and that floor alone decides.
	loop.opts.RecordThreshold = 1 << 20
	sink.add(phaseB(g, 4)...)
	if trig, n := due(); trig != "accuracy" || n != 1 {
		t.Fatalf("champion on phase B: trigger %q after %d reads, want accuracy after 1", trig, n)
	}
	recs, _ := sink.snapshot()
	set := Compact(recs, loop.f, loop.opts)
	acc := evalVectors(reg.Models.Active().Value, set.X, set.Y).Accuracy
	if acc >= loop.opts.MinAccuracy {
		t.Fatalf("champion accuracy %.3f, want below MinAccuracy %.2f", acc, loop.opts.MinAccuracy)
	}
	loop.opts.MinAccuracy = acc
	if trig, _ := due(); trig != "" {
		t.Fatalf("champion exactly at MinAccuracy fired %q", trig)
	}
}

// TestLoopSerializesCycles: TriggerAsync holds a single-flight slot.
func TestLoopSerializesCycles(t *testing.T) {
	reg, _ := registry.Open("")
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(7))
	defer loop.Stop()
	g := &gen{}
	sink.add(phaseA(g, 4)...)
	// Slow the cycle down via the training seam so the second trigger
	// reliably observes the first in flight.
	release := make(chan struct{})
	started := make(chan struct{})
	inner := loop.trainFn
	loop.trainFn = func(X [][]float64, y []int, seed int64) (*models.Classifier, error) {
		close(started)
		<-release
		return inner(X, y, seed)
	}
	if err := loop.TriggerAsync("first"); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := loop.TriggerAsync("second"); err != ErrCycleRunning {
		t.Fatalf("second trigger = %v, want ErrCycleRunning", err)
	}
	close(release)
	deadline := time.After(30 * time.Second)
	for loop.Status().State != "idle" {
		select {
		case <-deadline:
			t.Fatal("cycle never finished")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if st := loop.Status(); st.Cycles != 1 || st.Promotions != 1 {
		t.Fatalf("status = %+v, want exactly one completed cycle", st)
	}
}

// normalizeReport strips wall-clock fields so two runs can be compared
// structurally.
func normalizeReport(r *CycleReport) CycleReport {
	c := *r
	c.StartedAt, c.FinishedAt = time.Time{}, time.Time{}
	c.TrainSeconds, c.SnapshotSeconds, c.FeaturizeSeconds, c.EvalSeconds = 0, 0, 0, 0
	return c
}

// TestLoopDeterministic pins the promotion decisions: two loops fed the
// same telemetry under the same seed make byte-identical choices — the
// property the paper's offline/online parity argument rests on.
func TestLoopDeterministic(t *testing.T) {
	run := func() []CycleReport {
		reg, err := registry.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sink := &fakeSink{}
		loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(99))
		defer loop.Stop()
		g := &gen{}
		ctx := context.Background()
		var reports []CycleReport
		for _, phase := range [][]expdata.PlanRecord{phaseA(g, 4), phaseB(g, 4), phaseA(g, 4)} {
			sink.add(phase...)
			rep, err := loop.RunCycle(ctx, "test")
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, normalizeReport(rep))
		}
		return reports
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two identical runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	// The sequence itself must be the promote → promote → rollback arc.
	wantDecisions := []string{DecisionPromoted, DecisionPromoted, DecisionRolledBack}
	for i, rep := range first {
		if rep.Decision != wantDecisions[i] {
			t.Fatalf("cycle %d decision = %s (%s), want %s", i+1, rep.Decision, rep.Reason, wantDecisions[i])
		}
	}
}

// TestLoopTrainParallelismDeterministic runs the full loop lifecycle twice
// — serial and at parallelism 4 — and requires identical decisions and
// identical promoted model blobs: the training-parallelism knob must be
// invisible in every outcome.
func TestLoopTrainParallelismDeterministic(t *testing.T) {
	run := func(workers int) ([]CycleReport, []byte) {
		reg, err := registry.Open("")
		if err != nil {
			t.Fatal(err)
		}
		sink := &fakeSink{}
		o := testLoopOptions(7)
		o.TrainParallelism = workers
		loop := NewLoop(reg, sink.snapshot, 0, o)
		defer loop.Stop()
		g := &gen{}
		var reports []CycleReport
		for _, phase := range [][]expdata.PlanRecord{phaseA(g, 4), phaseB(g, 4)} {
			sink.add(phase...)
			rep, err := loop.RunCycle(context.Background(), "test")
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, normalizeReport(rep))
		}
		active := reg.Models.Active()
		if active == nil {
			t.Fatal("lifecycle should end with an active model")
		}
		var blob bytes.Buffer
		if err := models.SaveClassifier(active.Value, &blob); err != nil {
			t.Fatal(err)
		}
		return reports, blob.Bytes()
	}
	serialReps, serialBlob := run(1)
	parReps, parBlob := run(4)
	if !reflect.DeepEqual(serialReps, parReps) {
		t.Fatalf("parallel training changed loop decisions:\nserial:   %+v\nparallel: %+v", serialReps, parReps)
	}
	if !bytes.Equal(serialBlob, parBlob) {
		t.Fatalf("parallel training changed the promoted model blob (%d vs %d bytes)", len(serialBlob), len(parBlob))
	}
}

// TestRunOnce exercises the registry-free facade path.
func TestRunOnce(t *testing.T) {
	g := &gen{}
	recs := phaseA(g, 4)
	rep, clf, err := RunOnce(recs, nil, Options{Seed: 3, Trees: 15, MinTrainPairs: 8, MinEvalPairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionPromoted || clf == nil {
		t.Fatalf("RunOnce = %s (%s), clf=%v; want a promoted challenger", rep.Decision, rep.Reason, clf != nil)
	}
	// The promoted challenger, used as champion on the same data, should
	// now be hard to beat — the margin gate rejects a tied rematch.
	rep2, clf2, err := RunOnce(recs, clf, Options{Seed: 3, Trees: 15, MinTrainPairs: 8, MinEvalPairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Decision != DecisionRejected || clf2 != nil {
		t.Fatalf("rematch = %s (%s), want rejected (no margin over an identical champion)", rep2.Decision, rep2.Reason)
	}
}
