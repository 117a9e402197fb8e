package learn

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/race"
	"repro/internal/server/registry"
)

// TestTrainSetMatchesCompact pins that the arena path is a pure
// optimization: compacting through a TrainSet yields exactly the labeled
// set the allocating path yields.
func TestTrainSetMatchesCompact(t *testing.T) {
	g := &gen{}
	recs := append(phaseA(g, 3), phaseB(g, 2)...)
	f := feat.Default()
	o := Options{Window: 30}

	plain := Compact(recs, f, o)
	ts := NewTrainSet()
	arena := compactInto(recs, f, o, ts)

	if arena.Reused {
		t.Fatal("first cycle through a fresh arena cannot be a reuse")
	}
	if !reflect.DeepEqual(arena.Stats, plain.Stats) {
		t.Fatalf("stats diverged: arena %+v plain %+v", arena.Stats, plain.Stats)
	}
	if !reflect.DeepEqual(arena.Y, plain.Y) || !reflect.DeepEqual(arena.Groups, plain.Groups) {
		t.Fatal("labels or groups diverged between arena and plain compaction")
	}
	if len(arena.X) != len(plain.X) {
		t.Fatalf("pair counts diverged: %d vs %d", len(arena.X), len(plain.X))
	}
	for i := range arena.X {
		if !reflect.DeepEqual(arena.X[i], plain.X[i]) {
			t.Fatalf("pair vector %d diverged", i)
		}
	}
}

// TestTrainSetReuseAndInvalidation walks the fingerprint's contract: an
// unchanged pair sequence is served from cache, a label-only change (the
// measured cost feeds Y, not X) still reuses, and a feature-bearing change
// (estimated cost, channel mass) rebuilds.
func TestTrainSetReuseAndInvalidation(t *testing.T) {
	g := &gen{}
	recs := phaseA(g, 3)
	f := feat.Default()
	o := Options{}
	ts := NewTrainSet()

	first := compactInto(recs, f, o, ts)
	if first.Reused || len(first.X) == 0 {
		t.Fatalf("first cycle: reused=%v pairs=%d, want a fresh build with pairs", first.Reused, len(first.X))
	}

	second := compactInto(recs, f, o, ts)
	if !second.Reused {
		t.Fatal("identical telemetry must hit the reuse path")
	}
	if &second.X[0][0] != &first.X[0][0] {
		t.Fatal("reuse must serve the same backing slab, not a copy")
	}

	// Measured cost changes relabel pairs but leave the vectors alone.
	relabeled := append([]expdata.PlanRecord(nil), recs...)
	relabeled[0].Cost *= 3
	third := compactInto(relabeled, f, o, ts)
	if !third.Reused {
		t.Fatal("a label-only change must not invalidate the featurization cache")
	}
	if reflect.DeepEqual(third.Y, second.Y) {
		t.Fatal("the relabeled cycle should carry different labels")
	}

	// Estimated cost reaches the pair vectors → rebuild.
	shifted := append([]expdata.PlanRecord(nil), recs...)
	shifted[0].EstTotalCost *= 2
	fourth := compactInto(shifted, f, o, ts)
	if fourth.Reused {
		t.Fatal("a feature-bearing change must invalidate the cache")
	}
	want := Compact(shifted, f, o)
	for i := range fourth.X {
		if !reflect.DeepEqual(fourth.X[i], want.X[i]) {
			t.Fatalf("rebuilt pair vector %d does not match a fresh compaction", i)
		}
	}

	// And a subsequent unchanged cycle reuses the rebuilt slab again.
	if fifth := compactInto(shifted, f, o, ts); !fifth.Reused {
		t.Fatal("the cycle after a rebuild must reuse again")
	}
}

// TestTrainSetAllocFreeReuse enforces the arena's budget: re-materializing
// an unchanged pair sequence performs zero allocations — fingerprinting
// runs on inlined FNV state and the rows are served back as-is.
func TestTrainSetAllocFreeReuse(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := &gen{}
	set := Compact(phaseA(g, 3), feat.Default(), Options{})
	if len(set.Records) == 0 || len(set.X) == 0 {
		t.Fatal("fixture produced no pairs")
	}
	live := set.Records
	var pairs []pairRef
	for i := 0; i+1 < len(live); i += 2 {
		pairs = append(pairs, pairRef{a: int32(i), b: int32(i + 1)})
	}
	f := feat.Default()
	ts := NewTrainSet()
	var warm LabeledSet
	if ts.materialize(&warm, f, live, pairs) {
		t.Fatal("first materialize cannot reuse")
	}
	allocs := testing.AllocsPerRun(100, func() {
		var s LabeledSet
		if !ts.materialize(&s, f, live, pairs) {
			t.Fatal("expected the reuse path")
		}
	})
	if allocs != 0 {
		t.Fatalf("reuse path allocates %.1f times per run, budget is 0", allocs)
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
