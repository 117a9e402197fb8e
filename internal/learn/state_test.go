package learn

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server/registry"
)

// TestLoopStateSpillRestore simulates an eviction between promotion and
// rollback: the monitoring window (rollback target, shadow accuracy,
// watermark) and both drift references must survive a spill/restore round
// trip, so the lifecycle completes exactly as it would have uninterrupted.
func TestLoopStateSpillRestore(t *testing.T) {
	dir := t.TempDir()
	modelDir := filepath.Join(dir, "models")
	statePath := filepath.Join(dir, "learn_state.json")
	ctx := context.Background()
	sink := &fakeSink{}
	g := &gen{}

	reg, err := registry.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	loop := NewLoop(reg, sink.snapshot, 0, embedLoopOptions(7, DriftModeBoth))

	// Promote v1 on phase A, then v2 on phase B — v2 is now monitored with
	// v1 as the rollback target.
	sink.add(phaseA(g, 4)...)
	if rep, err := loop.RunCycle(ctx, "test"); err != nil || rep.Decision != DecisionPromoted {
		t.Fatalf("cycle 1: %v %+v", err, rep)
	}
	sink.add(phaseB(g, 4)...)
	if rep, err := loop.RunCycle(ctx, "test"); err != nil || rep.Decision != DecisionPromoted {
		t.Fatalf("cycle 2: %v %+v", err, rep)
	}
	before := loop.Status()
	if before.Monitoring == nil || before.Monitoring.PromotedVersion != 2 {
		t.Fatalf("cycle 2 must leave v2 monitored, got %+v", before.Monitoring)
	}

	// Evict: spill, stop, drop the loop.
	if err := loop.SaveStateFile(statePath); err != nil {
		t.Fatal(err)
	}
	loop.Stop()

	// Reload: fresh registry handle, fresh loop, restored state.
	reg2, err := registry.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	loop2 := NewLoop(reg2, sink.snapshot, 0, embedLoopOptions(7, DriftModeBoth))
	defer loop2.Stop()
	if err := loop2.RestoreStateFile(statePath); err != nil {
		t.Fatal(err)
	}
	after := loop2.Status()
	if after.Cycles != before.Cycles || after.Promotions != before.Promotions {
		t.Fatalf("counters lost in spill: before %+v after %+v", before, after)
	}
	if after.Monitoring == nil || *after.Monitoring != *before.Monitoring {
		t.Fatalf("monitoring window lost in spill: before %+v after %+v", before.Monitoring, after.Monitoring)
	}

	// The restored loop completes the arc: phase A telemetry shows v2 was a
	// mistake → rollback to v1, exactly as an uninterrupted loop would.
	sink.add(phaseA(g, 4)...)
	rep, err := loop2.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionRolledBack {
		t.Fatalf("post-restore cycle = %s (%s), want rolled_back", rep.Decision, rep.Reason)
	}
	if act := reg2.Models.Active(); act == nil || act.ID != 1 {
		t.Fatalf("active after restored rollback = %+v, want v1", act)
	}
}

// TestRestoreStateFileMissingAndCorrupt: a missing spill file is a clean
// start; a corrupt one surfaces an error instead of silently resetting.
func TestRestoreStateFileMissingAndCorrupt(t *testing.T) {
	reg, _ := registry.Open("")
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(1))
	defer loop.Stop()
	if err := loop.RestoreStateFile(filepath.Join(t.TempDir(), "nope.json")); err != nil {
		t.Fatalf("missing state file must be a clean start, got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if err := loop.RestoreStateFile(bad); err == nil {
		t.Fatal("corrupt state file restored silently")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
