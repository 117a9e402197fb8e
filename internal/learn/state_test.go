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

// lastCycleAtStateFile is a spill file written before the state lost its
// last_cycle_at field, by a loop left monitoring v2 after two promotions.
const lastCycleAtStateFile = `{
  "saved_at": "2026-10-18T04:38:10.042681033Z",
  "cycles": 2,
  "promotions": 2,
  "rejections": 0,
  "rollbacks": 0,
  "last_seen": 40,
  "last_cycle_at": "2026-10-18T04:38:10.042680138Z",
  "reference": {
    "count": 20,
    "mean": [5.861754181745539, 5.172561139885493, 6.077952615707362],
    "std": [0.8103086442614243, 0.8071836573311203, 0.6888122920071903]
  },
  "monitor": {
    "promoted_version": 2,
    "prior_version": 1,
    "shadow_accuracy": 0.9,
    "watermark": 40
  }
}`

// TestRestoreStateFileMissingAndCorrupt: a missing spill file is a clean
// start; a corrupt one surfaces an error instead of silently resetting;
// one that still carries last_cycle_at restores everything else.
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

	old := filepath.Join(t.TempDir(), "old.json")
	if err := writeFile(old, lastCycleAtStateFile); err != nil {
		t.Fatal(err)
	}
	if err := loop.RestoreStateFile(old); err != nil {
		t.Fatalf("state file with last_cycle_at: %v", err)
	}
	st := loop.ExportState()
	want := MonitorStatus{PromotedVersion: 2, PriorVersion: 1, ShadowAccuracy: 0.9, Watermark: 40}
	if st.Cycles != 2 || st.Promotions != 2 || st.LastSeen != 40 || st.Monitor == nil || *st.Monitor != want {
		t.Fatalf("restored state %+v, want 2 cycles, 2 promotions, 40 seen, monitor %+v", st, want)
	}
	if st.Reference == nil || st.Reference.Count != 20 || st.Reference.Mean[2] != 6.077952615707362 {
		t.Fatalf("restored drift reference %+v", st.Reference)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
