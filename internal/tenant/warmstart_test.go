package tenant

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expdata"
	"repro/internal/learn"
)

// telGen replays learn's synthetic telemetry shape: unique fingerprints,
// one-dimensional channel vectors whose mass tracks cost.
type telGen struct{ fp uint64 }

func (g *telGen) rec(tmpl int, mass, cost, est float64) expdata.PlanRecord {
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

var telMasses = []float64{100, 200, 400, 800, 820}

// telPhaseA: truthful costs (cost = est = mass) over templates×5 records.
func telPhaseA(g *telGen, templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	for t := 0; t < templates; t++ {
		for _, m := range telMasses {
			out = append(out, g.rec(t, m, m, m))
		}
	}
	return out
}

// telPhaseB: inverted costs (cost = 1000−mass) — a phase-A model is
// systematically wrong here, so a promoted challenger replaces it.
func telPhaseB(g *telGen, templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	for t := 0; t < templates; t++ {
		for _, m := range telMasses {
			out = append(out, g.rec(t, m, 1000-m, m))
		}
	}
	return out
}

// telPhaseShift: a 20× plan-shape shift — far from phase A in embedding
// space, so warm start must refuse the match.
func telPhaseShift(g *telGen, templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	for t := 0; t < templates; t++ {
		for _, m := range telMasses {
			out = append(out, g.rec(t, m*20, m*20, m*20))
		}
	}
	return out
}

// embedLearnOpts mirrors learn's test options with the embedding plane on
// and the record/schedule triggers parked, so cycles only run when a test
// calls RunCycle.
func embedLearnOpts(seed int64) learn.Options {
	return learn.Options{
		Seed:             seed,
		Trees:            15,
		Window:           20,
		MinRecords:       10,
		MinTrainPairs:    8,
		MinEvalPairs:     4,
		RollbackMinPairs: 8,
		RecordThreshold:  100000,
		DriftMode:        learn.DriftModeBoth,
		EmbedEpochs:      10,
	}
}

// writeTelemetryFile pre-seeds a tenant's on-disk telemetry partition, the
// state a never-materialized tenant with forwarded telemetry would have.
func writeTelemetryFile(t *testing.T, path string, recs []expdata.PlanRecord) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// promoteTenant runs one learn cycle over phase-A telemetry and requires a
// promotion — leaving a champion, an encoder, and a persisted workload
// embedding in the tenant's registry.
func promoteTenant(t *testing.T, m *Manager, id string, g *telGen) {
	t.Helper()
	tn, err := m.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(tn)
	if _, err := tn.Sink.Append(telPhaseA(g, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err := tn.Loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != learn.DecisionPromoted || rep.EncoderVersion == 0 {
		t.Fatalf("seeding cycle for %q = %s (%s), encoder v%d; want a promotion with an encoder",
			id, rep.Decision, rep.Reason, rep.EncoderVersion)
	}
}

// TestManagerWarmStart is the cross-tenant warm-start arc: a modelless
// tenant with thin phase-A telemetry materializes next to an established
// phase-A tenant and is seeded from it — champion, encoder, and provenance
// — then lives its own life: its first shadow evaluation scores the seeded
// champion far above the cold-start baseline (a cold tenant has no champion
// at all), and later promotions and rollbacks stay fully independent of the
// donor.
func TestManagerWarmStart(t *testing.T) {
	m := testManager(t, func(c *Config) { c.Learn = embedLearnOpts(7) })
	g := &telGen{}
	promoteTenant(t, m, "alpha", g)

	// beta has never materialized but has a thin forwarded telemetry window
	// with alpha's workload shape.
	gb := &telGen{}
	writeTelemetryFile(t, filepath.Join(m.cfg.TenantsDir, "beta", "telemetry.jsonl"), telPhaseA(gb, 2))

	b, err := m.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(b)
	if b.Reg.Models.Active() == nil {
		t.Fatal("warm start did not seed a champion")
	}
	if b.Reg.Encoders.Active() == nil {
		t.Fatal("warm start did not adopt the donor's encoder")
	}
	prov, err := b.Reg.LoadProvenance()
	if err != nil || prov == nil {
		t.Fatalf("warm-start provenance missing: %+v, %v", prov, err)
	}
	if prov.SeededFrom != "alpha" || prov.SourceVersion != 1 || prov.Similarity < DefaultWarmStartFloor {
		t.Fatalf("provenance = %+v, want seeded from alpha v1 above floor %v", prov, DefaultWarmStartFloor)
	}

	// First shadow evaluation: the seeded champion scores like the model it
	// is — a phase-A expert — where a cold tenant would have no champion to
	// evaluate at all (accuracy 0 by definition).
	if _, err := b.Sink.Append(telPhaseA(gb, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Champion == nil {
		t.Fatalf("first cycle after warm start had no champion to evaluate: %+v", rep)
	}
	if rep.Champion.Accuracy <= 0.5 {
		t.Fatalf("seeded champion shadow accuracy = %v, want > 0.5 (beats the cold-start baseline)",
			rep.Champion.Accuracy)
	}

	// Independence: beta promotes its own challenger when its workload
	// inverts, then rolls back on fresh evidence — entirely inside its own
	// registry.
	if _, err := b.Sink.Append(telPhaseB(gb, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err = b.Loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != learn.DecisionPromoted {
		t.Fatalf("beta phase-B cycle = %s (%s), want promoted", rep.Decision, rep.Reason)
	}
	promoted := rep.ChallengerVersion
	if _, err := b.Sink.Append(telPhaseA(gb, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err = b.Loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != learn.DecisionRolledBack {
		t.Fatalf("beta rollback cycle = %s (%s), want rolled_back", rep.Decision, rep.Reason)
	}
	if act := b.Reg.Models.Active(); act == nil || act.ID == promoted {
		t.Fatalf("beta still serving the rolled-back version: %+v", act)
	}

	// The donor is untouched by everything beta did.
	a, err := m.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(a)
	if act := a.Reg.Models.Active(); act == nil || act.ID != 1 {
		t.Fatalf("donor registry changed under warm start: %+v", act)
	}
}

// TestManagerWarmStartRespectsFloor: a workload far from every sibling in
// embedding space stays cold — no borrowed champion, no provenance.
func TestManagerWarmStartRespectsFloor(t *testing.T) {
	m := testManager(t, func(c *Config) { c.Learn = embedLearnOpts(7) })
	g := &telGen{}
	promoteTenant(t, m, "alpha", g)

	gb := &telGen{}
	writeTelemetryFile(t, filepath.Join(m.cfg.TenantsDir, "ceta", "telemetry.jsonl"), telPhaseShift(gb, 2))
	c, err := m.Acquire("ceta")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(c)
	if c.Reg.Models.Active() != nil {
		t.Fatal("dissimilar workload was warm-started anyway")
	}
	prov, err := c.Reg.LoadProvenance()
	if err != nil || prov != nil {
		t.Fatalf("unexpected provenance on cold tenant: %+v, %v", prov, err)
	}
}

// TestManagerWarmStartDisabled: a negative floor switches the feature off.
func TestManagerWarmStartDisabled(t *testing.T) {
	m := testManager(t, func(c *Config) {
		c.Learn = embedLearnOpts(7)
		c.WarmStartFloor = -1
	})
	g := &telGen{}
	promoteTenant(t, m, "alpha", g)
	gb := &telGen{}
	writeTelemetryFile(t, filepath.Join(m.cfg.TenantsDir, "beta", "telemetry.jsonl"), telPhaseA(gb, 2))
	b, err := m.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(b)
	if b.Reg.Models.Active() != nil {
		t.Fatal("warm start ran with a negative floor")
	}
}

// TestManagerEvictionSpillsLearnState: eviction spills the loop's drift
// references, counters, and promotion monitor; the reloaded tenant resumes
// mid-lifecycle and completes the rollback an uninterrupted loop would
// have performed.
func TestManagerEvictionSpillsLearnState(t *testing.T) {
	m := testManager(t, func(c *Config) {
		c.Learn = embedLearnOpts(7)
		c.MaxActiveTenants = 1
		c.WarmStartFloor = -1 // isolate the spill path
	})
	ctx := context.Background()
	g := &telGen{}

	a, err := m.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Sink.Append(telPhaseA(g, 4)); err != nil {
		t.Fatal(err)
	}
	if rep, err := a.Loop.RunCycle(ctx, "test"); err != nil || rep.Decision != learn.DecisionPromoted {
		t.Fatalf("cycle 1: %v %+v", err, rep)
	}
	if _, err := a.Sink.Append(telPhaseB(g, 4)); err != nil {
		t.Fatal(err)
	}
	if rep, err := a.Loop.RunCycle(ctx, "test"); err != nil || rep.Decision != learn.DecisionPromoted {
		t.Fatalf("cycle 2: %v %+v", err, rep)
	}
	before := a.Loop.Status()
	if before.Monitoring == nil || before.Monitoring.PromotedVersion != 2 {
		t.Fatalf("cycle 2 must leave v2 monitored, got %+v", before.Monitoring)
	}
	m.Release(a)

	// Materializing a second tenant evicts alpha; finalize spills its state.
	b, err := m.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b)

	// Re-acquire waits out the in-flight finalization, then restores.
	a2, err := m.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(a2)
	if _, err := os.Stat(filepath.Join(m.cfg.TenantsDir, "alpha", "learn_state.json")); err != nil {
		t.Fatalf("spill file missing after eviction: %v", err)
	}
	after := a2.Loop.Status()
	if after.Cycles != before.Cycles || after.Promotions != before.Promotions {
		t.Fatalf("counters lost in eviction: before %+v after %+v", before, after)
	}
	if after.Monitoring == nil || *after.Monitoring != *before.Monitoring {
		t.Fatalf("monitoring window lost in eviction: before %+v after %+v",
			before.Monitoring, after.Monitoring)
	}

	// The restored loop completes the arc: phase-A telemetry shows v2 was a
	// mistake → rollback to v1.
	if _, err := a2.Sink.Append(telPhaseA(g, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err := a2.Loop.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != learn.DecisionRolledBack {
		t.Fatalf("post-restore cycle = %s (%s), want rolled_back", rep.Decision, rep.Reason)
	}
	if act := a2.Reg.Models.Active(); act == nil || act.ID != 1 {
		t.Fatalf("active after restored rollback = %+v, want v1", act)
	}
}
