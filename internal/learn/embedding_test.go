package learn

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expdata"
	"repro/internal/server/registry"
)

// phaseShift emits templates×5 records whose plan shape (channel masses and
// estimates) moved an order of magnitude — the change a plan encoder sees,
// unlike phaseB's cost inversion which only the measured-cost z-score sees.
func phaseShift(g *gen, templates int) []expdata.PlanRecord {
	var out []expdata.PlanRecord
	for t := 0; t < templates; t++ {
		for _, m := range phaseMasses {
			out = append(out, g.rec(t, m*20, m*20, m*20))
		}
	}
	return out
}

// embedLoopOptions is testLoopOptions with the embedding detector switched
// on and the record trigger parked out of the way, so drift is the only
// trigger that can fire.
func embedLoopOptions(seed int64, mode string) Options {
	o := testLoopOptions(seed)
	o.DriftMode = mode
	o.RecordThreshold = 100000
	o.EmbedEpochs = 10
	return o
}

// TestDriftVerdictOrderIndependent pins the both-mode combination rule:
// the verdict is the OR of two independently evaluated detectors, so no
// evaluation order can change it, and each mode masks the other detector.
func TestDriftVerdictOrderIndependent(t *testing.T) {
	o := Options{DriftThreshold: 3.0, EmbedDriftThreshold: 0.10, DriftMode: DriftModeBoth}
	cases := []struct {
		z, d           float64
		zValid, dValid bool
		want           bool
		trigger        string
	}{
		{0.5, 0.01, true, true, false, ""},
		{5.0, 0.01, true, true, true, "drift"},
		{0.5, 0.50, true, true, true, "embed-drift"},
		{5.0, 0.50, true, true, true, "drift"}, // both fire: z named deterministically
		{5.0, 0.50, false, false, false, ""},   // neither detector has a reference
	}
	for i, c := range cases {
		fired, trigger := driftVerdict(o, c.z, c.zValid, c.d, c.dValid)
		if fired != c.want || trigger != c.trigger {
			t.Errorf("case %d: verdict = (%v, %q), want (%v, %q)", i, fired, trigger, c.want, c.trigger)
		}
		// The verdict must equal the OR of the single-detector verdicts —
		// the order-independence property, by construction.
		zOnly, _ := driftVerdict(o, c.z, c.zValid, 0, false)
		dOnly, _ := driftVerdict(o, 0, false, c.d, c.dValid)
		if fired != (zOnly || dOnly) {
			t.Errorf("case %d: both-mode verdict %v != OR of detector verdicts (%v, %v)", i, fired, zOnly, dOnly)
		}
	}
	// Mode masking: each pure mode ignores the other detector entirely.
	oz := o
	oz.DriftMode = DriftModeZ
	if fired, _ := driftVerdict(oz, 0.5, true, 0.50, true); fired {
		t.Error("z mode fired on embedding distance")
	}
	oe := o
	oe.DriftMode = DriftModeEmbed
	if fired, _ := driftVerdict(oe, 5.0, true, 0.01, true); fired {
		t.Error("embed mode fired on z score")
	}
}

// TestLoopEmbedDrift drives the embedding detector end to end: a promotion
// trains and versions an encoder and captures the reference embedding, a
// stationary continuation does not fire, and a plan-shape shift does.
func TestLoopEmbedDrift(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, embedLoopOptions(7, DriftModeEmbed))
	defer loop.Stop()
	ctx := context.Background()
	g := &gen{}

	// Promotion trains encoder v1 and captures the reference embedding.
	sink.add(phaseA(g, 4)...)
	rep, err := loop.RunCycle(ctx, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision != DecisionPromoted || rep.EncoderVersion != 1 {
		t.Fatalf("cycle 1 = %s (%s), encoder v%d; want promoted with encoder v1", rep.Decision, rep.Reason, rep.EncoderVersion)
	}
	if reg.Encoders.Active() == nil || reg.Encoders.Active().ID != 1 {
		t.Fatal("promotion did not activate an encoder")
	}
	st, err := loop.Embedding()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reference == nil || st.Embedding == nil || st.Distance > 1e-9 {
		t.Fatalf("embedding right after promotion: distance %v, want ~0 (status %+v)", st.Distance, st)
	}

	// Stationary continuation: same plan shapes, fresh fingerprints. No
	// trigger may fire.
	sink.add(phaseA(g, 4)...)
	if trig := loop.dueTrigger(); trig != "" {
		t.Fatalf("stationary continuation fired trigger %q", trig)
	}

	// Plan-shape shift: the window fills with 20× heavier plans. The
	// embedding detector must fire (z is masked in embed mode).
	sink.add(phaseShift(g, 4)...)
	if trig := loop.dueTrigger(); trig != "embed-drift" {
		t.Fatalf("shape shift fired trigger %q, want embed-drift", trig)
	}
	rep, err = loop.RunCycle(ctx, "embed-drift")
	if err != nil {
		t.Fatal(err)
	}
	if rep.EmbedDrift <= loop.opts.EmbedDriftThreshold {
		t.Fatalf("cycle report embed drift %v not above threshold %v", rep.EmbedDrift, loop.opts.EmbedDriftThreshold)
	}
}

// TestLoopEmbedDeterministicAcrossParallelism: the whole both-mode cycle
// sequence — including encoder training and embedding drift — is
// bit-identical at any TrainParallelism setting (encoder training is
// strictly serial; the forest is parallelism-invariant by construction).
func TestLoopEmbedDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) ([]CycleReport, *EmbeddingStatus) {
		reg, err := registry.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sink := &fakeSink{}
		o := embedLoopOptions(99, DriftModeBoth)
		o.TrainParallelism = parallel
		loop := NewLoop(reg, sink.snapshot, 0, o)
		defer loop.Stop()
		g := &gen{}
		ctx := context.Background()
		var reports []CycleReport
		for _, phase := range [][]expdata.PlanRecord{phaseA(g, 4), phaseShift(g, 4)} {
			sink.add(phase...)
			rep, err := loop.RunCycle(ctx, "test")
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, normalizeReport(rep))
		}
		st, err := loop.Embedding()
		if err != nil {
			t.Fatal(err)
		}
		return reports, st
	}
	rep1, st1 := run(1)
	rep8, st8 := run(8)
	if !reflect.DeepEqual(rep1, rep8) {
		t.Fatalf("serial and parallel runs diverged:\nserial:   %+v\nparallel: %+v", rep1, rep8)
	}
	if !reflect.DeepEqual(st1.Embedding.Vector, st8.Embedding.Vector) {
		t.Fatal("workload embeddings differ across parallelism settings")
	}
	if !reflect.DeepEqual(st1.Reference, st8.Reference) {
		t.Fatal("reference embeddings differ across parallelism settings")
	}
}

// TestZModeReportByteIdentical: in the default z mode no embedding field
// may leak into the wire format — the PR 9 report JSON is preserved byte
// for byte.
func TestZModeReportByteIdentical(t *testing.T) {
	reg, err := registry.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{}
	loop := NewLoop(reg, sink.snapshot, 0, testLoopOptions(7))
	defer loop.Stop()
	g := &gen{}
	sink.add(phaseA(g, 4)...)
	rep, err := loop.RunCycle(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"embed_drift", "encoder_version"} {
		if strings.Contains(string(data), field) {
			t.Fatalf("z-mode report leaked %q: %s", field, data)
		}
	}
	if loop.opts.DriftMode != DriftModeZ {
		t.Fatalf("default drift mode = %q, want z", loop.opts.DriftMode)
	}
	if _, err := loop.Embedding(); err != ErrNoEncoder {
		t.Fatalf("Embedding in z mode = %v, want ErrNoEncoder", err)
	}
}
