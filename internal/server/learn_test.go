package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/expdata"
	"repro/internal/learn"
)

// learnTelemetryJSONL renders synthetic telemetry as a /v1/telemetry body:
// templates×5 plan records per template whose measured cost tracks the
// channel mass (invert flips the relationship, making an earlier model
// stale). fpBase keeps fingerprints unique across payloads.
func learnTelemetryJSONL(t testing.TB, templates int, fpBase uint64, invert bool) string {
	t.Helper()
	var sb strings.Builder
	fp := fpBase
	for tm := 0; tm < templates; tm++ {
		for _, mass := range []float64{100, 200, 400, 800, 820} {
			fp++
			cost := mass
			if invert {
				cost = 1000 - mass
			}
			rec := expdata.PlanRecord{
				DB:           "db",
				Query:        fmt.Sprintf("q%02d", tm),
				TemplateHash: uint64(1000 + tm),
				Fingerprint:  fp,
				Cost:         cost,
				EstTotalCost: mass,
				Channels: map[string][]float64{
					"EstNodeCost":                   {mass},
					"LeafWeightEstBytesWeightedSum": {mass / 2},
				},
			}
			line, err := json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// pollLearnIdle polls /v1/learn/status until the loop has completed at
// least wantCycles cycles and is idle.
func pollLearnIdle(t testing.TB, base string, wantCycles int) learn.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st learn.Status
		if code := doJSON(t, http.MethodGet, base+"/v1/learn/status", nil, &st); code != http.StatusOK {
			t.Fatalf("GET /v1/learn/status: %d", code)
		}
		if st.Cycles >= wantCycles && st.State == "idle" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("learning cycle never finished")
	return learn.Status{}
}

// TestServeLearnRoundTrip is the serving-side acceptance test for the
// online loop: ingest telemetry over HTTP, trigger a cycle, watch a
// challenger get trained and promoted, make the workload drift, and watch
// a second promotion supersede the first — all through the public API.
func TestServeLearnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.DefaultTelemetryPath = filepath.Join(dir, "telemetry.jsonl")
		c.RegistryKeep = 2
		c.Learn = learn.Options{
			Seed:             11,
			Trees:            15,
			Window:           20,
			MinRecords:       10,
			MinTrainPairs:    8,
			MinEvalPairs:     4,
			RollbackMinPairs: 8,
		}
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// Before any telemetry: status is idle and empty, and a trigger on thin
	// data completes as a skip rather than failing.
	st := pollLearnIdle(t, base, 0)
	if st.Cycles != 0 || st.ActiveModel != 0 {
		t.Fatalf("fresh status = %+v, want no cycles and no model", st)
	}

	// Round trip 1: ingest → trigger → challenger promoted as v1.
	var tel map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/telemetry",
		strings.NewReader(learnTelemetryJSONL(t, 4, 0, false)), &tel); code != http.StatusOK {
		t.Fatalf("telemetry ingest: %d (%v)", code, tel)
	}
	var trig map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/learn/trigger", nil, &trig); code != http.StatusAccepted {
		t.Fatalf("trigger: %d (%v)", code, trig)
	}
	st = pollLearnIdle(t, base, 1)
	if st.Promotions != 1 || st.ActiveModel != 1 {
		t.Fatalf("after cycle 1: %+v, want v1 promoted and active", st)
	}
	if st.LastCycle == nil || st.LastCycle.Decision != learn.DecisionPromoted {
		t.Fatalf("last cycle = %+v, want a promotion report", st.LastCycle)
	}
	if st.LastCycle.Challenger == nil || st.LastCycle.Challenger.Accuracy < 0.55 {
		t.Fatalf("challenger report = %+v, want shadow accuracy above the floor", st.LastCycle.Challenger)
	}

	// The promoted model serves immediately: classify with comparator
	// "model" now answers instead of 409ing.
	var cls classifyResponse
	body := `{"query":"q6","indexes_b":[{"table":"lineitem","key":["l_shipdate"]}]}`
	if code := doJSON(t, http.MethodPost, base+"/v1/classify", strings.NewReader(body), &cls); code != http.StatusOK {
		t.Fatalf("classify with the promoted model: %d", code)
	}
	if cls.ModelVersion != 1 {
		t.Fatalf("classify used model v%d, want the promoted v1", cls.ModelVersion)
	}

	// Round trip 2: the workload inverts; the fresh window makes the v1
	// champion stale and a new challenger wins the shadow evaluation.
	if code := doJSON(t, http.MethodPost, base+"/v1/telemetry",
		strings.NewReader(learnTelemetryJSONL(t, 4, 1000, true)), &tel); code != http.StatusOK {
		t.Fatalf("telemetry ingest 2: %d", code)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/learn/trigger",
		strings.NewReader(`{"reason":"drift-suspected"}`), &trig); code != http.StatusAccepted {
		t.Fatalf("trigger 2: %d", code)
	}
	st = pollLearnIdle(t, base, 2)
	if st.Promotions != 2 || st.ActiveModel != 2 {
		t.Fatalf("after cycle 2: %+v, want v2 promoted and active", st)
	}
	if st.LastCycle.Trigger != "drift-suspected" {
		t.Fatalf("trigger label = %q, want the caller's reason", st.LastCycle.Trigger)
	}
	// A promotion over a real prior is monitored, with v1 as the target.
	if st.Monitoring == nil || st.Monitoring.PriorVersion != 1 || st.Monitoring.PromotedVersion != 2 {
		t.Fatalf("monitoring = %+v, want v2 watched with v1 as rollback target", st.Monitoring)
	}

	// Model lifecycle endpoints see the loop's promotions.
	var ml struct {
		Versions []json.RawMessage `json:"versions"`
		Active   int               `json:"active"`
	}
	if code := doJSON(t, http.MethodGet, base+"/v1/models", nil, &ml); code != http.StatusOK {
		t.Fatalf("model list: %d", code)
	}
	if ml.Active != 2 {
		t.Fatalf("active model = %d, want the promoted v2", ml.Active)
	}
}

// TestServeLearnEmbedding drives the workload-embedding surface: 409 before
// any encoder exists, then — after a promotion in an embedding drift mode —
// a finite unit-norm embedding with the encoder version and a near-zero
// drift distance against the just-captured reference.
func TestServeLearnEmbedding(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Learn = learn.Options{
			Seed:             11,
			Trees:            15,
			Window:           20,
			MinRecords:       10,
			MinTrainPairs:    8,
			MinEvalPairs:     4,
			RollbackMinPairs: 8,
			DriftMode:        learn.DriftModeBoth,
			EmbedEpochs:      10,
		}
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	var errResp apiError
	if code := doJSON(t, http.MethodGet, base+"/v1/learn/embedding", nil, &errResp); code != http.StatusConflict {
		t.Fatalf("embedding before any encoder: %d, want 409", code)
	}

	var tel, trig map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/telemetry",
		strings.NewReader(learnTelemetryJSONL(t, 4, 0, false)), &tel); code != http.StatusOK {
		t.Fatalf("telemetry ingest: %d", code)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/learn/trigger", nil, &trig); code != http.StatusAccepted {
		t.Fatalf("trigger: %d", code)
	}
	st := pollLearnIdle(t, base, 1)
	if st.Promotions != 1 {
		t.Fatalf("after cycle 1: %+v, want a promotion", st)
	}

	var emb struct {
		Tenant         string  `json:"tenant"`
		DriftMode      string  `json:"drift_mode"`
		EncoderVersion int     `json:"encoder_version"`
		Distance       float64 `json:"distance"`
		Embedding      *struct {
			Dim    int       `json:"dim"`
			Vector []float64 `json:"vector"`
		} `json:"embedding"`
	}
	if code := doJSON(t, http.MethodGet, base+"/v1/learn/embedding", nil, &emb); code != http.StatusOK {
		t.Fatalf("embedding after promotion: %d", code)
	}
	if emb.Tenant != "default" || emb.DriftMode != learn.DriftModeBoth || emb.EncoderVersion != 1 {
		t.Fatalf("embedding response = %+v, want default tenant, both mode, encoder v1", emb)
	}
	if emb.Embedding == nil || emb.Embedding.Dim <= 0 || len(emb.Embedding.Vector) != emb.Embedding.Dim {
		t.Fatalf("embedding vector malformed: %+v", emb.Embedding)
	}
	var norm float64
	for _, v := range emb.Embedding.Vector {
		norm += v * v
	}
	if norm == 0 || norm != norm || emb.Distance > 1e-6 {
		t.Fatalf("embedding norm² = %v, distance = %v; want unit norm and ~0 drift", norm, emb.Distance)
	}
}
