package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/tenant"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

// sharedWorkload caches the test database across tests (building data and
// statistics dominates test time).
var (
	workloadOnce sync.Once
	sharedW      *workload.Workload
)

func testWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	workloadOnce.Do(func() {
		sharedW = workload.TPCH("tpch-srv", 2000, 9)
	})
	return sharedW
}

// newTestServer assembles a Server over the shared workload. Each call gets
// its own what-if cache, executor, registry, and job pool.
func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	w := testWorkload(t)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), 512, 32)
	cfg := Config{
		Workload:  w,
		WhatIf:    opt.NewWhatIf(opt.New(w.Schema, ds)),
		Exec:      exec.New(w.DB),
		TunerOpts: tuner.Options{Parallelism: 2},
		Config:    tenant.Config{DefaultModelDir: t.TempDir()},
		Workers:   1,
		QueueSize: 4,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testModelBlob trains a tiny RF classifier on synthetic vectors and
// serializes it — a valid upload payload without a collection run.
func testModelBlob(t testing.TB, seed int64) []byte {
	t.Helper()
	clf := models.NewClassifier(feat.Default(), models.RF(5, seed), 0.2)
	const n, dim = 60, 6
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((i*7+j*13+int(seed))%19) / 19
		}
		X[i] = v
		y[i] = i % 3
	}
	if err := clf.TrainVectors(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.SaveClassifier(clf, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t testing.TB, method, url string, body io.Reader, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: non-JSON response (%d): %s", method, url, resp.StatusCode, data)
		}
	}
	return resp.StatusCode
}

// pollJob polls a job endpoint until the job is terminal.
func pollJob(t testing.TB, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never terminated", id)
	return JobStatus{}
}

// TestServeJobLifecycle is the end-to-end acceptance test: start the
// daemon, upload + activate a model, run the synchronous endpoints, submit
// a tune job and poll it to completion, cancel a second job mid-run, ingest
// telemetry, and shut down gracefully.
func TestServeJobLifecycle(t *testing.T) {
	s := newTestServer(t, nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Health before any state.
	var health map[string]any
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" || health["model"] != nil {
		t.Fatalf("healthz = %v", health)
	}

	// Classify without a model: 409 with a pointer to the fix.
	classifyBody := `{"query":"q6","indexes_b":[{"table":"lineitem","key":["l_shipdate"]}]}`
	var apiErr map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/classify", strings.NewReader(classifyBody), &apiErr); code != http.StatusConflict {
		t.Fatalf("classify without model: %d (%v)", code, apiErr)
	}

	// Upload + activate a model.
	var up map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/models", bytes.NewReader(testModelBlob(t, 1)), &up); code != http.StatusCreated {
		t.Fatalf("model upload: %d (%v)", code, up)
	}
	if up["version"] != float64(1) || up["activated"] != true {
		t.Fatalf("upload response = %v", up)
	}

	// A malformed upload must be rejected without disturbing the active model.
	if code := doJSON(t, http.MethodPost, base+"/v1/models", strings.NewReader("garbage"), &apiErr); code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload: %d", code)
	}

	// Classify now answers from the model.
	var cls classifyResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/classify", strings.NewReader(classifyBody), &cls); code != http.StatusOK {
		t.Fatalf("classify: %d", code)
	}
	if cls.ModelVersion != 1 || cls.Comparator != "model" {
		t.Fatalf("classify = %+v", cls)
	}
	switch cls.Verdict {
	case "improvement", "regression", "unsure":
	default:
		t.Fatalf("verdict = %q", cls.Verdict)
	}

	// Plan under a hypothetical index.
	var pl planResponse
	planBody := `{"query":"q6","indexes":[{"table":"lineitem","key":["l_shipdate"],"include":["l_discount","l_quantity","l_price"]}]}`
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(planBody), &pl); code != http.StatusOK {
		t.Fatalf("plan: %d", code)
	}
	if pl.EstCost <= 0 || pl.Plan == "" || len(pl.Indexes) != 1 {
		t.Fatalf("plan response = %+v", pl)
	}

	// Ad-hoc SQL and bad requests.
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(`{"sql":"SELECT COUNT(*) FROM lineitem"}`), &pl); code != http.StatusOK {
		t.Fatalf("ad-hoc plan: %d", code)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(`{"query":"nope"}`), &apiErr); code != http.StatusBadRequest {
		t.Fatalf("unknown query: %d", code)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(`{"query":"q6","indexes":[{"table":"lineitem"}]}`), &apiErr); code != http.StatusBadRequest {
		t.Fatalf("keyless btree: %d", code)
	}

	// Submit a small tune job and poll to completion.
	var sub JobStatus
	tuneBody := `{"queries":["q1","q6"],"max_new_indexes":2}`
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs/tune", strings.NewReader(tuneBody), &sub); code != http.StatusAccepted {
		t.Fatalf("tune submit: %d (%+v)", code, sub)
	}
	st := pollJob(t, base, sub.ID)
	if st.State != JobDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	res, ok := st.Result.(map[string]any)
	if !ok {
		t.Fatalf("result = %#v", st.Result)
	}
	if res["est_cost"].(float64) <= 0 || res["model_version"] != float64(1) {
		t.Fatalf("tune result = %v", res)
	}

	// A job with the per-table / column-fraction budgets and compression:
	// must complete and respect the tighter budgets.
	budgetBody := `{"max_indexes_per_table":1,"max_column_fraction":0.1,"compress":true}`
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs/tune", strings.NewReader(budgetBody), &sub); code != http.StatusAccepted {
		t.Fatalf("budgeted tune submit: %d (%+v)", code, sub)
	}
	st = pollJob(t, base, sub.ID)
	if st.State != JobDone {
		t.Fatalf("budgeted job finished %s: %s", st.State, st.Error)
	}
	if res, ok := st.Result.(map[string]any); ok {
		perTable := map[string]int{}
		if ixs, ok := res["new_indexes"].([]any); ok {
			for _, v := range ixs {
				id := v.(string)
				table := id[:strings.IndexByte(id, '/')]
				if perTable[table]++; perTable[table] > 1 {
					t.Fatalf("per-table budget violated in job result: %v", ixs)
				}
			}
		}
	}

	// Cancel a second job mid-run: the whole workload is slow enough that
	// the DELETE lands while the tuner is probing; context cancellation
	// must unwind it to "cancelled", not "failed".
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs/tune", strings.NewReader(`{}`), &sub); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	var cancelled JobStatus
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+sub.ID, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	st = pollJob(t, base, sub.ID)
	if st.State != JobCancelled {
		t.Fatalf("cancelled job state = %s (%s)", st.State, st.Error)
	}
	// Cancelling again conflicts.
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+sub.ID, nil, &apiErr); code != http.StatusConflict {
		t.Fatalf("double cancel: %d", code)
	}
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/job-999999", nil, &apiErr); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: %d", code)
	}

	// Telemetry ingest.
	telemetry := `{"db":"tpch-srv","query":"q6","cost":12.5,"est_total_cost":20,"channels":{}}
{"db":"tpch-srv","query":"q6","cost":9.5,"est_total_cost":11,"channels":{}}`
	var tel map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/telemetry", strings.NewReader(telemetry), &tel); code != http.StatusOK {
		t.Fatalf("telemetry: %d (%v)", code, tel)
	}
	if tel["accepted"] != float64(2) {
		t.Fatalf("telemetry response = %v", tel)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/telemetry", strings.NewReader("{broken"), &apiErr); code != http.StatusBadRequest {
		t.Fatalf("malformed telemetry: %d", code)
	}

	// Health reflects everything that happened.
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["model"] != float64(1) || health["telemetry"] != float64(2) {
		t.Fatalf("final healthz = %v", health)
	}

	// Graceful shutdown: port released, jobs drained.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}

// TestServeQueueBackpressure drives the bounded queue to 429.
func TestServeQueueBackpressure(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueSize = 1 })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr

	// Deterministically saturate the pool: one job blocks the only worker,
	// a second fills the one queue slot. (Real tune jobs finish too quickly
	// to hold the queue open reliably.) Both unblock on ctx cancellation,
	// which Shutdown's drain triggers.
	block := func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	first, err := s.jobs.submit(tenant.DefaultID, block)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker owns the first job, so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for first.status().State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := s.jobs.submit(tenant.DefaultID, block)
	if err != nil {
		t.Fatal(err)
	}
	// The HTTP layer must surface the full queue as 429.
	var apiErr map[string]any
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs/tune", strings.NewReader(`{}`), &apiErr); code != http.StatusTooManyRequests {
		t.Fatalf("submit to a full queue: %d, want 429", code)
	}
	// Free the pool so shutdown stays fast.
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+first.id, nil, nil)
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+second.id, nil, nil)
}

// TestServeJobSubmitAfterDrain: once the job table has drained, a tune
// submission answers 503, and the Shutdown that follows drains again.
func TestServeJobSubmitAfterDrain(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueSize = 1 })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if err := s.jobs.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var apiErr map[string]any
	code := doJSON(t, http.MethodPost, "http://"+addr+"/v1/jobs/tune", strings.NewReader(`{}`), &apiErr)
	if code != http.StatusServiceUnavailable || apiErr["error"] != "server: shutting down" {
		t.Fatalf("submit after drain: %d %v, want 503 server: shutting down", code, apiErr)
	}
}

// TestConcurrentSubmissionsAndHotSwap races job submissions and classify
// traffic against registry hot-swaps (run under -race in CI).
func TestConcurrentSubmissionsAndHotSwap(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 2; c.QueueSize = 64 })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + addr
	if code := doJSON(t, http.MethodPost, base+"/v1/models", bytes.NewReader(testModelBlob(t, 1)), nil); code != http.StatusCreated {
		t.Fatalf("initial upload: %d", code)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Hot-swapper: keeps replacing the active model.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(2); i <= 6; i++ {
			if code := doJSON(t, http.MethodPost, base+"/v1/models", bytes.NewReader(testModelBlob(t, i)), nil); code != http.StatusCreated {
				errCh <- fmt.Errorf("swap upload: %d", code)
			}
		}
	}()
	// Classifiers: every request must see a complete model.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := `{"query":"q6","indexes_b":[{"table":"lineitem","key":["l_shipdate"]}]}`
			for i := 0; i < 10; i++ {
				var cls classifyResponse
				if code := doJSON(t, http.MethodPost, base+"/v1/classify", strings.NewReader(body), &cls); code != http.StatusOK {
					errCh <- fmt.Errorf("classify: %d", code)
					return
				}
				if cls.ModelVersion < 1 || cls.ModelVersion > 6 {
					errCh <- fmt.Errorf("classify saw version %d", cls.ModelVersion)
					return
				}
			}
		}()
	}
	// Submitters: concurrent small tune jobs.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				var st JobStatus
				code := doJSON(t, http.MethodPost, base+"/v1/jobs/tune", strings.NewReader(`{"queries":["q6"],"max_new_indexes":1}`), &st)
				if code != http.StatusAccepted && code != http.StatusTooManyRequests {
					errCh <- fmt.Errorf("submit: %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
