package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/learn"
	"repro/internal/tenant"
)

// doReq performs a request with optional headers and returns the response
// plus its full body, for header and byte-level assertions. When out is
// non-nil the body is also decoded as JSON.
func doReq(t testing.TB, method, url string, hdr map[string]string, body io.Reader, out any) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: non-JSON response (%d): %s", method, url, resp.StatusCode, data)
		}
	}
	return resp, data
}

// testLearnOptions is the fast learn sizing shared by the isolation tests;
// identical options (and seed) across servers and tenants make promoted
// models comparable byte for byte.
func testLearnOptions() learn.Options {
	return learn.Options{
		Seed:             11,
		Trees:            15,
		Window:           20,
		MinRecords:       10,
		MinTrainPairs:    8,
		MinEvalPairs:     4,
		RollbackMinPairs: 8,
	}
}

// pollTenantLearnIdle polls a tenant's learn status via the path prefix.
func pollTenantLearnIdle(t testing.TB, base, tenantID string, wantCycles int) learn.Status {
	t.Helper()
	url := base + "/v1/t/" + tenantID + "/learn/status"
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st learn.Status
		if resp, _ := doReq(t, http.MethodGet, url, nil, nil, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		if st.Cycles >= wantCycles && st.State == "idle" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("tenant %s learning cycle never finished", tenantID)
	return learn.Status{}
}

// TestServeTenantRoutingAndEnvelope pins tenant resolution (path prefix
// beats header beats default), ID validation at the edge, the X-Request-ID
// contract, and the JSON error envelope on paths that would otherwise
// write plain text (mux 404/405).
func TestServeTenantRoutingAndEnvelope(t *testing.T) {
	s := newTestServer(t, nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr

	// Default tenant without any tenant signal.
	var health map[string]any
	doReq(t, http.MethodGet, base+"/healthz", nil, nil, &health)
	if health["tenant"] != tenant.DefaultID {
		t.Fatalf("healthz tenant = %v, want default", health["tenant"])
	}

	// Path-prefix routing rewrites to the canonical route.
	var ml map[string]any
	resp, _ := doReq(t, http.MethodGet, base+"/v1/t/acme/models", nil, nil, &ml)
	if resp.StatusCode != http.StatusOK || ml["tenant"] != "acme" {
		t.Fatalf("path-prefix routing: %d %v", resp.StatusCode, ml)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response missing X-Request-ID")
	}

	// Header routing.
	ml = nil
	doReq(t, http.MethodGet, base+"/v1/models", map[string]string{"X-Tenant": "beta"}, nil, &ml)
	if ml["tenant"] != "beta" {
		t.Fatalf("header routing: %v", ml)
	}

	// Path prefix wins over a conflicting header.
	ml = nil
	doReq(t, http.MethodGet, base+"/v1/t/acme/models", map[string]string{"X-Tenant": "beta"}, nil, &ml)
	if ml["tenant"] != "acme" {
		t.Fatalf("path prefix should beat header: %v", ml)
	}

	// A client-supplied request ID is honoured.
	resp, _ = doReq(t, http.MethodGet, base+"/healthz", map[string]string{"X-Request-ID": "client-abc"}, nil, nil)
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc" {
		t.Fatalf("X-Request-ID = %q, want client-abc", got)
	}

	// Hostile tenant IDs are rejected at the edge with the JSON envelope,
	// before any state materializes.
	for _, hdr := range []string{"../evil", "a/b", "UPPER", strings.Repeat("x", 65)} {
		var apiErr struct {
			Error string `json:"error"`
		}
		resp, _ := doReq(t, http.MethodGet, base+"/v1/models", map[string]string{"X-Tenant": hdr}, nil, &apiErr)
		if resp.StatusCode != http.StatusBadRequest || apiErr.Error == "" {
			t.Fatalf("X-Tenant %q: %d %+v, want 400 JSON", hdr, resp.StatusCode, apiErr)
		}
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if resp, _ := doReq(t, http.MethodGet, base+"/v1/t/Bad.Tenant/models", nil, nil, &apiErr); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad path tenant: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, base+"/v1/t/acme", nil, nil, &apiErr); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("truncated tenant path: %d", resp.StatusCode)
	}

	// The mux's plain-text 404/405 arrive as the JSON envelope.
	apiErr.Error = ""
	if resp, _ := doReq(t, http.MethodGet, base+"/no/such/route", nil, nil, &apiErr); resp.StatusCode != http.StatusNotFound || apiErr.Error == "" {
		t.Fatalf("404 envelope: %d %+v", resp.StatusCode, apiErr)
	}
	apiErr.Error = ""
	if resp, _ := doReq(t, http.MethodPost, base+"/healthz", nil, strings.NewReader("{}"), &apiErr); resp.StatusCode != http.StatusMethodNotAllowed || apiErr.Error == "" {
		t.Fatalf("405 envelope: %d %+v", resp.StatusCode, apiErr)
	}

	// The per-tenant serving-plane metrics are in the inventory.
	_, metrics := doReq(t, http.MethodGet, base+"/metrics", nil, nil, nil)
	for _, name := range []string{
		"server.tenant.active", "server.tenant.evictions",
		"server.admission.rejected", "server.jobs.queue.depth",
	} {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// TestServeTenantIsolation is the acceptance test for the serving plane's
// core promise: tenants learn only from their own traffic. Two tenants
// ingest different telemetry and promote independently; the model tenant A
// promotes inside the multi-tenant server is byte-identical to the model a
// single-tenant server promotes from the same traffic; and the default
// tenant never sees either.
func TestServeTenantIsolation(t *testing.T) {
	tenantsDir := t.TempDir()
	multi := newTestServer(t, func(c *Config) {
		c.TenantsDir = tenantsDir
		c.Learn = testLearnOptions()
	})
	multiAddr, err := multi.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Shutdown(context.Background())
	multiBase := "http://" + multiAddr

	singleDir := t.TempDir()
	single := newTestServer(t, func(c *Config) {
		c.DefaultModelDir = singleDir
		c.Learn = testLearnOptions()
	})
	singleAddr, err := single.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown(context.Background())
	singleBase := "http://" + singleAddr

	// Tenant acme and the single-tenant server get identical traffic;
	// tenant beta gets traffic with the cost relationship inverted.
	trafficA := learnTelemetryJSONL(t, 4, 0, false)
	trafficB := learnTelemetryJSONL(t, 4, 0, true)

	ingest := func(base, tenantID, payload string) {
		t.Helper()
		var out map[string]any
		hdr := map[string]string{}
		if tenantID != "" {
			hdr["X-Tenant"] = tenantID
		}
		if resp, _ := doReq(t, http.MethodPost, base+"/v1/telemetry", hdr, strings.NewReader(payload), &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s/%s: %d %v", base, tenantID, resp.StatusCode, out)
		}
	}
	trigger := func(base, tenantID string) {
		t.Helper()
		hdr := map[string]string{}
		if tenantID != "" {
			hdr["X-Tenant"] = tenantID
		}
		if resp, _ := doReq(t, http.MethodPost, base+"/v1/learn/trigger", hdr, nil, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("trigger %s/%s: %d", base, tenantID, resp.StatusCode)
		}
	}

	ingest(multiBase, "acme", trafficA)
	ingest(multiBase, "beta", trafficB)
	ingest(singleBase, "", trafficA)

	trigger(multiBase, "acme")
	trigger(multiBase, "beta")
	trigger(singleBase, "")

	stA := pollTenantLearnIdle(t, multiBase, "acme", 1)
	stB := pollTenantLearnIdle(t, multiBase, "beta", 1)
	stS := pollLearnIdle(t, singleBase, 1)
	if stA.Promotions != 1 || stA.ActiveModel != 1 {
		t.Fatalf("acme status = %+v, want one promotion of v1", stA)
	}
	if stB.Promotions != 1 || stB.ActiveModel != 1 {
		t.Fatalf("beta status = %+v, want one promotion of v1", stB)
	}
	if stS.Promotions != 1 || stS.ActiveModel != 1 {
		t.Fatalf("single-tenant status = %+v, want one promotion of v1", stS)
	}
	// Each tenant saw only its own records.
	if stA.RecordsSeen != 20 || stB.RecordsSeen != 20 {
		t.Fatalf("records seen acme=%d beta=%d, want 20 each", stA.RecordsSeen, stB.RecordsSeen)
	}

	// The default tenant in the multi-tenant server never saw traffic and
	// never promoted: single-tenant clients observe the pre-tenant server.
	var health map[string]any
	doReq(t, http.MethodGet, multiBase+"/healthz", nil, nil, &health)
	if health["model"] != nil || health["telemetry"] != float64(0) {
		t.Fatalf("default tenant contaminated: %v", health)
	}

	// Byte-level isolation proof: acme's promoted model is identical to
	// the single-tenant promotion from the same traffic, and differs from
	// beta's (different traffic → different model).
	acmeBlob, err := os.ReadFile(filepath.Join(tenantsDir, "acme", "models", "v0001.clf"))
	if err != nil {
		t.Fatal(err)
	}
	betaBlob, err := os.ReadFile(filepath.Join(tenantsDir, "beta", "models", "v0001.clf"))
	if err != nil {
		t.Fatal(err)
	}
	singleBlob, err := os.ReadFile(filepath.Join(singleDir, "v0001.clf"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(acmeBlob, singleBlob) {
		t.Fatal("acme's promoted model differs from the single-tenant promotion on identical traffic")
	}
	if bytes.Equal(acmeBlob, betaBlob) {
		t.Fatal("acme and beta promoted identical models from different traffic")
	}

	// And the serving behaviour matches: the classify response for tenant
	// acme is byte-identical to the single-tenant server's.
	classifyBody := `{"query":"q6","indexes_b":[{"table":"lineitem","key":["l_shipdate"]}]}`
	respA, bodyA := doReq(t, http.MethodPost, multiBase+"/v1/t/acme/classify", nil, strings.NewReader(classifyBody), nil)
	respS, bodyS := doReq(t, http.MethodPost, singleBase+"/v1/classify", nil, strings.NewReader(classifyBody), nil)
	if respA.StatusCode != http.StatusOK || respS.StatusCode != http.StatusOK {
		t.Fatalf("classify: acme %d, single %d", respA.StatusCode, respS.StatusCode)
	}
	if !bytes.Equal(bodyA, bodyS) {
		t.Fatalf("classify diverged:\nacme:   %s\nsingle: %s", bodyA, bodyS)
	}
}

// TestServeTenantAdmission pins per-tenant rate limiting: a saturated
// tenant gets 429 + Retry-After while its neighbour and the ops endpoints
// stay unaffected.
func TestServeTenantAdmission(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Rate = 0.5 // slow refill so the test never races a token
		c.Burst = 2
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr
	acme := map[string]string{"X-Tenant": "acme"}
	beta := map[string]string{"X-Tenant": "beta"}

	// Burst of 2 passes, the third is rejected with Retry-After.
	for i := 0; i < 2; i++ {
		if resp, _ := doReq(t, http.MethodGet, base+"/v1/models", acme, nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("acme burst request %d: %d", i, resp.StatusCode)
		}
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	resp, _ := doReq(t, http.MethodGet, base+"/v1/models", acme, nil, &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || apiErr.Error == "" {
		t.Fatalf("429 missing Retry-After or JSON envelope: %v / %+v", resp.Header, apiErr)
	}

	// The neighbour tenant has its own bucket.
	for i := 0; i < 2; i++ {
		if resp, _ := doReq(t, http.MethodGet, base+"/v1/models", beta, nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("beta request %d rejected: %d", i, resp.StatusCode)
		}
	}

	// Ops endpoints stay reachable for the saturated tenant.
	if resp, _ := doReq(t, http.MethodGet, base+"/healthz", acme, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz gated by admission: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, base+"/metrics", acme, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics gated by admission: %d", resp.StatusCode)
	}
}

// TestServeTenantFairness pins the tuning plane's fair-share contract:
// tenant A floods its queue (and gets per-tenant 429s), tenant B's job
// still completes within the WRR bound, unaffected by A's backlog.
func TestServeTenantFairness(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueSize = 3 })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr

	// Block the only worker so queue contents are deterministic.
	blockerRunning := make(chan struct{})
	release := make(chan struct{})
	blocker, err := s.jobs.submit("blocker", func(ctx context.Context) (any, error) {
		close(blockerRunning)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-blockerRunning

	// Tenant acme floods its queue to capacity with order-recording jobs.
	order := make(chan string, 8)
	record := func(id string) func(ctx context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			order <- id
			return nil, nil
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.jobs.submit("acme", record("acme")); err != nil {
			t.Fatalf("acme fill %d: %v", i, err)
		}
	}

	// The flooding tenant's next HTTP submission is a per-tenant 429...
	var apiErr struct {
		Error string `json:"error"`
	}
	resp, _ := doReq(t, http.MethodPost, base+"/v1/t/acme/jobs/tune", nil,
		strings.NewReader(`{"queries":["q6"]}`), &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooded tenant submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || !strings.Contains(apiErr.Error, "acme") {
		t.Fatalf("429 missing Retry-After or tenant attribution: %v / %+v", resp.Header, apiErr)
	}

	// ...while tenant beta's queue is empty and accepts immediately.
	if _, err := s.jobs.submit("beta", record("beta")); err != nil {
		t.Fatalf("beta submit while acme flooded: %v", err)
	}
	var accepted JobStatus
	resp, _ = doReq(t, http.MethodPost, base+"/v1/t/beta/jobs/tune", nil,
		strings.NewReader(`{"queries":["q6"]}`), &accepted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta HTTP submit: %d, want 202", resp.StatusCode)
	}

	// Unblock the worker and watch the WRR drain: with equal weights, beta's
	// first job completes after at most one acme job — position ≤ 1 in the
	// recorded order — despite acme's three-deep backlog.
	close(release)
	if st := waitState(t, blocker); st != JobDone {
		t.Fatalf("blocker finished %s", st)
	}
	var drained []string
	for i := 0; i < 4; i++ {
		select {
		case id := <-order:
			drained = append(drained, id)
		case <-time.After(30 * time.Second):
			t.Fatalf("drained only %v", drained)
		}
	}
	betaPos := -1
	for i, id := range drained {
		if id == "beta" {
			betaPos = i
		}
	}
	if betaPos < 0 || betaPos > 1 {
		t.Fatalf("beta drained at position %d of %v, want within the WRR bound (<= 1)", betaPos, drained)
	}

	// Beta's HTTP tune job also runs to completion untouched by acme's
	// backlog, and stays invisible to acme (ownership enforced).
	jobURL := base + "/v1/t/beta/jobs/" + accepted.ID
	deadline := time.Now().Add(60 * time.Second)
	var st JobStatus
	for {
		if resp, _ := doReq(t, http.MethodGet, jobURL, nil, nil, &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", jobURL, resp.StatusCode)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("beta tune job never terminated: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("beta tune job = %+v", st)
	}
	if resp, _ := doReq(t, http.MethodGet, base+"/v1/t/acme/jobs/"+accepted.ID, nil, nil, &apiErr); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant job read: %d, want 404", resp.StatusCode)
	}
}
