package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPlanBatchEndpoint covers the batched mode of POST /v1/plan: one query
// planned under several configurations in a single call.
func TestPlanBatchEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr

	body := `{"query":"q6","configs":[
		[],
		[{"table":"lineitem","key":["l_shipdate"]}],
		[{"table":"lineitem","key":["l_shipdate"],"include":["l_discount","l_quantity","l_price"]}]
	]}`
	var batch planBatchResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(body), &batch); code != http.StatusOK {
		t.Fatalf("batch plan: %d (%+v)", code, batch)
	}
	if batch.Query != "q6" || len(batch.Plans) != 3 {
		t.Fatalf("batch response = %+v", batch)
	}
	for i, pr := range batch.Plans {
		if pr.EstCost <= 0 || pr.Plan == "" {
			t.Fatalf("plan %d is empty: %+v", i, pr)
		}
		if len(pr.Indexes) != map[int]int{0: 0, 1: 1, 2: 1}[i] {
			t.Fatalf("plan %d echoes %d indexes", i, len(pr.Indexes))
		}
	}
	// The covering index must not cost more than planning with no indexes,
	// and the batch results must agree with the single-config endpoint.
	if batch.Plans[2].EstCost > batch.Plans[0].EstCost {
		t.Fatalf("covering-index plan costs more than no-index plan: %+v", batch.Plans)
	}
	var single planResponse
	singleBody := `{"query":"q6","indexes":[{"table":"lineitem","key":["l_shipdate"],"include":["l_discount","l_quantity","l_price"]}]}`
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(singleBody), &single); code != http.StatusOK {
		t.Fatalf("single plan: %d", code)
	}
	if math.Float64bits(single.EstCost) != math.Float64bits(batch.Plans[2].EstCost) || single.Plan != batch.Plans[2].Plan {
		t.Fatalf("batch and single results diverge:\n%+v\nvs\n%+v", batch.Plans[2], single)
	}

	// Mutual exclusion of indexes and configs.
	var apiErr map[string]any
	both := `{"query":"q6","indexes":[{"table":"lineitem","key":["l_shipdate"]}],"configs":[[]]}`
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(both), &apiErr); code != http.StatusBadRequest {
		t.Fatalf("indexes+configs should be rejected: %d (%v)", code, apiErr)
	}

	// An invalid configuration is reported with its batch position.
	bad := `{"query":"q6","configs":[[],[{"table":"lineitem"}]]}`
	if code := doJSON(t, http.MethodPost, base+"/v1/plan", strings.NewReader(bad), &apiErr); code != http.StatusBadRequest {
		t.Fatalf("keyless btree in batch: %d", code)
	}
	if msg, _ := apiErr["error"].(string); !strings.Contains(msg, "config 1") {
		t.Fatalf("error should name the failing config: %v", apiErr)
	}

	// A done request stops planning: 32 unseen configurations under an
	// already-cancelled context cost at most one what-if call. The handler
	// is called directly, because the timeout handler's goroutine would make
	// the count racy.
	cols := []string{"l_shipdate", "l_discount", "l_quantity", "l_price"}
	configs := make([][]IndexSpec, 32)
	for i := range configs {
		var include []string
		for b, c := range cols {
			if i&(1<<b) != 0 {
				include = append(include, c)
			}
		}
		configs[i] = []IndexSpec{{Table: "lineitem", Key: []string{cols[2+i/16]}, Include: include}}
	}
	raw, err := json.Marshal(planRequest{Query: "q6", Configs: configs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(raw)).WithContext(ctx)
	calls0, _ := s.cfg.WhatIf.Stats()
	s.handlePlan(httptest.NewRecorder(), req)
	if calls1, _ := s.cfg.WhatIf.Stats(); calls1-calls0 > 1 {
		t.Fatalf("a cancelled request made %d what-if calls, want at most 1", calls1-calls0)
	}
}

// TestPlanNamesUnreferencedIndexes: a configuration that adds an index on a
// table the query does not read shares the what-if cache entry of the
// configuration without it, yet POST /v1/plan answers byte for byte what a
// cold server answers for it, plan header included.
func TestPlanNamesUnreferencedIndexes(t *testing.T) {
	post := func(s *Server, indexes string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		body := `{"query":"q6","indexes":` + indexes + `}` // q6 reads lineitem only
		s.handlePlan(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	const lineitem = `[{"table":"lineitem","key":["l_shipdate"]}]`
	const withOrders = `[{"table":"lineitem","key":["l_shipdate"]},{"table":"orders","key":["o_date"]}]`
	warm := newTestServer(t, nil)
	post(warm, lineitem)
	calls0, hits0 := warm.cfg.WhatIf.Stats()
	got := post(warm, withOrders)
	if calls, hits := warm.cfg.WhatIf.Stats(); calls-calls0 != 1 || hits-hits0 != 1 {
		t.Fatalf("the orders index re-planned q6: %d calls, %d hits", calls-calls0, hits-hits0)
	}
	if want := post(newTestServer(t, nil), withOrders); got != want {
		t.Fatalf("cache-shared plan body differs from a cold plan:\n%s\nvs\n%s", got, want)
	}
	var resp planResponse
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Plan, `config "lineitem/bt(l_shipdate);orders/bt(o_date)"`) {
		t.Fatalf("plan header does not name its configuration:\n%s", resp.Plan)
	}
}
