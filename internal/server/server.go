// Package server is the tuning service daemon behind `aimai serve`: a JSON
// HTTP API exposing the reproduction's components as a long-lived process —
// the operational end state the paper sketches in §5/§7, where index tuning
// runs continuously against a live workload instead of as one-shot CLI
// invocations.
//
// The API has three planes:
//
//   - Synchronous inference: POST /v1/plan (what-if planning under a
//     hypothetical configuration), POST /v1/classify (plan-pair verdict
//     from the active classifier), GET /healthz, GET /metrics.
//   - Asynchronous tuning: POST /v1/jobs/tune enqueues a workload-tuning
//     job onto a bounded worker pool; GET /v1/jobs/{id} polls status and
//     result, DELETE /v1/jobs/{id} cancels (threading context.Context into
//     the tuner's probe loops), and a full queue answers 429.
//   - Model + telemetry lifecycle: POST /v1/models uploads, validates, and
//     atomically activates a classifier (see internal/server/registry);
//     POST /v1/telemetry appends execution records for later retraining,
//     closing the paper's feedback loop.
//
// Every endpoint is multi-tenant (see internal/tenant): requests resolve a
// tenant via the /v1/t/{tenant}/... path prefix or the X-Tenant header
// (default: the "default" tenant, preserving single-tenant behaviour), and
// operate on that tenant's model registry, telemetry partition, and
// learning loop. Per-tenant token buckets gate the synchronous plane and
// per-tenant bounded queues with weighted-round-robin draining gate the
// tuning plane, so saturation answers 429 per tenant, not globally.
//
// Graceful shutdown drains the job queue (SIGTERM → stop accepting →
// finish or cancel jobs → flush telemetry) so a restarting service loses
// neither running work nor ingested records.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/opt"
	"repro/internal/engine/query"
	"repro/internal/expdata"
	"repro/internal/models"
	"repro/internal/obs"
	sqlparse "repro/internal/sql"
	"repro/internal/tenant"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// HTTP-plane metric handles (see DESIGN.md §8/§14).
var (
	mHTTPRequests      = obs.C("server.http.requests")
	mHTTPErrors        = obs.C("server.http.errors")
	mHTTPLatency       = obs.H("server.http.latency")
	mModelsActive      = obs.C("server.models.activated")
	mAdmissionRejected = obs.C("server.admission.rejected")
	mTenantBadID       = obs.C("server.tenant.bad_id")
)

// maxBodyBytes bounds every request body; model uploads are the largest
// legitimate payload (a 100-tree forest serializes to a few MB).
const maxBodyBytes = 64 << 20

// Config wires a Server to an opened database and bounds its resources.
type Config struct {
	// Workload is the served database: schema, data, and named queries.
	Workload *workload.Workload
	// WhatIf is the caching what-if planning facade (concurrency-safe).
	WhatIf *opt.WhatIf
	// Exec executes plans; used by tuning jobs via the continuous driver.
	Exec *exec.Executor

	// TunerOpts configure tuning jobs (Parallelism bounds each job's
	// what-if probe fan-out).
	TunerOpts tuner.Options

	// Config holds the per-tenant settings: the default tenant's registry
	// and telemetry paths, the tenants root, the active-tenant bound,
	// registry and telemetry retention, ingest sampling, admission rates,
	// warm start, and every tenant's learning loop (GET /v1/learn/status,
	// POST /v1/learn/trigger; a background ticker when Learn.Interval > 0).
	tenant.Config

	// TenantWeights sets weighted-round-robin shares for the tuning-job
	// queues (absent tenants get weight 1).
	TenantWeights map[string]int

	// Workers is the tuning-job worker pool size (default 1: tuning jobs
	// are internally parallel already via TunerOpts.Parallelism).
	Workers int
	// QueueSize bounds each tenant's queued tuning jobs; a full tenant
	// queue answers 429 (default 8).
	QueueSize int
	// RequestTimeout bounds synchronous request handling (default 30s).
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is the tuning service. Create with New, serve via Handler (tests)
// or Start (owns a listener), stop with Shutdown.
type Server struct {
	cfg     Config
	tenants *tenant.Manager
	jobs    *jobs
	handler http.Handler

	reqSeq    atomic.Uint64
	reqPrefix string

	httpSrv *http.Server
}

// New validates cfg and assembles the service (default tenant materialized,
// worker pool started). The server is usable immediately via Handler.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload == nil || cfg.WhatIf == nil || cfg.Exec == nil {
		return nil, fmt.Errorf("server: Config needs Workload, WhatIf, and Exec")
	}
	mgr := tenant.NewManager(cfg.Config)
	// Materialize the default tenant eagerly so a corrupt model store or
	// unwritable telemetry path fails startup, not the first request.
	def, err := mgr.Acquire(tenant.DefaultID)
	if err != nil {
		return nil, err
	}
	mgr.Release(def)
	s := &Server{
		cfg:       cfg,
		tenants:   mgr,
		jobs:      newJobs(cfg.Workers, cfg.QueueSize, cfg.TenantWeights),
		reqPrefix: fmt.Sprintf("%06x", time.Now().UnixNano()&0xffffff),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Default())
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/models", s.handleModelUpload)
	mux.HandleFunc("GET /v1/models", s.handleModelList)
	mux.HandleFunc("POST /v1/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/learn/status", s.handleLearnStatus)
	mux.HandleFunc("GET /v1/learn/embedding", s.handleLearnEmbedding)
	mux.HandleFunc("POST /v1/learn/trigger", s.handleLearnTrigger)
	mux.HandleFunc("POST /v1/jobs/tune", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.handler = s.instrument(
		http.TimeoutHandler(s.withTenant(mux), cfg.RequestTimeout, "request timed out"))
	return s, nil
}

// Handler returns the service's HTTP handler (for httptest servers).
func (s *Server) Handler() http.Handler { return s.handler }

// ---- middleware ----

type ctxKey int

const tenantKey ctxKey = 0

// tenantFrom returns the request's resolved tenant (set by withTenant).
func tenantFrom(r *http.Request) *tenant.Tenant {
	t, _ := r.Context().Value(tenantKey).(*tenant.Tenant)
	return t
}

// instrument is the outermost middleware: it assigns every request an
// X-Request-ID (honouring a client-supplied one), counts and times the
// request, stamps a trace span with the ID, and guarantees the JSON error
// envelope — any non-JSON error body produced below it (the mux's plain
// 404/405, the timeout handler's 503) is rewritten to apiError.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mHTTPRequests.Inc()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" || len(reqID) > 128 {
			reqID = fmt.Sprintf("req-%s-%06x", s.reqPrefix, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		sp := obs.Default().StartSpan("http.request").WithTag(reqID)
		ew := &envelopeWriter{ResponseWriter: w}
		start := mHTTPLatency.Start()
		next.ServeHTTP(ew, r)
		ew.finish()
		mHTTPLatency.Stop(start)
		if ew.status >= http.StatusBadRequest {
			mHTTPErrors.Inc()
		}
		sp.End()
	})
}

// envelopeWriter rewrites non-JSON error responses into the apiError
// envelope so clients can always json-decode failures: handlers below the
// middleware that write text (http.Error, TimeoutHandler) get converted;
// JSON responses pass through untouched.
type envelopeWriter struct {
	http.ResponseWriter
	status  int
	wrote   bool
	rewrite bool
	buf     bytes.Buffer
}

func (e *envelopeWriter) WriteHeader(code int) {
	if e.wrote {
		return
	}
	e.wrote = true
	e.status = code
	ct := e.Header().Get("Content-Type")
	if code >= http.StatusBadRequest && !strings.HasPrefix(ct, "application/json") {
		e.rewrite = true
		e.Header().Set("Content-Type", "application/json")
		e.Header().Del("Content-Length")
	}
	e.ResponseWriter.WriteHeader(code)
}

func (e *envelopeWriter) Write(b []byte) (int, error) {
	if !e.wrote {
		e.WriteHeader(http.StatusOK)
	}
	if e.rewrite {
		// Buffer the plain-text body; finish() emits it as JSON.
		e.buf.Write(b)
		return len(b), nil
	}
	return e.ResponseWriter.Write(b)
}

// finish flushes a rewritten error body as the JSON envelope.
func (e *envelopeWriter) finish() {
	if !e.wrote {
		e.status = http.StatusOK
		return
	}
	if !e.rewrite {
		return
	}
	msg := strings.TrimSpace(e.buf.String())
	if msg == "" {
		msg = http.StatusText(e.status)
	}
	data, _ := json.Marshal(apiError{Error: msg})
	_, _ = e.ResponseWriter.Write(append(data, '\n'))
}

// withTenant resolves the request's tenant — path prefix /v1/t/{tenant}/...
// (rewritten to the canonical /v1/... route) or the X-Tenant header, with
// the default tenant as fallback — validates the ID, materializes the
// tenant, and admits the request through the tenant's token bucket. The
// tenant rides the request context; the reference is released when the
// handler returns.
func (s *Server) withTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tenant.DefaultID
		if h := r.Header.Get("X-Tenant"); h != "" {
			id = h
		}
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/t/"); ok {
			slash := strings.IndexByte(rest, '/')
			if slash <= 0 {
				writeErr(w, http.StatusNotFound, "tenant path needs /v1/t/{tenant}/...")
				return
			}
			id = rest[:slash]
			r = r.Clone(r.Context())
			r.URL.Path = "/v1" + rest[slash:]
		}
		if err := tenant.ValidateID(id); err != nil {
			mTenantBadID.Inc()
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		tn, err := s.tenants.Acquire(id)
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "tenant %q unavailable: %v", id, err)
			return
		}
		defer s.tenants.Release(tn)
		// Admission control gates the API planes only; /healthz and
		// /metrics stay reachable for probes even when a tenant is
		// saturated.
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			if ok, retry := tn.Admit(time.Now()); !ok {
				mAdmissionRejected.Inc()
				secs := int(retry/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeErr(w, http.StatusTooManyRequests,
					"tenant %q rate limit exceeded; retry in %ds", id, secs)
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey, tn)))
	})
}

// Start binds addr (":0" for an ephemeral port), serves in the background,
// and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.httpSrv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// TenantStats reports per-tenant serving-plane state for the shutdown
// summary and tests: materialized tenant IDs and queue depths.
func (s *Server) TenantStats() (active []string, queueDepths map[string]int) {
	return s.tenants.ActiveIDs(), s.jobs.sched.Depths()
}

// Shutdown stops the service gracefully: the listener closes, in-flight
// requests finish, the job queues drain (jobs still running when ctx
// expires are cancelled and awaited), and every tenant finalizes — learning
// loop stopped, telemetry flushed to disk. Safe to call without Start
// (tests using Handler directly).
func (s *Server) Shutdown(ctx context.Context) error {
	var first error
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	if err := s.jobs.drain(ctx); err != nil && first == nil {
		first = err
	}
	// Tenant finalization stops each loop before closing its sink (the
	// loop reads the sink).
	if err := s.tenants.Close(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// ---- request/response types ----

// IndexSpec is the wire form of an index definition.
type IndexSpec struct {
	Table string `json:"table"`
	// Kind is "btree" (default) or "columnstore".
	Kind string `json:"kind,omitempty"`
	// Key is the ordered B+ tree key (ignored for columnstore).
	Key []string `json:"key,omitempty"`
	// Include lists covering leaf columns (optional).
	Include []string `json:"include,omitempty"`
}

// toIndex validates a spec against the schema and builds the index.
func (s *Server) toIndex(spec IndexSpec) (*catalog.Index, error) {
	t := s.cfg.Workload.Schema.Table(spec.Table)
	if t == nil {
		return nil, fmt.Errorf("unknown table %q", spec.Table)
	}
	ix := &catalog.Index{Table: spec.Table}
	switch strings.ToLower(spec.Kind) {
	case "", "btree":
		ix.Kind = catalog.BTree
		if len(spec.Key) == 0 {
			return nil, fmt.Errorf("btree index on %q needs at least one key column", spec.Table)
		}
	case "columnstore":
		ix.Kind = catalog.Columnstore
		return ix, nil
	default:
		return nil, fmt.Errorf("unknown index kind %q", spec.Kind)
	}
	for _, c := range append(append([]string(nil), spec.Key...), spec.Include...) {
		if t.Column(c) == nil {
			return nil, fmt.Errorf("unknown column %s.%s", spec.Table, c)
		}
	}
	ix.KeyColumns = spec.Key
	ix.IncludedColumns = spec.Include
	return ix, nil
}

// toConfig builds a configuration from specs (empty specs = no indexes).
func (s *Server) toConfig(specs []IndexSpec) (*catalog.Configuration, error) {
	cfg := catalog.NewConfiguration()
	for _, spec := range specs {
		ix, err := s.toIndex(spec)
		if err != nil {
			return nil, err
		}
		cfg.Add(ix)
	}
	return cfg, nil
}

// resolveQuery resolves either a named workload query or ad-hoc SQL.
func (s *Server) resolveQuery(name, sql string) (*query.Query, error) {
	switch {
	case name != "" && sql != "":
		return nil, fmt.Errorf("give either query (a workload query name) or sql, not both")
	case name != "":
		q := s.cfg.Workload.Query(name)
		if q == nil {
			return nil, fmt.Errorf("unknown query %q", name)
		}
		return q, nil
	case sql != "":
		q, err := sqlparse.Parse(sql, s.cfg.Workload.Schema)
		if err != nil {
			return nil, err
		}
		q.Name = "adhoc"
		return q, nil
	default:
		return nil, fmt.Errorf("missing query or sql")
	}
}

// itemPrefix names item i of a list-form request (configs, pairs) in an
// error text; the single form, which has no list, gets no prefix.
func itemPrefix(list bool, format string, i int) string {
	if !list {
		return ""
	}
	return fmt.Sprintf(format, i)
}

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr emits the JSON error envelope; instrument counts errors by
// observing the response status, so writeErr stays side-effect free.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a JSON body, rejecting unknown fields so client typos
// fail loudly instead of silently tuning the wrong thing.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// ---- synchronous endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tn := tenantFrom(r)
	resp := map[string]any{
		"status":         "ok",
		"db":             s.cfg.Workload.Name,
		"queries":        len(s.cfg.Workload.Queries),
		"tenant":         tn.ID,
		"tenants_active": s.tenants.ActiveCount(),
		"jobs":           s.jobs.counts(tn.ID),
		"telemetry":      tn.Sink.Total(),
		"indexes_cached": len(s.cfg.Exec.CachedIndexes()),
	}
	if v := tn.Reg.Models.Active(); v != nil {
		resp["model"] = v.ID
	} else {
		resp["model"] = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

type planRequest struct {
	// Query names a workload query; SQL gives an ad-hoc statement. Exactly
	// one must be set.
	Query   string      `json:"query,omitempty"`
	SQL     string      `json:"sql,omitempty"`
	Indexes []IndexSpec `json:"indexes,omitempty"`
	// Configs plans the same query under many configurations in one call;
	// the response carries one result per configuration, in request order.
	// Mutually exclusive with the top-level Indexes.
	Configs [][]IndexSpec `json:"configs,omitempty"`
}

type planConfigResult struct {
	EstCost float64  `json:"est_cost"`
	Indexes []string `json:"indexes"`
	Plan    string   `json:"plan"`
}

type planResponse struct {
	Query string `json:"query"`
	planConfigResult
}

type planBatchResponse struct {
	Query string             `json:"query"`
	Plans []planConfigResult `json:"plans"`
}

// handlePlan answers both forms of POST /v1/plan. The single form is
// planned as a one-element configs list; only the response shape and the
// error prefix depend on which form arrived.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !readJSON(w, r, &req) {
		return
	}
	q, err := s.resolveQuery(req.Query, req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := len(req.Configs) > 0
	specs := req.Configs
	if !batch {
		specs = [][]IndexSpec{req.Indexes}
	} else if len(req.Indexes) > 0 {
		writeErr(w, http.StatusBadRequest, "indexes and configs are mutually exclusive")
		return
	}
	// Every configuration is validated before any is planned.
	cfgs := make([]*catalog.Configuration, len(specs))
	for i, sp := range specs {
		if cfgs[i], err = s.toConfig(sp); err != nil {
			writeErr(w, http.StatusBadRequest, "%s%v", itemPrefix(batch, "config %d: ", i), err)
			return
		}
	}
	out := make([]planConfigResult, len(cfgs))
	for i, cfg := range cfgs {
		// A done request was answered by the timeout handler or dropped
		// by its client: stop planning.
		if r.Context().Err() != nil {
			return
		}
		p, err := s.cfg.WhatIf.Plan(q, cfg)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "planning: %v", err)
			return
		}
		ids := make([]string, 0, cfg.Len())
		for _, ix := range cfg.Indexes() {
			ids = append(ids, ix.ID())
		}
		out[i] = planConfigResult{EstCost: p.EstTotalCost, Indexes: ids, Plan: p.String()}
	}
	if batch {
		writeJSON(w, http.StatusOK, planBatchResponse{Query: q.Name, Plans: out})
	} else {
		writeJSON(w, http.StatusOK, planResponse{Query: q.Name, planConfigResult: out[0]})
	}
}

type classifyRequest struct {
	Query    string      `json:"query,omitempty"`
	SQL      string      `json:"sql,omitempty"`
	IndexesA []IndexSpec `json:"indexes_a,omitempty"`
	IndexesB []IndexSpec `json:"indexes_b,omitempty"`
	// Pairs classifies many configuration pairs for the same query in one
	// call. Mutually exclusive with the top-level indexes_a/indexes_b.
	Pairs []classifyPairSpec `json:"pairs,omitempty"`
	// Comparator selects the verdict source: "model" (default; requires an
	// activated classifier) or "optimizer" (the estimate-only baseline).
	Comparator string `json:"comparator,omitempty"`
}

type classifyPairSpec struct {
	IndexesA []IndexSpec `json:"indexes_a,omitempty"`
	IndexesB []IndexSpec `json:"indexes_b,omitempty"`
}

type classifyPairVerdict struct {
	Verdict  string  `json:"verdict"`
	EstCostA float64 `json:"est_cost_a"`
	EstCostB float64 `json:"est_cost_b"`
}

type classifyResponse struct {
	Query        string  `json:"query"`
	Verdict      string  `json:"verdict,omitempty"`
	Comparator   string  `json:"comparator"`
	ModelVersion int     `json:"model_version,omitempty"`
	EstCostA     float64 `json:"est_cost_a,omitempty"`
	EstCostB     float64 `json:"est_cost_b,omitempty"`
	// Verdicts holds the results of the pairs form, in request pair order.
	Verdicts []classifyPairVerdict `json:"verdicts,omitempty"`
}

// handleClassify answers both forms of POST /v1/classify. The single form
// is classified as a one-element pairs list; only the response shape and
// the error prefix depend on which form arrived.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	q, err := s.resolveQuery(req.Query, req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := len(req.Pairs) > 0
	specs := req.Pairs
	if !batch {
		specs = []classifyPairSpec{{IndexesA: req.IndexesA, IndexesB: req.IndexesB}}
	} else if len(req.IndexesA) > 0 || len(req.IndexesB) > 0 {
		writeErr(w, http.StatusBadRequest, "pairs is mutually exclusive with indexes_a/indexes_b")
		return
	}
	tn := tenantFrom(r)
	resp := classifyResponse{Query: q.Name}
	var cmp models.Comparator
	switch req.Comparator {
	case "", "model":
		v := tn.Reg.Models.Active()
		if v == nil {
			writeErr(w, http.StatusConflict, "no model activated for tenant %q; upload one via POST /v1/models or pass comparator=optimizer", tn.ID)
			return
		}
		cmp = v.Value
		resp.Comparator = "model"
		resp.ModelVersion = v.ID
	case "optimizer":
		cmp = models.NewOptimizerBaseline(s.cfg.TunerOpts.Alpha)
		resp.Comparator = "optimizer"
	default:
		writeErr(w, http.StatusBadRequest, "unknown comparator %q", req.Comparator)
		return
	}
	pairs := make([]models.PlanPair, len(specs))
	for i, spec := range specs {
		// A done request was answered by the timeout handler or dropped
		// by its client: stop planning.
		if r.Context().Err() != nil {
			return
		}
		cfgA, err := s.toConfig(spec.IndexesA)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%sindexes_a: %v", itemPrefix(batch, "pairs[%d].", i), err)
			return
		}
		cfgB, err := s.toConfig(spec.IndexesB)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%sindexes_b: %v", itemPrefix(batch, "pairs[%d].", i), err)
			return
		}
		if pairs[i].P1, err = s.cfg.WhatIf.Plan(q, cfgA); err != nil {
			writeErr(w, http.StatusInternalServerError, "%splanning under indexes_a: %v", itemPrefix(batch, "pairs[%d]: ", i), err)
			return
		}
		if pairs[i].P2, err = s.cfg.WhatIf.Plan(q, cfgB); err != nil {
			writeErr(w, http.StatusInternalServerError, "%splanning under indexes_b: %v", itemPrefix(batch, "pairs[%d]: ", i), err)
			return
		}
	}
	verdicts := models.CompareAll(cmp, pairs, nil)
	resp.Verdicts = make([]classifyPairVerdict, len(pairs))
	for i, p := range pairs {
		resp.Verdicts[i] = classifyPairVerdict{
			Verdict:  verdicts[i].String(),
			EstCostA: p.P1.EstTotalCost,
			EstCostB: p.P2.EstTotalCost,
		}
	}
	if !batch {
		one := resp.Verdicts[0]
		resp.Verdict, resp.EstCostA, resp.EstCostB, resp.Verdicts = one.Verdict, one.EstCostA, one.EstCostB, nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- model registry endpoints ----

func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	tn := tenantFrom(r)
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading model blob: %v", err)
		return
	}
	prior := tn.Reg.Models.Active()
	v, err := tn.Reg.Models.AddAndActivate(data)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	mModelsActive.Inc()
	if s.cfg.RegistryKeep > 0 {
		pin := []int{}
		if prior != nil {
			pin = append(pin, prior.ID)
		}
		_, _ = tn.Reg.Models.Prune(s.cfg.RegistryKeep, pin...)
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"version": v.ID, "activated": true, "size": v.Size, "tenant": tn.ID,
	})
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	tn := tenantFrom(r)
	resp := map[string]any{"versions": tn.Reg.Models.List(), "tenant": tn.ID}
	if v := tn.Reg.Models.Active(); v != nil {
		resp["active"] = v.ID
	} else {
		resp["active"] = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- telemetry ingest ----

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	tn := tenantFrom(r)
	recs, err := expdata.ImportTelemetry(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(recs) == 0 {
		writeErr(w, http.StatusBadRequest, "empty telemetry payload")
		return
	}
	stored, err := tn.Sink.Append(recs)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted": len(recs), "stored": stored,
		"total": tn.Sink.Total(), "sample_rate": tn.Sink.SampleRate(),
	})
}

// ---- asynchronous tuning jobs ----

type tuneRequest struct {
	// Queries names workload queries to tune (empty = the whole workload).
	Queries []string `json:"queries,omitempty"`
	// MaxNewIndexes / StorageBudget / MaxIndexesPerTable /
	// MaxColumnFraction override the server's tuner budgets for this job
	// (0 keeps the default).
	MaxNewIndexes      int     `json:"max_new_indexes,omitempty"`
	StorageBudget      int64   `json:"storage_budget,omitempty"`
	MaxIndexesPerTable int     `json:"max_indexes_per_table,omitempty"`
	MaxColumnFraction  float64 `json:"max_column_fraction,omitempty"`
	// Compress dedups the workload by query template into weighted
	// representatives before tuning (see tuner.CompressWorkload).
	Compress bool `json:"compress,omitempty"`
	// Comparator gates the search: "model" (default when one is active),
	// "optimizer", or "none" for the estimate-only classic tuner.
	Comparator string `json:"comparator,omitempty"`
}

// tuneResult is the JSON result of a finished tuning job.
type tuneResult struct {
	NewIndexes   []string `json:"new_indexes"`
	EstCost      float64  `json:"est_cost"`
	Queries      int      `json:"queries"`
	ModelVersion int      `json:"model_version,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	tn := tenantFrom(r)
	var req tuneRequest
	if !readJSON(w, r, &req) {
		return
	}
	qs := s.cfg.Workload.Queries
	if len(req.Queries) > 0 {
		qs = make([]*query.Query, 0, len(req.Queries))
		for _, name := range req.Queries {
			q := s.cfg.Workload.Query(name)
			if q == nil {
				writeErr(w, http.StatusBadRequest, "unknown query %q", name)
				return
			}
			qs = append(qs, q)
		}
	}
	// The comparator is captured at submission time, so a later eviction of
	// the tenant cannot pull the model out from under a queued job.
	var cmp models.Comparator
	modelVersion := 0
	switch req.Comparator {
	case "", "model":
		if v := tn.Reg.Models.Active(); v != nil {
			cmp = v.Value
			modelVersion = v.ID
		} else if req.Comparator == "model" {
			writeErr(w, http.StatusConflict, "no model activated for tenant %q", tn.ID)
			return
		}
	case "optimizer":
		cmp = models.NewOptimizerBaseline(s.cfg.TunerOpts.Alpha)
	case "none":
	default:
		writeErr(w, http.StatusBadRequest, "unknown comparator %q", req.Comparator)
		return
	}
	opts := s.cfg.TunerOpts
	if req.MaxNewIndexes > 0 {
		opts.MaxNewIndexes = req.MaxNewIndexes
	}
	if req.StorageBudget > 0 {
		opts.StorageBudget = req.StorageBudget
	}
	if req.MaxIndexesPerTable > 0 {
		opts.MaxIndexesPerTable = req.MaxIndexesPerTable
	}
	if req.MaxColumnFraction > 0 {
		opts.MaxColumnFraction = req.MaxColumnFraction
	}
	if req.Compress {
		opts.Compress = true
	}
	tnr := tuner.New(s.cfg.Workload.Schema, s.cfg.WhatIf, cmp, opts)
	j, err := s.jobs.submit(tn.ID, func(ctx context.Context) (any, error) {
		rec, err := tnr.TuneWorkload(ctx, qs, nil)
		if err != nil {
			return nil, err
		}
		res := tuneResult{EstCost: rec.EstCost, Queries: len(qs), ModelVersion: modelVersion, NewIndexes: []string{}}
		for _, ix := range rec.NewIndexes {
			res.NewIndexes = append(res.NewIndexes, ix.ID())
		}
		return res, nil
	})
	switch {
	case errors.Is(err, tenant.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "tenant %q job queue full (capacity %d)", tn.ID, s.cfg.QueueSize)
		return
	case errors.Is(err, tenant.ErrSchedulerClosed):
		writeErr(w, http.StatusServiceUnavailable, "server: shutting down")
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	tn := tenantFrom(r)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list(tn.ID), "tenant": tn.ID})
}

// tenantJob looks a job up and enforces tenant ownership: a job is visible
// only to the tenant that submitted it.
func (s *Server) tenantJob(r *http.Request) *job {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil || j.tenant != tenantFrom(r).ID {
		return nil
	}
	return j
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.tenantJob(r)
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.tenantJob(r)
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !s.jobs.cancelJob(j) {
		writeErr(w, http.StatusConflict, "job %s already finished (%s)", j.id, j.status().State)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}
