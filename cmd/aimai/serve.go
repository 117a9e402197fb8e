package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/aimai"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
	"repro/internal/tuner"
)

// cmdServe runs the tuning service daemon: a JSON HTTP API over one opened
// suite database, with asynchronous tuning jobs, a versioned model
// registry, and a telemetry ingest path. SIGINT/SIGTERM trigger a graceful
// shutdown: the listener closes, queued jobs drain (or are cancelled when
// the drain timeout expires), and telemetry flushes to disk.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (\":0\" binds an ephemeral port)")
	db := fs.String("db", "tpch10", "suite database name")
	scale := fs.Float64("scale", 0.1, "workload scale factor")
	seed := fs.Int64("seed", 1, "seed of the workload, its statistics and the learning loop")
	parallel := fs.Int("parallel", 0, "per-job what-if worker pool (0 = GOMAXPROCS)")
	modelDir := fs.String("models-dir", "", "versioned model registry directory (empty = in-memory)")
	registryKeep := fs.Int("registry-keep", 0, "prune the registry to the newest N versions plus active+predecessor (0 = keep all)")
	telemetry := fs.String("telemetry", "", "append ingested telemetry to this JSONL file (empty = in-memory)")
	telemetrySegBytes := fs.Int64("telemetry-segment-bytes", 0, "rotate each tenant's telemetry file at this size (0 = 8MiB default); a tenant keeps at most segments x bytes")
	telemetrySegments := fs.Int("telemetry-segments", 0, "telemetry segments each tenant retains after rotation (0 = 4 default)")
	learnInterval := fs.Duration("learn-interval", 0, "background learning tick period (0 = cycles run only via POST /v1/learn/trigger)")
	learnTrainParallel := fs.Int("learn-train-parallel", 0, "challenger-training workers (0 = GOMAXPROCS, 1 = serial; same model at any setting)")
	driftMode := fs.String("drift-mode", "", "drift detector: z (default), embed, or both (non-z modes train a plan encoder at promotion)")
	warmStartFloor := fs.Float64("warm-start-floor", 0, "cross-tenant warm-start similarity floor (0 = default 0.80, negative disables)")
	tenantsDir := fs.String("tenants-dir", "", "data root for non-default tenants (empty = in-memory tenants)")
	tenantsMaxActive := fs.Int("tenants-max-active", 0, "materialized-tenant bound; LRU idle tenants evict and reload on demand (0 = 8 default)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant synchronous-plane requests/second (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant admission burst (0 = 2x rate)")
	tenantWeights := fs.String("tenant-weights", "", "weighted-round-robin tuning shares, e.g. \"acme=3,beta=1\" (absent tenants get 1)")
	tenantIngestRate := fs.Float64("tenant-ingest-rate", 0, "per-tenant telemetry records/second before sampling engages (0 = never sample)")
	workers := fs.Int("workers", 1, "tuning-job workers")
	queue := fs.Int("queue", 8, "per-tenant tuning-job queue capacity (full tenant queue answers 429)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "synchronous request timeout")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	var w *aimai.Workload
	for _, cand := range aimai.Suite(*scale, *seed) {
		if cand.Name == *db {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown database %q", *db)
	}
	fmt.Printf("opening %s (scale=%.2f)...\n", *db, *scale)
	sys, err := aimai.Open(w, *seed)
	if err != nil {
		return err
	}
	obs.SetEnabled(true) // /metrics is part of the serving API
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Workload:  sys.Workload,
		WhatIf:    sys.WhatIf,
		Exec:      sys.Exec,
		TunerOpts: tuner.Options{Parallelism: *parallel},
		Config: tenant.Config{
			TenantsDir:            *tenantsDir,
			DefaultModelDir:       *modelDir,
			DefaultTelemetryPath:  *telemetry,
			MaxActiveTenants:      *tenantsMaxActive,
			RegistryKeep:          *registryKeep,
			TelemetrySegmentBytes: *telemetrySegBytes,
			TelemetrySegments:     *telemetrySegments,
			IngestRate:            *tenantIngestRate,
			Learn: learn.Options{
				Seed:             *seed,
				Interval:         *learnInterval,
				TrainParallelism: *learnTrainParallel,
				DriftMode:        *driftMode,
			},
			Rate:           *tenantRate,
			Burst:          *tenantBurst,
			WarmStartFloor: *warmStartFloor,
		},
		TenantWeights:  weights,
		Workers:        *workers,
		QueueSize:      *queue,
		RequestTimeout: *reqTimeout,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on http://%s (db=%s, queries=%d)\n", bound, *db, len(w.Queries))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills hard

	fmt.Println("shutting down: draining jobs and flushing telemetry...")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	active, depths := srv.TenantStats()
	fmt.Printf("tenants: %d materialized at exit, %d loads, %d evictions; admission rejected %d, queue rejected %d\n",
		len(active),
		obs.C("server.tenant.loads").Value(),
		obs.C("server.tenant.evictions").Value(),
		obs.C("server.admission.rejected").Value(),
		obs.C("server.jobs.rejected").Value())
	for id, d := range depths {
		fmt.Printf("  tenant %s: %d jobs still queued\n", id, d)
	}
	fmt.Println("bye")
	return nil
}

// parseTenantWeights parses "-tenant-weights acme=3,beta=1" into WRR
// shares, validating tenant IDs so a typo fails at startup.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		id, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant-weights: %q is not tenant=weight", part)
		}
		if err := aimai.ValidateTenantID(id); err != nil {
			return nil, fmt.Errorf("tenant-weights: %w", err)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant-weights: weight %q for %s must be a positive integer", val, id)
		}
		out[id] = w
	}
	return out, nil
}
