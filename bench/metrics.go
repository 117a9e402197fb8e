package main

// metricDef names one metric of BENCHMARK.json with its unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload; a layer
// a workload does not exercise reads 0. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"server.handler_p50_ms", "ms", "lower"},
	{"server.transport_p50_ms", "ms", "lower"},
	{"server.job_queue_wait_s", "s", "lower"},
	{"server.job_run_s", "s", "lower"},
	{"server.capacity_rps", "1/s", "higher"},
	{"tenant.loads", "count", "lower"},
	{"tenant.evictions", "count", "lower"},
	{"tenant.state_spills", "count", "lower"},
	{"tenant.reload_ms", "ms", "lower"},
	{"tuner.query_phase_s", "s", "lower"},
	{"tuner.greedy_phase_s", "s", "lower"},
	{"tuner.step_candidates", "count", "lower"},
	{"tuner.gate.regression", "count", "lower"},
	{"tuner.gate.improvement", "count", "higher"},
	{"tuner.gate.unsure", "count", "lower"},
	{"tuner.cost_ratio", "ratio", "lower"},
	{"tuner.regressions", "count", "lower"},
	{"candidates.generated", "count", "lower"},
	{"candidates.generate_us", "us", "lower"},
	{"opt.whatif_calls", "count", "lower"},
	{"opt.whatif_misses", "count", "lower"},
	{"opt.whatif_hit_ratio", "ratio", "higher"},
	{"opt.optimize_busy_s", "s", "lower"},
	{"opt.optimize_p50_us", "us", "lower"},
	{"opt.optimize_p99_us", "us", "lower"},
	{"opt.memo_hit_ratio", "ratio", "higher"},
	{"opt.jmemo_hit_ratio", "ratio", "higher"},
	{"opt.whatif_entries", "count", "lower"},
	{"models.gate_calls", "count", "lower"},
	{"models.gate_pairs", "count", "lower"},
	{"models.gate_busy_s", "s", "lower"},
	{"models.compare_us", "us", "lower"},
	{"feat.pair_us", "us", "lower"},
	{"telemetry.ingest_p50_ms", "ms", "lower"},
	{"telemetry.rotations", "count", "lower"},
	{"telemetry.bytes_per_record", "B", "lower"},
	{"learn.featurize_s", "s", "lower"},
	{"learn.fit_s", "s", "lower"},
	{"learn.eval_s", "s", "lower"},
	{"learn.trainset_reuse_ratio", "ratio", "higher"},
	{"embed.encoder_train_s", "s", "lower"},
	{"learn.decisions.promoted", "count", "higher"},
	{"learn.decisions.rejected", "count", "lower"},
	{"learn.decisions.rolled_back", "count", "lower"},
	{"learn.decisions.skipped", "count", "lower"},
	{"learn.decisions.monitoring", "count", "lower"},
	{"registry.promote_s", "s", "lower"},
	{"registry.versions", "count", "lower"},
	{"registry.store_bytes", "B", "lower"},
	{"gen.lateness_p99_ms", "ms", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
}
