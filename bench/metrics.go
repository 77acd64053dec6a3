package main

// metricDef names one reported metric. bound is the share of the baseline's
// median by which an end-to-end metric may get worse before `compare` calls
// it a regression; per-layer metrics explain and carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the bounded metrics a user of the solver sees; every
// workload reports every one, and BENCHMARK.json lists exactly these. The
// acceptance contract rejects a benchmark whose ten-seed interquartile
// spread, or whose shift between two such sets, exceeds a bound, and allows
// a quarter at most. On the shared 2-vCPU host the absolute times spread by
// up to 7–9 % inside a set and whole sets sat 15 % apart within the hour
// (README.md has the tables), so they carry the quarter; the ratio to the
// interleaved baseline spread by up to 7.4 % and carries three times that; the live
// heap repeats to the byte. op_p95_ms spread by up to 18 % — on the step
// workloads the tail is the host's preemptions — and is demoted, under its
// own name, to the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"speedup_vs_klu", "ratio", "higher", 0.23},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// failFrac is the seventh end-to-end metric: ops failed over ops attempted.
// Its rule is "no increase", not a bound, and its passing value is zero, so
// it travels as the failed/attempted pair of every result instead of in the
// metrics map (BENCHMARK.json admits only metrics that are never 0).
var failFrac = metricDef{Name: "fail_frac", Unit: "ratio", Better: "lower"}

// perLayer are the traced run's metrics, one layer (module) per prefix.
var perLayer = []metricDef{
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},

	{Name: "sparse.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.assemble_allocs", Unit: "count", Better: "lower"},

	{Name: "order.matching_ms", Unit: "ms", Better: "lower"},
	{Name: "order.btf_ms", Unit: "ms", Better: "lower"},
	{Name: "order.amd_ms", Unit: "ms", Better: "lower"},
	{Name: "order.nd_ms", Unit: "ms", Better: "lower"},

	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "core.factor_into_ms", Unit: "ms", Better: "lower"},
	{Name: "core.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "core.refresh_serial_ms", Unit: "ms", Better: "lower"},
	{Name: "core.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.refresh_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.partial_ms", Unit: "ms", Better: "lower"},
	{Name: "core.partial_explicit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dirty_blocks", Unit: "count", Better: "lower"},
	{Name: "core.nnz_lu", Unit: "count", Better: "lower"},
	{Name: "core.fill_density", Unit: "ratio", Better: "lower"},
	{Name: "core.btf_blocks", Unit: "count", Better: "higher"},
	{Name: "core.nd_blocks", Unit: "count", Better: "higher"},
	{Name: "core.dense_kernel_hits", Unit: "count", Better: "higher"},
	{Name: "core.supernode_hits", Unit: "count", Better: "higher"},
	{Name: "core.pivot_fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.sync_waits", Unit: "count", Better: "lower"},
	{Name: "core.sync_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.utilization", Unit: "ratio", Better: "higher"},
	{Name: "core.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "gp.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "gp.refactor_ms", Unit: "ms", Better: "lower"},
	{Name: "gp.flops", Unit: "count", Better: "lower"},
	{Name: "gp.mflop_s", Unit: "Mflop/s", Better: "higher"},

	{Name: "dense.lu_gflop_s", Unit: "Gflop/s", Better: "higher"},
	{Name: "dense.trsm_gflop_s", Unit: "Gflop/s", Better: "higher"},
	{Name: "dense.gemm_gflop_s", Unit: "Gflop/s", Better: "higher"},

	{Name: "trisolve.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "trisolve.solve_many_ms_per_rhs", Unit: "ms", Better: "lower"},
	{Name: "trisolve.batch_gain", Unit: "ratio", Better: "higher"},
	{Name: "trisolve.concurrent_scaling", Unit: "ratio", Better: "higher"},
	{Name: "trisolve.solve_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "trisolve.bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "trisolve.gb_s", Unit: "GB/s", Better: "higher"},

	{Name: "klu.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "klu.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "klu.refactor_ms", Unit: "ms", Better: "lower"},
	{Name: "klu.solve_ms", Unit: "ms", Better: "lower"},

	{Name: "pool.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.factor_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "pool.bytes_cached", Unit: "B", Better: "lower"},
	{Name: "pool.evictions", Unit: "count", Better: "lower"},
	{Name: "pool.lock_wait_frac", Unit: "ratio", Better: "lower"},

	{Name: "serve.refresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cached_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.triplets_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.json_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.json_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.failures", Unit: "count", Better: "lower"},

	{Name: "harness.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "harness.span_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.peel_gap_frac", Unit: "ratio", Better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
