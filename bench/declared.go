package main

import "fmt"

// endToEnd declares the metrics a user of the system sees, with the share
// of the baseline median by which each may worsen before a change counts as
// a regression. Every workload reports every one of them, and none is ever
// zero. BENCHMARK.json carries the same list (a test compares them).
var endToEnd = []struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}{
	{"op_p10_us", "us", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// perLayer declares every per-layer metric a traced run reports. Those of
// the fixed-count layer pass read the same on every workload; the others
// describe the workload's own traced run (a quantity the workload does not
// have reads 0: no kernel bytes on a serving workload, no handler span on a
// call workload).
var perLayer = []struct{ name, unit string }{
	// the instrument itself, and what the end-to-end list cannot carry
	// because some workload reads 0 on it
	{"bench.trace_overhead_pct", "%"}, {"bench.layers_sum_ratio", "ratio"},
	{"bench.op_p50_us", "us"}, {"bench.ops_per_s", "1/s"}, {"bench.work_gflops", "GFLOP/s"}, {"bench.allocs_per_op", "1/op"},
	{"bench.op_tail_us", "us"}, {"bench.op_tail_pct", "%"},
	// this workload's traced run: self time of every span, counts, ratios
	{"self.adsala.call_ns", "ns"}, {"self.serve.engine.predict_ns", "ns"},
	{"self.core.rank_ns", "ns"}, {"self.features.row_ns", "ns"},
	{"self.serve.cache.put_ns", "ns"}, {"self.blas.kernel_ns", "ns"},
	{"self.serve.engine.record_measured_ns", "ns"},
	{"self.serve.client.roundtrip_ns", "ns"}, {"self.serve.client.report_ns", "ns"},
	{"self.serve.server.handler_ns", "ns"}, {"self.serve.engine.batch_ns", "ns"},
	{"serve.engine.hit_rate", "ratio"}, {"serve.engine.warmup_s", "s"},
	{"serve.server.shed_total", "count"}, {"trace.dropped_total", "count"},
	{"blas.flops_computed", "FLOP"}, {"blas.bytes_computed", "B"},
	{"blas.ops_per_byte", "FLOP/B"}, {"blas.max_abs_err", "abs"},
	{"adsala.train_s", "s"}, {"adsala.load_ms", "ms"},
	// the paper's headline and decision quality (three-way pass)
	{"adsala.speedup_vs_max", "ratio"}, {"adsala.regret_vs_oracle", "ratio"},
	{"adsala.selected_t1_share", "ratio"},
	// fixed-count layer pass
	{"adsala.facade_overhead_ns", "ns"},
	{"serve.engine.predict_hit_ns", "ns"}, {"serve.engine.predict_miss_ns", "ns"},
	{"serve.engine.batch16_hit_ns", "ns"}, {"serve.engine.batch16_miss_ns", "ns"},
	{"serve.engine.record_measured_plain_ns", "ns"},
	{"serve.engine.record_measured_traced_ns", "ns"},
	{"serve.engine.record_measured_drift_ns", "ns"},
	{"serve.cache.get_hit_ns", "ns"}, {"serve.cache.get_hit_parallel_ns", "ns"},
	{"serve.cache.put_evict_ns", "ns"},
	{"core.rank_ns", "ns"}, {"core.predict_one_ns", "ns"},
	{"core.rank_allocs", "1/op"}, {"core.candidates", "count"},
	{"features.row_into_ns", "ns"},
	{"blas.ctx_sgemm_tiny_ns", "ns"},
	{"blas.sgemm_t1_gflops", "GFLOP/s"}, {"blas.sgemm_tmax_gflops", "GFLOP/s"},
	{"blas.dgemm_t1_gflops", "GFLOP/s"}, {"blas.ssyrk_t1_gflops", "GFLOP/s"},
	{"blas.ssyr2k_t1_gflops", "GFLOP/s"}, {"blas.scale_eff_tmax", "ratio"},
	{"serve.server.predict_handler_ns", "ns"}, {"serve.server.batch16_handler_ns", "ns"},
	{"serve.server.measured16_handler_ns", "ns"}, {"serve.server.codec_ns", "ns"},
	{"serve.server.metrics_scrape_ms", "ms"},
	{"serve.client.transport_ns", "ns"}, {"serve.client.allocs_per_req", "1/op"},
	{"trace.record_ns", "ns"}, {"trace.bytes_per_record", "B"},
	{"drift.observe_ns", "ns"}, {"obs.histogram_observe_ns", "ns"},
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, e := range endToEnd {
		m[e.name] = e.unit
	}
	for _, p := range perLayer {
		m[p.name] = p.unit
	}
	return m
}()

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

type metrics map[string]metric

// set reports a declared metric; reporting an undeclared one is a bug in
// the benchmark.
func (m metrics) set(name string, value float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("metric %q is not declared", name))
	}
	m[name] = metric{value, unit, n}
}
