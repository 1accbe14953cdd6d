package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The direction and
// regression bound of each end-to-end metric live in BENCHMARK.json, which
// the compare mode reads; TestMetricsMatchSpec keeps the two lists equal.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the serving system sees, printed by an
// untraced run (--trace 0) for every workload. Every workload attests, so
// attest_p50_ms is never empty; the latency of a durable sign follows the
// host's CPU steal too closely to gate on. cpu_ms_per_op is the
// process's CPU time per successful operation, load client included: with
// two closed-loop clients on two cores it is what bounds throughput, and
// unlike the rate it does not count time the host's hypervisor stole.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"attest_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed by a traced run (--trace 1) for every workload. A
// layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"gateway.self_us_p50", "us"},
	{"gateway.self_us_p99", "us"},
	{"server.self_us_p50", "us"},
	{"server.self_us_p99", "us"},
	{"net.self_us_p50", "us"},
	{"tenant.admit_us_p50", "us"},
	{"tenant.rejects", "count"},
	{"batch.wait_us_p50", "us"},
	{"batch.wait_us_p99", "us"},
	{"batch.sign_us_p50", "us"},
	{"batch.mean_size", "count"},
	{"batch.dedup_ratio", "ratio"},
	{"batch.crossings_per_sign", "ratio"},
	{"pool.acquire_us_p50", "us"},
	{"pool.acquire_us_p99", "us"},
	{"pool.release_us_p50", "us"},
	{"pool.rebase_us_p50", "us"},
	{"pool.rebase_us_p99", "us"},
	{"mem.restore_pages_per_op", "count"},
	{"mem.delta_restore_ratio", "ratio"},
	{"mem.rebase_alloc_mb", "MB"},
	{"arm.instr_per_op", "count"},
	{"arm.minstr_per_s", "1/s"},
	{"arm.block_cache_hit_rate", "ratio"},
	{"monitor.exec_us_p50", "us"},
	{"monitor.exec_us_p99", "us"},
	{"monitor.sim_cycles_per_op", "count"},
	{"monitor.crossings_per_op", "count"},
	{"monitor.smc_dispatch_cycles_per_op", "count"},
	{"monitor.smc_body_cycles_per_op", "count"},
	{"seal.checkpoint_us_p50", "us"},
	{"seal.checkpoint_us_p99", "us"},
	{"seal.sim_cycles_per_checkpoint", "count"},
	{"store.save_us_p50", "us"},
	{"store.save_us_p99", "us"},
	{"store.fsyncs_per_sign", "ratio"},
	{"store.bytes_per_sign", "bytes"},
	{"unattributed_share", "ratio"},
	{"trace_overhead_pct", "%"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from vals; a name missing from vals
// reads 0 (the layer was bypassed).
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
