package main

import (
	"sort"
)

// endToEndMetric is one metric a user of the simulator sees, reported as
// the median over the repetitions of a set.
type endToEndMetric struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is how far the median may get worse, as a share of the
	// baseline median, before a change counts as a regression.
	bound float64
	// exact marks virtual-time results: at a fixed seed they must not
	// change at all unless a change means to alter simulated behaviour.
	exact bool
	// value reads the metric from one repetition; setup_s, which pools
	// several set-up times per repetition, has none.
	value func(r rep) float64
}

// endToEnd lists the end-to-end metrics in print order. BENCHMARK.json
// repeats their names, units, directions and bounds. A bound must cover
// the spread between runs made with different seeds, so each is at least
// three times the largest quartile spread measured over ten seeds, or the
// 0.25 cap for the wall-clock metrics; see README.md.
var endToEnd = []endToEndMetric{
	{name: "sim_req_per_s", unit: "req/s", higher: true, bound: 0.25,
		value: func(r rep) float64 { return float64(r.Requests) / r.WallS }},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.25,
		value: func(r rep) float64 { return r.PeakRSSMB }},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "allocs_per_req", unit: "count", bound: 0.10,
		value: func(r rep) float64 { return float64(r.AllocObjects) / float64(r.Requests) }},
	{name: "sim_ttft_p50_ms", unit: "ms_virtual", bound: 0.10, exact: true,
		value: func(r rep) float64 { return r.TTFTP50Ms }},
	{name: "sim_ttft_p99_ms", unit: "ms_virtual", bound: 0.20, exact: true,
		value: func(r rep) float64 { return r.TTFTP99Ms }},
	{name: "sim_tpot_p99_ms", unit: "ms_virtual", bound: 0.05, exact: true,
		value: func(r rep) float64 { return r.TPOTP99Ms }},
	{name: "sim_slo_attainment", unit: "fraction", higher: true, bound: 0.05, exact: true,
		value: func(r rep) float64 { return r.Attainment }},
	{name: "sim_goodput_rps", unit: "req/s_virtual", higher: true, bound: 0.10, exact: true,
		value: func(r rep) float64 { return r.GoodputRPS }},
	{name: "completed_frac", unit: "fraction", higher: true, bound: 0.02, exact: true,
		value: func(r rep) float64 { return float64(r.Completed) / float64(r.Requests) }},
}

// layerMetric is one per-layer metric of the traced run. Per-layer
// metrics carry no bound; higher records the direction an improvement of
// the layer would move them.
type layerMetric struct {
	name, unit string
	higher     bool
}

// perLayer lists every per-layer metric in print order. BENCHMARK.json
// repeats their names, units and directions. A workload that does not
// exercise a layer reports 0 for its counters.
var perLayer = []layerMetric{
	{"workload.cpu_share", "fraction", false}, {"workload.next_s", "s", false},
	{"sim.cpu_share", "fraction", false}, {"sim.alloc_share", "fraction", false},
	{"engine.cpu_share", "fraction", false}, {"engine.alloc_share", "fraction", false},
	{"engine.prefill_util", "fraction", true}, {"engine.decode_util", "fraction", true},
	{"engine.prefill_queue_ms", "ms_virtual", false}, {"engine.decode_queue_ms", "ms_virtual", false},
	{"engine.decode_queue_p99_ms", "ms_virtual", false}, {"engine.swap_stall_s", "s_virtual", false},
	{"perf.cpu_share", "fraction", false},
	{"sched.cpu_share", "fraction", false}, {"sched.dispatched", "count", true}, {"sched.rescheduled", "count", false},
	{"sched.backups", "count", false}, {"sched.dispatch_frac", "fraction", true},
	{"kvcache.cpu_share", "fraction", false}, {"kvcache.alloc_share", "fraction", false},
	{"kvcache.failed_allocs", "count", false}, {"kvcache.swap_out_events", "count", false},
	{"kvcache.backup_reclaims", "count", false}, {"kvcache.prefix_hit_ratio", "fraction", true},
	{"kvcache.prefix_evictions", "count", false}, {"kvcache.prefix_demotions", "count", false},
	{"kvcache.prefix_restored_tokens", "count", false}, {"kvcache.live_blocks_end", "count", false},
	{"xfer.cpu_share", "fraction", false}, {"xfer.transfer_gb", "GB", false}, {"xfer.migration_gb", "GB", false},
	{"xfer.async_xfers", "count", true},
	{"metrics.cpu_share", "fraction", false}, {"metrics.alloc_share", "fraction", false},
	{"serve.cpu_share", "fraction", false}, {"serve.alloc_share", "fraction", false},
	{"fleet.cpu_share", "fraction", false}, {"fleet.alloc_share", "fraction", false},
	{"fleet.failovers", "count", false}, {"fleet.recovered", "count", true}, {"fleet.wasted_tokens", "count", false},
	{"fleet.brownout_s", "s_virtual", false},
	{"shard.cpu_share", "fraction", false}, {"shard.windows", "count", false}, {"shard.crossings", "count", false},
	{"shard.solo_windows", "count", true}, {"shard.delivered", "count", false}, {"shard.crossing_frac", "fraction", false},
	{"other.cpu_share", "fraction", false},
	{"runtime.gc_share", "fraction", false}, {"runtime.other_share", "fraction", false},
	{"runtime.gc_cpu_frac", "fraction", false}, {"runtime.gc_cycles", "count", false},
	{"runtime.alloc_bytes_per_req", "B", false},
	{"trace.overhead", "ratio", false},
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads read the same here as in any script that checks them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
