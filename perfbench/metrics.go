package main

import (
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The tables below are the single
// source of the names and units BENCHMARK.json lists; the benchmark's
// own tests hold the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},       // median wall time of one pass
	{"cpu_s", "s", "lower"},        // median process user+sys time of one pass
	{"alloc_mb", "MB", "lower"},    // median bytes allocated by one pass
	{"peak_rss_mb", "MB", "lower"}, // process peak resident set at exit
	{"setup_s", "s", "lower"},      // median time to build a pass's inputs
}

// perLayer is what a traced run reports, for every workload. Work
// counts are per pass and deterministic; times are medians over passes.
// A layer the workload does not reach reports zero.
var perLayer = []metricDef{
	{"workload.gen_ms", "ms", "lower"},
	{"apps.setup_ms", "ms", "lower"},
	{"apps.validate_ms", "ms", "lower"},
	{"machine.new_ms", "ms", "lower"},
	{"machine.run_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.host_ns_per_event", "ns/event", "lower"},
	{"sim.thread_switches", "count", "lower"},
	{"sim.switch_ns", "ns", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"mesh.packets", "count", "lower"},
	{"mesh.xtraffic_packets", "count", "lower"},
	{"mesh.retries", "count", "lower"},
	{"mesh.packet_1hop_ns", "ns", "lower"},
	{"mesh.packet_bisection_ns", "ns", "lower"},
	{"mem.remote_misses", "count", "lower"},
	{"mem.limitless_traps", "count", "lower"},
	{"mem.invalidations", "count", "lower"},
	{"mem.prefetch_useful_frac", "frac", "higher"},
	{"mem.miss_wait_cycles", "cycles", "lower"},
	{"mem.remote_miss_ns", "ns", "lower"},
	{"mem.limitless_read_ns", "ns", "lower"},
	{"am.messages", "count", "lower"},
	{"am.ni_full_stalls", "count", "lower"},
	{"am.poll_hit_frac", "frac", "higher"},
	{"am.msg_wait_cycles", "cycles", "lower"},
	{"am.null_msg_ns", "ns", "lower"},
	{"psync.lock_spins", "count", "lower"},
	{"psync.barrier_arrivals", "count", "lower"},
	{"obs.crit_edges", "count", "lower"},
	{"obs.critpath_overhead_frac", "frac", "lower"},
	{"predict.build_ms", "ms", "lower"},
	{"predict.solve_us_per_point", "us", "lower"},
	{"predict.solve_probe_us", "us", "lower"},
	{"predict.points", "count", "higher"},
	{"predict.sims_run", "count", "lower"},
	{"predict.err_max_pct", "%", "lower"},
	{"predict.pruned_frac", "frac", "higher"},
	{"core.executed", "count", "lower"},
	{"core.memo_hits", "count", "higher"},
	{"core.pool_busy_frac", "frac", "higher"},
	{"core.memo_hit_ns", "ns", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
