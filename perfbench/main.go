// Command perfbench is the repository's benchmark: three closed-loop
// sweep workloads (mech_grid, bisection_sweep, latency_predict) driven
// through the simulator's public layer functions, each checked for
// correctness and reported as one JSON result line.
//
//	bash perfbench/run.sh --workload mech_grid --seed 1 --seconds 40 --trace 0
//
// run.sh builds this package and runs it from the repository root.
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) repeats the same configurations through direct layer
// calls, records spans, and reports the per-layer metrics and layer
// probes. See README.md for the metric-to-workload table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

// defaultSeed reproduces the paper-figure inputs; expected simulated
// statistics are committed for it.
const defaultSeed = 1

// setupReps is how many times a run builds its inputs to time set-up.
const setupReps = 15

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    core.Scale // ScaleSweep; the smoke tests use ScaleTiny
	spansDir string     // where a traced run writes its spans
	workers  int
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	var writeExpected bool
	flag.StringVar(&o.workload, "workload", "", "workload: mech_grid, bisection_sweep or latency_predict")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the default reproduces the paper-figure inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measure for this many seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory a traced run writes its spans to")
	flag.BoolVar(&writeExpected, "write-expected", false, "run every workload once at the default seed and rewrite "+expectedFile)
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.scale = core.ScaleSweep
	o.workers = runtime.GOMAXPROCS(0)

	if writeExpected {
		if err := regenerateExpected(o.workers); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// info is the line before the result: what two runs must share to be
// comparable, and the deterministic figures of the pass.
type info struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Scale      string    `json:"scale"`
	Traced     bool      `json:"traced"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	Passes     int       `json:"passes"`
	PassWalls  []float64 `json:"pass_wall_s"`
	SimsPass   int       `json:"sims_per_pass"`
	PredPass   int       `json:"predicted_points_per_pass,omitempty"`
	ErrMaxPct  float64   `json:"predict_err_max_pct,omitempty"`
	PrunedFrac float64   `json:"pruned_frac,omitempty"`
	Checked    bool      `json:"expected_checked"`
	SpansFile  string    `json:"spans_file,omitempty"`
	Failures   []string  `json:"failures,omitempty"`
}

// run executes one invocation: set-up, passes until the time is spent,
// correctness checks, and the metrics of the requested kind.
func run(o options) (result, info, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return result{}, info{}, fmt.Errorf("unknown workload %q (want mech_grid, bisection_sweep or latency_predict)", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, info{}, errors.New("--seconds must be positive")
	}
	var want map[string]record
	checked := o.seed == defaultSeed && o.scale == core.ScaleSweep
	if checked {
		all, err := loadExpected()
		if err != nil {
			return result{}, info{}, err
		}
		want = all[o.workload]
		if len(want) == 0 {
			return result{}, info{}, fmt.Errorf("no expected statistics for %s", o.workload)
		}
	}
	in := inputs{seed: o.seed, scale: o.scale, workers: o.workers}

	// Set-up: build the pass inputs several times; report the median.
	var setups []float64
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		start := time.Now()
		if err := wl.setup(in); err != nil {
			return result{}, info{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	g := gate{want: want}
	inf := info{
		Workload: o.workload, Seed: o.seed, Scale: o.scale.String(), Traced: o.trace,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: o.workers,
		Checked: checked,
	}
	var (
		vals map[string]float64
		err  error
	)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		vals, err = tracedRun(o, wl, in, &g, &inf)
	} else {
		vals, err = untracedRun(o, wl, in, &g, &inf)
		if err == nil {
			vals["setup_s"] = median(setups)
		}
	}
	if err != nil {
		return result{}, info{}, err
	}
	metrics, err := withUnits(defs, vals)
	if err != nil {
		return result{}, info{}, err
	}
	inf.Failures = g.failures
	return result{
		Correct:   g.failed == 0 && g.attempted > 0,
		Attempted: g.attempted,
		Failed:    g.failed,
		Metrics:   metrics,
	}, inf, nil
}

// passStats is the host cost of one untraced pass.
type passStats struct {
	wall, cpu time.Duration
	allocMB   float64
}

// timedPass runs fn and measures its wall time, process CPU time and
// allocated bytes.
func timedPass(fn func()) passStats {
	runtime.GC() // every pass starts from the same collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&after)
	return passStats{wall: wall, cpu: c1 - c0, allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)}
}

// keepGoing reports whether another pass fits in the measuring window:
// always at least one pass, then only while the last pass's duration
// still fits in what remains.
func keepGoing(start time.Time, seconds float64, passes int, last time.Duration) bool {
	if passes == 0 {
		return true
	}
	return time.Since(start).Seconds()+last.Seconds() <= seconds
}

// untracedRun measures whole passes with tracing off.
func untracedRun(o options, wl workload, in inputs, g *gate, inf *info) (map[string]float64, error) {
	var walls, cpus, allocs []float64
	start := time.Now()
	var last time.Duration
	for keepGoing(start, o.seconds, len(walls), last) {
		var out passOut
		var perr error
		st := timedPass(func() { out, perr = wl.pass(in) })
		if perr != nil {
			return nil, perr
		}
		g.check(out)
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		allocs = append(allocs, st.allocMB)
		last = st.wall
		inf.SimsPass, inf.PredPass = out.sims, out.predicted
		inf.ErrMaxPct, inf.PrunedFrac = out.errMaxPct, out.prunedFrac
	}
	inf.Passes, inf.PassWalls = len(walls), walls
	return map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": peakRSSMB(),
	}, nil
}

// tracedRun measures the layer probes, then alternates a plain pass (as
// untraced) with a traced pass of the same configurations until the time
// is spent. Work counts are per pass; times are medians over passes.
func tracedRun(o options, wl workload, in inputs, g *gate, inf *info) (map[string]float64, error) {
	start := time.Now()
	tr := newTracer()
	vals, err := runProbes(tr, in.scale)
	if err != nil {
		return nil, err
	}
	per := make(map[string][]float64)
	note := func(name string, v float64) { per[name] = append(per[name], v) }
	var plainWalls, tracedWalls []float64
	var last time.Duration
	for keepGoing(start, o.seconds, len(plainWalls), last) {
		iter := time.Now()
		var plain passOut
		var perr error
		ps := timedPass(func() { plain, perr = wl.pass(in) })
		if perr != nil {
			return nil, perr
		}
		g.check(plain)
		var t tracedOut
		ts := timedPass(func() { t, perr = wl.tracedPass(in, tr, plain) })
		if perr != nil {
			return nil, perr
		}
		g.check(t.passOut)
		plainWalls = append(plainWalls, ps.wall.Seconds())
		tracedWalls = append(tracedWalls, (ts.wall - time.Duration(t.extraNs)).Seconds())
		last = time.Since(iter)

		c := t.counts
		note("workload.gen_ms", float64(c.genNs)/1e6)
		note("apps.setup_ms", float64(c.setupNs)/1e6)
		note("apps.validate_ms", float64(c.validateNs)/1e6)
		note("machine.new_ms", float64(c.newNs)/1e6)
		note("machine.run_ms", float64(c.runNs)/1e6)
		note("sim.events", float64(c.events))
		note("sim.host_ns_per_event", ratio(float64(c.runNs), float64(c.events)))
		note("sim.thread_switches", float64(c.switches))
		note("mesh.packets", float64(c.packets))
		note("mesh.xtraffic_packets", float64(c.xpackets))
		note("mesh.retries", float64(c.retry))
		note("mem.remote_misses", float64(c.ev.RemoteMisses()))
		note("mem.limitless_traps", float64(c.ev.LimitLESSTraps))
		note("mem.invalidations", float64(c.ev.Invalidations))
		note("mem.prefetch_useful_frac", ratio(float64(c.ev.PrefetchUseful), float64(c.ev.PrefetchIssued)))
		note("mem.miss_wait_cycles", float64(c.missWait))
		note("am.messages", float64(c.ev.MessagesSent))
		note("am.ni_full_stalls", float64(c.ev.NIQueueFullStall))
		note("am.poll_hit_frac", ratio(float64(c.ev.PollHits), float64(c.ev.Polls)))
		note("am.msg_wait_cycles", float64(c.msgWait))
		note("psync.lock_spins", float64(c.ev.LockSpins))
		note("psync.barrier_arrivals", float64(c.ev.BarrierArrivals))
		note("obs.crit_edges", float64(c.critEdges))
		critOverhead := 0.0
		if t.plainNs > 0 {
			critOverhead = float64(t.instrNs)/float64(t.plainNs) - 1
		}
		note("obs.critpath_overhead_frac", critOverhead)
		note("predict.build_ms", float64(t.buildNs)/1e6)
		note("predict.solve_us_per_point", ratio(float64(t.solveNs)/1e3, float64(t.solves)))
		note("predict.points", float64(plain.predicted))
		predictSims := 0
		if plain.predicted > 0 {
			predictSims = plain.sims
		}
		note("predict.sims_run", float64(predictSims))
		note("predict.err_max_pct", plain.errMaxPct)
		note("predict.pruned_frac", plain.prunedFrac)
		note("core.executed", float64(plain.executed))
		note("core.memo_hits", float64(plain.memoHits))
		busy := 0.0
		if plain.executed > 0 {
			busy = ps.cpu.Seconds() / (ps.wall.Seconds() * float64(in.workers))
		}
		note("core.pool_busy_frac", busy)
		inf.SimsPass, inf.PredPass = plain.sims, plain.predicted
		inf.ErrMaxPct, inf.PrunedFrac = plain.errMaxPct, plain.prunedFrac
	}
	inf.Passes, inf.PassWalls = len(plainWalls), plainWalls
	for name, xs := range per {
		vals[name] = median(xs)
	}
	vals["bench.trace_overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1
	name, err := tr.write(o.spansDir, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	inf.SpansFile = name
	return vals, nil
}

// withUnits attaches each metric's unit from defs, and fails unless vals
// holds exactly the metrics defs names.
func withUnits(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, the table names %d", len(vals), len(defs))
	}
	return out, nil
}
