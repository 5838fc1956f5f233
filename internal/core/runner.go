package core

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// Runner executes experiment runs on a worker pool with memoization.
// Simulations are isolated per machine.New and workloads are generated
// from fixed seeds, so a run's result depends only on its RunConfig;
// the runner exploits both properties: identical configurations execute
// once (single-flight, cached), and distinct configurations execute
// concurrently. Results are bit-identical to serial execution.
//
// A Runner is safe for concurrent use. Cached results are shared — treat
// RunResult (including its PerProc slice and Trace buffer) as read-only.
type Runner struct {
	workers int

	mu    sync.Mutex
	cache map[RunConfig]*runnerEntry

	hits     atomic.Uint64
	diskHits atomic.Uint64
	executed atomic.Uint64

	failMu   sync.Mutex
	failures []*RunError

	tele atomic.Pointer[Telemetry]
	disk atomic.Pointer[DiskCache]
}

// runnerEntry is one memoized (possibly in-flight) run.
type runnerEntry struct {
	done chan struct{} // closed when res/err are valid
	res  RunResult
	err  error
}

// NewRunner returns a runner with the given worker-pool width; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, cache: make(map[RunConfig]*runnerEntry)}
}

// DefaultRunner is the process-wide runner the figures and the public
// facade sweep on: points and mechanisms execute concurrently on a
// worker pool and identical configurations are memoized, with results
// bit-identical to serial execution. Its cache persists across sweeps,
// so e.g. regenerating Figure 8 after Figure 7 reuses any overlapping
// points. Use a fresh Runner for an isolated cache or an explicit
// worker count.
var DefaultRunner = NewRunner(0)

// SetDefaultWorkers resets the default runner to n workers (n <= 0 means
// GOMAXPROCS) with a fresh cache. It is not safe to call concurrently
// with sweeps on the default runner.
func SetDefaultWorkers(n int) { DefaultRunner = NewRunner(n) }

// Workers reports the pool width.
func (r *Runner) Workers() int { return r.workers }

// Stats reports how many runs were served from cache and how many
// actually executed a simulation.
func (r *Runner) Stats() (hits, executed uint64) {
	return r.hits.Load(), r.executed.Load()
}

// DiskHits reports how many runs were served from the persistent disk
// cache (a subset of neither Stats counter: disk hits execute no
// simulation and did not hit the in-memory cache).
func (r *Runner) DiskHits() uint64 { return r.diskHits.Load() }

// SetDiskCache attaches (or, with nil, detaches) a persistent result
// cache: subsequent misses of the in-memory cache consult the disk
// before simulating, and executed runs are stored back. Safe to call
// concurrently with sweeps.
func (r *Runner) SetDiskCache(dc *DiskCache) { r.disk.Store(dc) }

// SetTelemetry attaches (or, with nil, detaches) an observability sink:
// every subsequent Run — cache hit or miss — is logged to it, and
// executed runs write their timeline/metrics/trace artifacts. Safe to
// call concurrently with sweeps; in-flight runs may record to either
// sink around the switch.
func (r *Runner) SetTelemetry(t *Telemetry) { r.tele.Store(t) }

// ClearCache drops all memoized results.
func (r *Runner) ClearCache() {
	r.mu.Lock()
	r.cache = make(map[RunConfig]*runnerEntry)
	r.mu.Unlock()
}

// Failures returns the crashed runs recovered so far, one per distinct
// failing configuration (cache hits on a failed entry do not re-report).
// Callers like paperbench use it to report sweep failures and exit
// nonzero after letting the surviving points complete.
func (r *Runner) Failures() []*RunError {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return append([]*RunError(nil), r.failures...)
}

// fingerprint canonicalizes rc into the cache key: knobs that cannot
// affect the simulation are normalized away so incidentally-different
// configurations still dedupe. machine.Config is comparable (scalars
// only), so the canonical RunConfig is itself the key.
func fingerprint(rc RunConfig) RunConfig {
	if rc.Machine.CrossTraffic.BytesPerCycle == 0 {
		// Cross-traffic is only started for a nonzero rate; the message
		// size is inert without it.
		rc.Machine.CrossTraffic = mesh.CrossTraffic{}
	}
	if rc.Machine.FaultSpec == "" {
		// The fault seed is inert without a fault spec.
		rc.Machine.FaultSeed = 0
	}
	if rc.Machine.NoiseSpec == "" {
		// Likewise, the noise seed is inert without a noise spec.
		rc.Machine.NoiseSeed = 0
	}
	if !rc.Machine.CritPath {
		// The edge-ring capacity is inert without the critical-path
		// profiler. With it, distinct caps key separately: they change
		// which edges the rings retain, and through them the recorder
		// and top-edge summary a cached RunResult carries.
		rc.Machine.CritEdgeCap = 0
	}
	if rc.Machine.Nodes() == BaseProcs {
		// Weak and strong scaling coincide at the paper's machine size
		// (the problem-growth factor is 1), so the flag is inert.
		rc.ScaleProblem = false
	}
	return rc
}

// Run executes one configuration, memoized and single-flight: the first
// caller for a fingerprint runs the simulation, concurrent duplicates
// block on it, later duplicates return the cached result immediately.
func (r *Runner) Run(rc RunConfig) (RunResult, error) {
	key := fingerprint(rc)
	r.mu.Lock()
	e, ok := r.cache[key]
	if ok {
		r.mu.Unlock()
		r.hits.Add(1)
		start := time.Now()
		<-e.done
		r.tele.Load().observe(rc, e.res, e.err, time.Since(start), true)
		return e.res, e.err
	}
	e = &runnerEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	if dc := r.disk.Load(); dc != nil {
		if res, ok := dc.Load(key); ok {
			r.diskHits.Add(1)
			e.res = res
			close(e.done)
			r.tele.Load().observe(rc, e.res, nil, 0, true)
			return e.res, nil
		}
	}
	r.executed.Add(1)
	start := time.Now()
	e.res, e.err = Run(rc)
	wall := time.Since(start)
	if re, ok := e.err.(*RunError); ok {
		r.failMu.Lock()
		r.failures = append(r.failures, re)
		r.failMu.Unlock()
	}
	close(e.done)
	if dc := r.disk.Load(); dc != nil && e.err == nil {
		if serr := dc.Store(key, e.res); serr != nil {
			fmt.Fprintf(os.Stderr, "core: %v\n", serr)
		}
	}
	r.tele.Load().observe(rc, e.res, e.err, wall, false)
	return e.res, e.err
}

// RunBatch executes configurations on the worker pool and returns their
// results in input order. On error it returns the first error encountered
// in input order among completed jobs; remaining jobs are abandoned.
func (r *Runner) RunBatch(rcs []RunConfig) ([]RunResult, error) {
	out := make([]RunResult, len(rcs))
	workers := r.workers
	if workers > len(rcs) {
		workers = len(rcs)
	}
	if workers <= 1 {
		for i, rc := range rcs {
			res, err := r.Run(rc)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errMu   sync.Mutex
		firstI  int
		firstEr error
		wg      sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= len(rcs) {
					return
				}
				res, err := r.Run(rcs[i])
				if err != nil {
					errMu.Lock()
					if firstEr == nil || i < firstI {
						firstI, firstEr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return out, nil
}

// RunBatchAll executes every configuration on the worker pool, never
// aborting: errs[i] is non-nil exactly where job i failed. Unlike
// RunBatch, one crashing point leaves the rest of the batch completed —
// this is the sweep runners' isolation guarantee.
func (r *Runner) RunBatchAll(rcs []RunConfig) (out []RunResult, errs []error) {
	out = make([]RunResult, len(rcs))
	errs = make([]error, len(rcs))
	workers := r.workers
	if workers > len(rcs) {
		workers = len(rcs)
	}
	if workers <= 1 {
		for i, rc := range rcs {
			out[i], errs[i] = r.Run(rc)
		}
		return out, errs
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(rcs) {
					return
				}
				out[i], errs[i] = r.Run(rcs[i])
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// BisectionSweep reproduces the Figure 8 methodology: I/O cross-traffic
// consumes crossRates[i] bytes/cycle of the bisection; each point's X is
// the emulated bisection (native minus cross-traffic) in bytes per
// processor cycle. msgBytes is the cross-traffic message size (the paper
// settles on 64 after Figure 7).
func (r *Runner) BisectionSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, crossRates []float64, msgBytes int) ([]SweepPoint, error) {
	return r.simulate(app, sc, bisectionGrid(mechs, base, crossRates, msgBytes), false)
}

// ClockSweep reproduces the Figure 9 methodology: the processor clock
// varies (the paper's 14-20 MHz range and beyond) while the asynchronous
// network is untouched, so relative network latency varies. X is the
// one-way network latency of a 24-byte packet in processor cycles over
// the average distance (the paper's Table 1 convention).
func (r *Runner) ClockSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, mhzs []float64) ([]SweepPoint, error) {
	return r.simulate(app, sc, clockGrid(mechs, base, mhzs), false)
}

// ContextSwitchSweep reproduces the Figure 10 methodology: every remote
// miss costs a uniform emulated latency over an ideal network (infinite
// bandwidth). Only the shared-memory mechanisms are affected; the paper
// plots message-passing curves for reference only, and so does this
// sweep (their machine config is untouched, so they execute once and are
// shared across points). X is the emulated one-way latency in processor
// cycles.
func (r *Runner) ContextSwitchSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, oneWayCycles []int64) ([]SweepPoint, error) {
	return r.simulate(app, sc, contextSwitchGrid(mechs, base, oneWayCycles), false)
}

// NodeScalingSweep reproduces the Figure S1 methodology: the same
// application and mechanisms across machine geometries of nodeCounts
// nodes each (canonical machine.Geometry shapes; base supplies every
// non-geometry knob). X is the node count. With scaleProblem false the
// problem size stays at the scale's fixed size (strong scaling); with
// true it grows proportionally to the node count (weak scaling, constant
// work per processor). The paper never ran beyond 32 nodes; this sweep
// is the reproduction's extrapolation of its central question to the
// scale-out regime. Node counts whose workload cannot be partitioned
// (e.g. a fixed-size graph with fewer nodes than processors) are
// isolated like crashed points: absent from that point's Results,
// reported via Failures only when the run itself crashed.
func (r *Runner) NodeScalingSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, nodeCounts []int, scaleProblem bool) ([]SweepPoint, error) {
	cfgs := make([]machine.Config, len(nodeCounts))
	xs := make([]float64, len(nodeCounts))
	for i, n := range nodeCounts {
		w, h, err := machine.Geometry(n)
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Width, cfg.Height = w, h
		cfgs[i] = cfg
		xs[i] = float64(n)
	}
	return r.simulate(app, sc, uniformGrid(xs, mechs, base, cfgs, nil), scaleProblem)
}

// MsgLenSweep reproduces Figure 7: the sensitivity of the bisection
// emulation to the cross-traffic message length. It holds the emulated
// bisection constant and varies the message size; X is the message size
// in bytes, and the result records the application runtime plus the
// achieved cross-traffic rate.
func (r *Runner) MsgLenSweep(app AppName, sc Scale, mech apps.Mechanism, base machine.Config, crossRate float64, sizes []int) ([]SweepPoint, error) {
	cfgs := make([]machine.Config, len(sizes))
	xs := make([]float64, len(sizes))
	for i, size := range sizes {
		cfg := base
		cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: size, BytesPerCycle: crossRate}
		cfgs[i] = cfg
		xs[i] = float64(size)
	}
	return r.simulate(app, sc, uniformGrid(xs, []apps.Mechanism{mech}, base, cfgs, nil), false)
}
