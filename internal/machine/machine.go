package machine

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes one machine instance. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	Width, Height int     // mesh dimensions; Nodes = Width*Height
	ClockMHz      float64 // processor clock (the paper scales 14-20)

	// Network (wall-clock units: the network is asynchronous).
	HopLatency sim.Time // per-router head latency
	PsPerByte  sim.Time // per-link serialization
	Torus      bool     // wraparound links in both dimensions (T3D/T3E-style)
	AdaptiveXY bool     // minimal adaptive (XY/YX) routing ablation

	Mem mem.Params
	AM  am.Params

	// PrefetchIssueCycles is the processor cost of executing one prefetch
	// instruction (useful or useless).
	PrefetchIssueCycles int64

	// InterruptCheckCycles bounds interrupt latency during long computes:
	// a computing processor notices pending message interrupts at least
	// this often.
	InterruptCheckCycles int64

	// CrossTraffic, if non-zero, emulates reduced bisection bandwidth
	// (Figure 8): BytesPerCycle of I/O traffic is streamed across the
	// bisection for the whole run.
	CrossTraffic mesh.CrossTraffic

	// IdealNetOneWayCycles, if nonzero, switches shared memory to the
	// Figure 10 emulation: every coherence message takes exactly this
	// many processor cycles one-way, uniformly, with infinite bandwidth.
	IdealNetOneWayCycles int64

	// TraceCap, if nonzero, records the last TraceCap protocol and
	// message events into Machine.Trace for post-run inspection.
	TraceCap int

	// Metrics enables the deterministic observability registry
	// (Machine.Obs): per-link mesh utilization, NI occupancy, miss
	// latency histograms, and per-thread cycle breakdowns. Purely
	// passive — enabling it never changes simulated timing.
	Metrics bool

	// SpanCap, if nonzero, records the last SpanCap thread-state spans
	// (run vs blocked intervals per processor thread) into Machine.Spans
	// for timeline export.
	SpanCap int

	// CritPath enables the critical-path profiler: causal edges (message
	// send→receive, miss→fill, directory txn begin→grant, barrier
	// arrive→release) are recorded into a bounded ring, and the
	// post-run pass attributes every cycle of the last-finishing
	// processor's timeline to {compute, mem stall, net latency, net
	// bandwidth, sync} in Result.CritPath. Purely passive — enabling it
	// never changes simulated timing.
	CritPath bool

	// CritEdgeCap, if nonzero, overrides the causal-edge ring
	// capacity the critical-path profiler retains (default
	// obs.DefaultCritEdgeCap). The prediction layer raises it so the
	// whole edge stream of an instrumented run survives as a dependency
	// DAG; the top-edge summary in Result.CritPath only grows more exact
	// with a larger cap. Meaningful only with CritPath. Passive like
	// CritPath itself: it sizes an observation ring, never timing.
	CritEdgeCap int

	// FaultSpec, if nonempty, enables deterministic fault injection (see
	// fault.Parse for the grammar). Kept as the canonical spec string —
	// not a parsed struct — so Config stays comparable for the sweep
	// runner's memoization cache. Only discrete-fault clauses (jitter,
	// outage, stall) are allowed here; noise clauses go in NoiseSpec.
	FaultSpec string
	// FaultSeed seeds the fault schedule; meaningful only with FaultSpec.
	FaultSeed uint64

	// NoiseSpec, if nonempty, enables seeded stochastic noise injection:
	// hostnoise, netnoise, and delay clauses (see fault.Parse). Kept
	// separate from FaultSpec so noise seeds sweep independently of fault
	// schedules; like FaultSpec it is the canonical spec string so Config
	// stays comparable.
	NoiseSpec string
	// NoiseSeed seeds the noise streams; meaningful only with NoiseSpec.
	NoiseSeed uint64

	// EventLimit overrides the runaway-simulation guard (dispatched-event
	// cap); 0 uses the default of 2e9 events.
	EventLimit uint64
	// DeadlineCycles, if nonzero, arms the no-forward-progress watchdog:
	// the run fails with a diagnostic dump if simulated time would pass
	// this many processor cycles with processors still unfinished.
	DeadlineCycles int64
}

// DefaultConfig returns the calibrated 32-node Alewife: 8x4 mesh at
// 20 MHz, 18 bytes/cycle bisection, ~15-cycle 24-byte one-way latency.
func DefaultConfig() Config {
	return Config{
		Width: 8, Height: 4,
		ClockMHz:             20,
		HopLatency:           40 * sim.Nanosecond,    // 0.8 cycles at 20 MHz
		PsPerByte:            22223 * sim.Picosecond, // 2.25 bytes/cycle/link
		Mem:                  mem.DefaultParams(),
		AM:                   am.DefaultParams(),
		PrefetchIssueCycles:  3,
		InterruptCheckCycles: 100,
	}
}

// MaxNodes is the largest supported machine, bounded by the directory's
// sharer-bitset capacity (see mem.MaxNodes).
const MaxNodes = mem.MaxNodes

// Geometry factors nodes into the canonical P×Q wormhole-mesh shape:
// the widest near-square grid, width >= height, matching Alewife's 8x4
// at 32 nodes and growing square-ish for the scale-out sizes
// (64 -> 8x8, 128 -> 16x8, 256 -> 16x16, 512 -> 32x16). Height is the
// largest divisor of nodes not exceeding sqrt(nodes); a prime count
// degenerates to an Nx1 path. Errors when nodes is outside
// [1, MaxNodes].
func Geometry(nodes int) (width, height int, err error) {
	if nodes < 1 || nodes > MaxNodes {
		return 0, 0, fmt.Errorf("machine: %d nodes outside the supported range [1, %d]", nodes, MaxNodes)
	}
	height = 1
	for h := 2; h*h <= nodes; h++ {
		if nodes%h == 0 {
			height = h
		}
	}
	return nodes / height, height, nil
}

// ConfigForNodes returns the calibrated Alewife configuration scaled to
// an arbitrary node count: per-node parameters (clock, link bandwidth,
// hop latency, memory and AM costs) are unchanged — so per-node link
// bandwidth is constant while bisection bandwidth per node shrinks and
// average hop count grows with the machine, which is exactly the
// scale-out regime the Figure S1 experiment probes. ConfigForNodes(32)
// equals DefaultConfig.
func ConfigForNodes(nodes int) (Config, error) {
	w, h, err := Geometry(nodes)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	return cfg, nil
}

// Nodes returns the node count.
func (c Config) Nodes() int { return c.Width * c.Height }

// Machine is one simulated multiprocessor instance. Build it with New,
// set up application state (allocations, handlers), then call Run exactly
// once.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Clk   sim.Clock
	Net   *mesh.Network
	Store *mem.Store
	Mem   *mem.System
	AM    *am.System
	Procs []*Proc

	// Trace holds the last Cfg.TraceCap events when tracing is enabled.
	Trace *trace.Buffer

	// Obs is the metrics registry when Cfg.Metrics is set; nil otherwise.
	Obs *obs.Registry

	// Spans holds the last Cfg.SpanCap thread-state spans when span
	// recording is enabled; nil otherwise.
	Spans *obs.SpanBuffer

	// Crit is the critical-path recorder when Cfg.CritPath is set; nil
	// otherwise.
	Crit *obs.CritRecorder

	// Faults is the live fault injector; nil unless Cfg.FaultSpec is set.
	Faults *fault.Injector

	// Noise is the live stochastic-noise injector; nil unless
	// Cfg.NoiseSpec is set. Separate from Faults so the two spec strings
	// keep independent seeds and RNG streams.
	Noise *fault.Injector

	ran    bool
	doneN  int
	finish sim.Time
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Nodes() < 1 {
		panic(fmt.Sprintf("machine: bad dimensions %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.Nodes() > MaxNodes {
		panic(fmt.Sprintf("machine: %dx%d = %d nodes exceeds the %d-node directory capacity",
			cfg.Width, cfg.Height, cfg.Nodes(), MaxNodes))
	}
	eng := sim.NewEngine()
	clk := sim.NewClock(cfg.ClockMHz)
	net := mesh.New(eng, mesh.Config{
		Width: cfg.Width, Height: cfg.Height,
		HopLatency: cfg.HopLatency, PsPerByte: cfg.PsPerByte,
		Torus: cfg.Torus, AdaptiveXY: cfg.AdaptiveXY,
	})
	store := mem.NewStore(cfg.Nodes())
	msys := mem.NewSystem(eng, net, clk, cfg.Mem, store)
	asys := am.NewSystem(eng, net, clk, cfg.AM)
	m := &Machine{
		Cfg: cfg, Eng: eng, Clk: clk, Net: net,
		Store: store, Mem: msys, AM: asys,
	}
	for i := 0; i < cfg.Nodes(); i++ {
		net.Attach(i, asys.Endpoint(i)) // AM queueing; coherence passes through
		m.Procs = append(m.Procs, &Proc{M: m, ID: i})
	}
	if cfg.IdealNetOneWayCycles > 0 {
		msys.SetIdealNetwork(clk.Cycles(cfg.IdealNetOneWayCycles))
	}
	if cfg.TraceCap > 0 {
		m.Trace = trace.New(cfg.TraceCap)
		msys.SetTrace(m.Trace)
		asys.SetTrace(m.Trace)
	}
	if cfg.Metrics {
		m.Obs = obs.NewRegistry()
		net.SetMetrics(m.Obs)
		msys.SetMetrics(m.Obs)
		asys.SetMetrics(m.Obs)
	}
	if cfg.SpanCap > 0 {
		m.Spans = obs.NewSpanBuffer(cfg.SpanCap)
		eng.SetSpanObserver(func(th *sim.Thread, start, end sim.Time, blocked bool, reason string, arg int64) {
			m.Spans.Add(obs.Span{
				Thread: th.Name(), Start: start, End: end,
				Blocked: blocked, Reason: reason, Arg: arg,
			})
		})
	}
	if cfg.CritPath {
		cap := cfg.CritEdgeCap
		if cap <= 0 {
			cap = obs.DefaultCritEdgeCap
		}
		m.Crit = obs.NewCritRecorder(cfg.Nodes(), cap)
		msys.SetCritPath(m.Crit)
	}
	if cfg.FaultSpec != "" {
		fc, err := fault.Parse(cfg.FaultSpec)
		if err != nil {
			panic(fmt.Sprintf("machine: bad fault spec: %v", err))
		}
		if fc.NoiseEnabled() {
			panic(fmt.Sprintf("machine: noise clauses in FaultSpec %q; put hostnoise/netnoise/delay in NoiseSpec", cfg.FaultSpec))
		}
		if fc.Enabled() {
			m.Faults = fault.NewInjector(fc, cfg.FaultSeed)
			net.SetFaultInjector(m.Faults)
			asys.SetFaultInjector(m.Faults)
		}
	}
	if cfg.NoiseSpec != "" {
		nc, err := fault.Parse(cfg.NoiseSpec)
		if err != nil {
			panic(fmt.Sprintf("machine: bad noise spec: %v", err))
		}
		if nc.FaultsEnabled() {
			panic(fmt.Sprintf("machine: fault clauses in NoiseSpec %q; put jitter/outage/stall in FaultSpec", cfg.NoiseSpec))
		}
		if nc.Enabled() {
			m.Noise = fault.NewInjector(nc, cfg.NoiseSeed)
			net.SetNoiseInjector(m.Noise)
		}
	}
	return m
}

// Alloc reserves words of shared memory homed at node.
func (m *Machine) Alloc(node, words int) mem.Addr { return m.Store.Alloc(node, words) }

// Result summarizes one run.
type Result struct {
	Time              sim.Time          // wall completion time (slowest processor)
	Cycles            int64             // Time in processor cycles
	PerProc           []stats.Breakdown // per-processor time breakdown
	Breakdown         stats.Breakdown   // machine-wide sum of PerProc
	Volume            stats.Volume      // application bytes injected, by kind
	Events            stats.Events      // mem + am counters merged
	Bisection         float64           // native bisection bandwidth, bytes/cycle
	EmulatedBisection float64           // native minus cross-traffic, bytes/cycle
	Links             []mesh.LinkLoad   // the run's three hottest mesh links

	// CritPath is the critical-path attribution when Cfg.CritPath is
	// set; nil otherwise. All fields exported so it survives JSON
	// round-trips (disk cache, runlog).
	CritPath *obs.CritStats

	// DoneCycles records when each processor's body returned, in cycles.
	// The per-node completion profile is what the delay-propagation
	// experiment reads: an injected delay on one node shifts completions
	// outward by hop distance (or not) depending on the mechanism.
	DoneCycles []int64

	// Noise counts stochastic noise actually injected; the zero value when
	// the config carries no NoiseSpec.
	Noise fault.Stats
}

// Run executes body on every processor concurrently (SPMD) and returns
// the run summary. It may be called once per Machine.
func (m *Machine) Run(body func(p *Proc)) Result {
	if m.ran {
		panic("machine: Run called twice; build a fresh Machine per run")
	}
	m.ran = true
	if m.Cfg.CrossTraffic.BytesPerCycle > 0 {
		m.Net.StartCrossTraffic(m.Cfg.CrossTraffic, m.Clk)
	}
	n := len(m.Procs)
	for _, p := range m.Procs {
		p := p
		p.th = m.Eng.Spawn(fmt.Sprintf("proc%d", p.ID), 0, func(th *sim.Thread) {
			body(p)
			p.doneAt = th.Now()
			m.doneN++
			if m.doneN == n {
				m.finish = th.Now()
				m.Net.StopCrossTraffic()
			}
		})
	}
	limit := m.Cfg.EventLimit
	if limit == 0 {
		limit = 2_000_000_000
	}
	m.Eng.SetEventLimit(limit)
	if m.Cfg.DeadlineCycles > 0 {
		m.Eng.SetDeadline(m.Clk.Cycles(m.Cfg.DeadlineCycles))
	}
	m.runEngine()
	if m.doneN != n {
		d := m.Eng.Diagnose(sim.StallDeadlock)
		d.Notes = append(d.Notes, fmt.Sprintf("only %d/%d processors finished", m.doneN, n))
		d = m.enrich(d)
		m.Eng.StopThreads()
		panic(d)
	}
	if err := m.Mem.CheckInvariants(true); err != nil {
		panic(fmt.Sprintf("machine: post-run %v", err))
	}
	res := Result{
		Time:    m.finish,
		Cycles:  m.Clk.ToCycles(m.finish),
		Volume:  m.Net.Volume(),
		Events:  m.Mem.Events().Plus(m.AM.Events()),
		PerProc: make([]stats.Breakdown, n),
	}
	res.DoneCycles = make([]int64, n)
	for i, p := range m.Procs {
		res.PerProc[i] = p.BD
		res.Breakdown = res.Breakdown.Plus(p.BD)
		res.Events = res.Events.Plus(p.Ev)
		res.DoneCycles[i] = m.Clk.ToCycles(p.doneAt)
	}
	if m.Noise != nil {
		res.Noise = m.Noise.Stats()
	}
	if m.Crit != nil {
		// The critical path of a barrier-terminated SPMD run is the
		// last-finishing processor's timeline (ties: lowest ID).
		crit := 0
		for i, p := range m.Procs {
			if p.doneAt > m.Procs[crit].doneAt {
				crit = i
			}
		}
		res.CritPath = m.Crit.Summarize(m.Clk, crit, m.Procs[crit].BD, critTopEdges)
	}
	res.Bisection = m.Net.Config().BisectionBytesPerCycle(m.Clk)
	//lint:allow simlint/intmath result-reporting field (Figure 8 x-axis); computed after the run ends
	res.EmulatedBisection = res.Bisection - m.Cfg.CrossTraffic.BytesPerCycle
	res.Links = m.Net.TopLinks(m.finish, 3)
	if m.Obs != nil {
		// Engine-level thread-state breakdown (the paper's "where do the
		// cycles go" split at its coarsest): run is charged execution,
		// block is waiting for fills/messages/locks, tail idle is load
		// imbalance — time between this processor finishing and the
		// machine finishing.
		for _, p := range m.Procs {
			run, block := p.th.TimeBreakdown()
			l := obs.NodeLabel(p.ID)
			m.Obs.Gauge("sim_thread_run_cycles", l).Set(m.Clk.ToCycles(run))
			m.Obs.Gauge("sim_thread_block_cycles", l).Set(m.Clk.ToCycles(block))
			m.Obs.Gauge("sim_thread_tail_idle_cycles", l).Set(m.Clk.ToCycles(m.finish - p.doneAt))
		}
	}
	return res
}

// runEngine drives the event loop, enriching any engine-level stall
// diagnostic (event limit, deadline, liveness) with machine-level state
// before re-panicking: busy directory transactions, occupied mesh links,
// and backed-up NI queues. A run that panics is given up, so its
// unfinished processor threads are stopped first; a sweep that recovers
// the panic keeps no goroutine of it.
func (m *Machine) runEngine() {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(*sim.StallError); ok {
				r = m.enrich(se)
			}
			m.Eng.StopThreads()
			panic(r)
		}
	}()
	m.Eng.Run()
}

// maxDumpNotes bounds each subsystem's contribution to a stall dump.
const maxDumpNotes = 8

// critTopEdges bounds the longest-edge summary carried in Result.CritPath.
const critTopEdges = 5

// enrich appends subsystem diagnostics to an engine stall error.
func (m *Machine) enrich(se *sim.StallError) *sim.StallError {
	for _, s := range m.Mem.BusyDump(maxDumpNotes) {
		se.Notes = append(se.Notes, "mem: "+s)
	}
	for _, s := range m.Net.OccupiedLinks(se.Now, maxDumpNotes) {
		se.Notes = append(se.Notes, "net: "+s)
	}
	for _, s := range m.AM.QueueDump(maxDumpNotes) {
		se.Notes = append(se.Notes, "am: "+s)
	}
	if m.Noise != nil {
		// Distinguish a noise-induced stall from a protocol deadlock: a
		// huge injected total means the watchdog likely tripped on noise.
		st := m.Noise.Stats()
		se.Notes = append(se.Notes, fmt.Sprintf(
			"noise: %d samples, %d ps injected (host %d samples/%d ps, net %d samples/%d ps, delays %d/%d ps)",
			st.Samples(), st.InjectedPs(), st.HostNoiseSamples, st.HostNoisePs,
			st.NetNoiseSamples, st.NetNoisePs, st.DelaysFired, st.DelayPs))
	}
	return se
}
