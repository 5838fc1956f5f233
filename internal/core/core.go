package core

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/iccg"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/unstruc"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AppName selects one of the paper's four applications.
type AppName string

// The four applications of the study.
const (
	EM3D    AppName = "em3d"
	UNSTRUC AppName = "unstruc"
	ICCG    AppName = "iccg"
	MOLDYN  AppName = "moldyn"
)

// AppNames lists the applications in the paper's presentation order.
var AppNames = []AppName{EM3D, UNSTRUC, ICCG, MOLDYN}

// Scale selects workload size.
type Scale int

const (
	// ScaleTiny: seconds-fast instances for unit tests.
	ScaleTiny Scale = iota
	// ScaleDefault: reduced instances preserving per-iteration behaviour;
	// the default for figure regeneration.
	ScaleDefault
	// ScaleSweep: further reduced instances for many-point sweeps.
	ScaleSweep
	// ScaleFull: the paper's published parameters (EM3D 10000 nodes,
	// degree 10, 50 iterations, ...). Slow.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleDefault:
		return "default"
	case ScaleSweep:
		return "sweep"
	case ScaleFull:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale is the inverse of Scale.String: it maps "tiny", "sweep",
// "default" or "full" to its Scale and rejects every other name.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{ScaleTiny, ScaleDefault, ScaleSweep, ScaleFull} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, sweep, default or full)", name)
}

// BaseProcs is the paper's machine size: every workload's published
// parameters assume a 32-processor partition, and scaled-problem sizing
// (weak scaling) holds per-processor work at its BaseProcs value.
const BaseProcs = 32

// NewApp constructs an application instance at the given scale for the
// paper's 32-processor machine. Instances are deterministic: the same
// (name, scale) always yields the same workload.
func NewApp(name AppName, sc Scale) (apps.App, error) {
	return NewAppSized(name, sc, BaseProcs, false)
}

// NewAppSized constructs an application instance at the given scale,
// partitioned over procs processors. With scaleProblem false the
// problem size is the scale's fixed size (strong scaling: the same
// problem cut into more pieces); with scaleProblem true the problem
// grows proportionally to procs/32, holding per-processor work constant
// (weak scaling). At procs = BaseProcs both modes equal NewApp exactly,
// byte for byte. Returns a descriptive error — not a panic — when the
// workload cannot be partitioned that finely (EM3D needs at least one
// graph node per processor; UNSTRUC and MOLDYN use the paper's RCB
// partitioner, which requires a power-of-two processor count).
func NewAppSized(name AppName, sc Scale, procs int, scaleProblem bool) (apps.App, error) {
	if procs < 1 {
		return nil, fmt.Errorf("core: %s with %d processors", name, procs)
	}
	// sized scales a base problem dimension by procs/BaseProcs in
	// weak-scaling mode, keeping the exact base value at BaseProcs.
	sized := func(base int) int {
		if !scaleProblem {
			return base
		}
		return base * procs / BaseProcs
	}
	pow2 := procs&(procs-1) == 0
	switch name {
	case EM3D:
		p := workload.DefaultEM3DParams()
		switch sc {
		case ScaleTiny:
			p = p.Scaled(sized(320), 2)
		case ScaleSweep:
			p = p.Scaled(sized(1000), 3)
		case ScaleDefault:
			p = p.Scaled(sized(2000), 5)
		case ScaleFull: // the paper's parameters
			p = p.Scaled(sized(p.Nodes), p.Iters)
		}
		p.Procs = procs
		if p.Nodes < p.Procs {
			return nil, fmt.Errorf("core: em3d at scale %s has %d graph nodes, too few for %d processors", sc, p.Nodes, procs)
		}
		return em3d.New(p), nil
	case UNSTRUC:
		if !pow2 {
			return nil, fmt.Errorf("core: unstruc RCB partitioning needs a power-of-two processor count, not %d", procs)
		}
		p := workload.DefaultUnstrucParams()
		switch sc {
		case ScaleTiny:
			p = p.Scaled(sized(400), 2)
		case ScaleSweep:
			p = p.Scaled(sized(1000), 3)
		case ScaleDefault:
			p = p.Scaled(sized(2000), 4) // the paper's 2000-node mesh
		case ScaleFull:
			p = p.Scaled(sized(2000), 10)
		}
		p.Procs = procs
		return unstruc.New(p), nil
	case ICCG:
		p := workload.DefaultICCGParams()
		switch sc {
		case ScaleTiny:
			p = p.Scaled(sized(640))
		case ScaleSweep:
			p = p.Scaled(sized(2000))
		case ScaleDefault:
			p = p.Scaled(sized(4000))
		case ScaleFull:
			p = p.Scaled(sized(8000))
		}
		p.Procs = procs
		return iccg.New(p), nil
	case MOLDYN:
		if !pow2 {
			return nil, fmt.Errorf("core: moldyn RCB partitioning needs a power-of-two processor count, not %d", procs)
		}
		p := workload.DefaultMoldynParams()
		switch sc {
		case ScaleTiny:
			p = p.ScaledBox(sized(256), 3)
			p.ListEvery = 2
		case ScaleSweep:
			p = p.ScaledBox(sized(512), 3)
			p.ListEvery = 2
		case ScaleDefault:
			p = p.ScaledBox(sized(1024), 6)
			p.ListEvery = 3
		case ScaleFull:
			p = p.ScaledBox(sized(2048), 20) // lists every 20 iterations, as published
		}
		p.Procs = procs
		return moldyn.New(p), nil
	}
	return nil, fmt.Errorf("core: unknown application %q", name)
}

// RunConfig is one experiment point. The workload is partitioned over
// exactly Machine.Nodes() processors, so changing the machine geometry
// automatically repartitions the application.
type RunConfig struct {
	App     AppName
	Mech    apps.Mechanism
	Scale   Scale
	Machine machine.Config
	// ScaleProblem grows the workload proportionally to
	// Machine.Nodes()/BaseProcs (weak scaling: constant per-processor
	// work). False keeps the scale's fixed problem size (strong
	// scaling). At 32 nodes the two modes are identical.
	ScaleProblem bool
	// SkipValidate skips the numerical check (sweeps re-run the same
	// validated workload many times; validation is O(workload)).
	SkipValidate bool
}

// RunResult is the outcome of one run.
type RunResult struct {
	machine.Result
	App  AppName
	Mech apps.Mechanism
	// Trace holds the machine's event trace when Machine.TraceCap was set.
	Trace *trace.Buffer
	// Obs holds the run's metrics registry when Machine.Metrics was set.
	Obs *obs.Registry
	// Spans holds the thread-state timeline when Machine.SpanCap was set.
	Spans *obs.SpanBuffer
	// Crit holds the critical-path recorder (edge stream) when
	// Machine.CritPath was set; the summary lives in Result.CritPath.
	Crit *obs.CritRecorder
}

// RunError is a crashed run recovered into a value: the simulation
// panicked (watchdog stall, protocol invariant violation, or an
// application bug) instead of completing. When the panic was a watchdog
// diagnostic, Stall carries it in structured form.
type RunError struct {
	App   AppName
	Mech  apps.Mechanism
	Panic string          // rendered panic value
	Stall *sim.StallError // structured watchdog diagnostic, when available
}

func (e *RunError) Error() string {
	return fmt.Sprintf("core: %s/%s run failed: %s", e.App, e.Mech, e.Panic)
}

// Run builds a fresh machine, runs the app under the mechanism, validates
// the numerical result against the sequential reference, and returns the
// measurements. A panicking simulation is recovered into a *RunError
// rather than crashing the process; machine.Run stops the crashed
// machine's unfinished threads before it panics, so a sweep of many
// crashing points accumulates nothing.
func Run(rc RunConfig) (res RunResult, err error) {
	a, err := NewAppSized(rc.App, rc.Scale, rc.Machine.Nodes(), rc.ScaleProblem)
	if err != nil {
		return RunResult{}, err
	}
	defer func() {
		if r := recover(); r != nil {
			re := &RunError{App: rc.App, Mech: rc.Mech, Panic: fmt.Sprint(r)}
			if se, ok := r.(*sim.StallError); ok {
				re.Stall = se
			}
			res, err = RunResult{}, re
		}
	}()
	m := machine.New(rc.Machine)
	a.Setup(m, rc.Mech)
	mres := m.Run(a.Body)
	if !rc.SkipValidate {
		if err := a.Validate(); err != nil {
			return RunResult{}, fmt.Errorf("core: %s/%s: %w", rc.App, rc.Mech, err)
		}
	}
	return RunResult{Result: mres, App: rc.App, Mech: rc.Mech, Trace: m.Trace, Obs: m.Obs, Spans: m.Spans, Crit: m.Crit}, nil
}

// MustRun is Run, panicking on error (for benchmarks and examples).
func MustRun(rc RunConfig) RunResult {
	r, err := Run(rc)
	if err != nil {
		panic(err)
	}
	return r
}
