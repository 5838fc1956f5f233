package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/iccg"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/unstruc"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/sim"
	gen "repro/internal/workload"
)

// inputs is what every pass of one invocation shares.
type inputs struct {
	seed    int64
	scale   core.Scale
	workers int
}

// passOut is one pass's checked outcome.
type passOut struct {
	records  []record // one per simulation that completed
	failures []string // simulations that crashed or failed Validate
	sims     int      // simulations issued

	// core.Runner's counters, for the workloads driven through it.
	executed, memoHits uint64

	// latency_predict only.
	predicted             int
	errMaxPct, prunedFrac float64
	sweeps                []*core.PredictedSweep
}

func (p *passOut) add(o outcome) {
	p.sims++
	if o.err != nil {
		p.failures = append(p.failures, o.err.Error())
		return
	}
	p.records = append(p.records, o.rec)
}

// addRunnerFailures counts the simulations a core.Runner recovered from
// a crash: they are missing from the sweep's results.
func (p *passOut) addRunnerFailures(r *core.Runner) {
	for _, f := range r.Failures() {
		p.sims++
		p.failures = append(p.failures, f.Error())
	}
}

// tracedOut is a traced pass: its outcome, its layer work, and the host
// time of extra runs made only to measure (excluded from the tracing
// overhead).
type tracedOut struct {
	passOut
	counts  layerCounts
	extraNs int64

	// latency_predict only.
	buildNs, solveNs int64
	solves           int
	instrNs, plainNs int64
}

// workload is one named benchmark workload.
type workload interface {
	// setup builds one pass's inputs from the seed and checks they build.
	setup(in inputs) error
	// pass runs one untraced pass the way a user of the layer would.
	pass(in inputs) (passOut, error)
	// tracedPass repeats plain's configurations through direct layer
	// calls under the tracer.
	tracedPass(in inputs, tr *tracer, plain passOut) (tracedOut, error)
}

var workloads = map[string]workload{
	"mech_grid":       mechGrid{},
	"bisection_sweep": bisectionSweep{},
	"latency_predict": latencyPredict{},
}

// buildApp generates one application at scale sc for the 32-node
// machine, with each generator's seed offset by seed-defaultSeed: the
// default seed yields exactly core.NewApp's instance.
func buildApp(name core.AppName, sc core.Scale, seed int64) (apps.App, error) {
	off := seed - defaultSeed
	tiny := sc == core.ScaleTiny
	switch name {
	case core.EM3D:
		p := gen.DefaultEM3DParams()
		if tiny {
			p = p.Scaled(320, 2)
		} else {
			p = p.Scaled(1000, 3)
		}
		p.Procs, p.Seed = core.BaseProcs, p.Seed+off
		return em3d.New(p), nil
	case core.UNSTRUC:
		p := gen.DefaultUnstrucParams()
		if tiny {
			p = p.Scaled(400, 2)
		} else {
			p = p.Scaled(1000, 3)
		}
		p.Procs, p.Seed = core.BaseProcs, p.Seed+off
		return unstruc.New(p), nil
	case core.ICCG:
		p := gen.DefaultICCGParams()
		if tiny {
			p = p.Scaled(640)
		} else {
			p = p.Scaled(2000)
		}
		p.Procs, p.Seed = core.BaseProcs, p.Seed+off
		return iccg.New(p), nil
	case core.MOLDYN:
		p := gen.DefaultMoldynParams()
		if tiny {
			p = p.ScaledBox(256, 3)
		} else {
			p = p.ScaledBox(512, 3)
		}
		p.ListEvery = 2
		p.Procs, p.Seed = core.BaseProcs, p.Seed+off
		return moldyn.New(p), nil
	}
	return nil, fmt.Errorf("unknown application %q", name)
}

// mechGrid is the Figure 4/5 grid: every application under every
// mechanism on the base 8x4 machine, serial, validated.
type mechGrid struct{}

func (mechGrid) jobs(in inputs) []simJob {
	var jobs []simJob
	for _, app := range core.AppNames {
		app := app
		for _, mech := range apps.Mechanisms {
			jobs = append(jobs, simJob{
				id:       string(app) + "/" + mech.Short(),
				build:    func() (apps.App, error) { return buildApp(app, in.scale, in.seed) },
				mech:     mech,
				cfg:      machine.DefaultConfig(),
				validate: true,
			})
		}
	}
	return jobs
}

func (g mechGrid) setup(in inputs) error {
	for _, app := range core.AppNames {
		if _, err := buildApp(app, in.scale, in.seed); err != nil {
			return err
		}
	}
	return nil
}

func (g mechGrid) pass(in inputs) (passOut, error) {
	var out passOut
	for _, j := range g.jobs(in) {
		out.add(simulate(nil, 0, j))
	}
	return out, nil
}

func (g mechGrid) tracedPass(in inputs, tr *tracer, _ passOut) (tracedOut, error) {
	var out tracedOut
	root := tr.begin(0, "workload", "mech_grid")
	defer tr.end(root)
	for _, j := range g.jobs(in) {
		o := simulate(tr, root, j)
		out.add(o)
		out.counts.add(o.counts)
	}
	return out, nil
}

// sweepApps builds each application a sweep simulates once, checking the
// inputs build at the workload's scale (core.Runner regenerates them per
// simulation).
func sweepApps(names []core.AppName, sc core.Scale) error {
	for _, app := range names {
		if _, err := core.NewApp(app, sc); err != nil {
			return err
		}
	}
	return nil
}

// bisectionSweep is the Figure 8 method: cross-traffic rates from zero
// to near saturation, through core.Runner.BisectionSweep.
type bisectionSweep struct{}

var (
	bisectionApps  = []core.AppName{core.EM3D, core.UNSTRUC}
	bisectionMechs = []apps.Mechanism{apps.SM, apps.MPPoll, apps.Bulk}
)

// crossMsgBytes is the paper's cross-traffic message size.
const crossMsgBytes = 64

// crossRates returns the paper's Figure 8 rates (bytes/cycle) for the
// default seed; other seeds lower each nonzero rate by up to 1.5.
func crossRates(seed int64) []float64 {
	rates := []float64{0, 4, 8, 12, 14, 16}
	if seed == defaultSeed {
		return rates
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range rates {
		if rates[i] > 0 {
			rates[i] -= float64(rng.Intn(7)) / 4
		}
	}
	return rates
}

func rateID(app core.AppName, mech apps.Mechanism, rate float64) string {
	return fmt.Sprintf("%s/%s/rate=%s", app, mech.Short(), strconv.FormatFloat(rate, 'g', -1, 64))
}

func (bisectionSweep) setup(in inputs) error {
	crossRates(in.seed)
	return sweepApps(bisectionApps, in.scale)
}

func (bisectionSweep) pass(in inputs) (passOut, error) {
	var out passOut
	r := core.NewRunner(in.workers)
	rates := crossRates(in.seed)
	for _, app := range bisectionApps {
		pts, err := r.BisectionSweep(app, in.scale, bisectionMechs, machine.DefaultConfig(), rates, crossMsgBytes)
		if err != nil {
			return out, err
		}
		for i, pt := range pts {
			for _, mech := range bisectionMechs {
				if res, ok := pt.Results[mech]; ok {
					out.add(outcome{rec: recordOf(rateID(app, mech, rates[i]), res.Result)})
				}
			}
		}
	}
	out.addRunnerFailures(r)
	out.memoHits, out.executed = r.Stats()
	return out, nil
}

func (bisectionSweep) tracedPass(in inputs, tr *tracer, _ passOut) (tracedOut, error) {
	var out tracedOut
	root := tr.begin(0, "workload", "bisection_sweep")
	defer tr.end(root)
	rates := crossRates(in.seed)
	for _, app := range bisectionApps {
		app := app
		var jobs []simJob
		for _, rate := range rates {
			cfg := machine.DefaultConfig()
			if rate > 0 {
				cfg.CrossTraffic.MsgBytes, cfg.CrossTraffic.BytesPerCycle = crossMsgBytes, rate
			}
			for _, mech := range bisectionMechs {
				jobs = append(jobs, simJob{
					id:    rateID(app, mech, rate),
					build: func() (apps.App, error) { return core.NewApp(app, in.scale) },
					mech:  mech,
					cfg:   cfg,
				})
			}
		}
		for _, o := range pool(in.workers, jobs, func(j simJob) outcome { return simulate(tr, root, j) }) {
			out.add(o)
			out.counts.add(o.counts)
		}
	}
	return out, nil
}

// latencyPredict is the Figure 10 method through the dependency-graph
// predictor with pruned validation.
type latencyPredict struct{}

var latencyApps = []core.AppName{core.EM3D, core.ICCG}

// oneWayLatencies returns a dense grid over the paper's 15-200-cycle
// range for the default seed; other seeds move each interior point by up
// to 5 cycles, which keeps the grid increasing. The first point is the
// predictor's base.
func oneWayLatencies(seed int64) []int64 {
	lats := []int64{15, 35, 55, 75, 95, 115, 135, 155, 175, 200}
	if seed == defaultSeed {
		return lats
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < len(lats)-1; i++ {
		lats[i] += int64(rng.Intn(11)) - 5
	}
	return lats
}

func latID(app core.AppName, mech apps.Mechanism, lat int64) string {
	return fmt.Sprintf("%s/%s/lat=%d", app, mech.Short(), lat)
}

func baseID(app core.AppName, mech apps.Mechanism) string {
	return fmt.Sprintf("%s/%s/base", app, mech.Short())
}

func (latencyPredict) setup(in inputs) error {
	oneWayLatencies(in.seed)
	return sweepApps(latencyApps, in.scale)
}

// validated reports whether point i of mech's curve is a validation
// simulation of its own rather than the instrumented base run standing
// in: message-passing mechanisms ignore the latency emulation, and the
// shared-memory base is the first point.
func validated(mech apps.Mechanism, i int) bool {
	return !mech.UsesMessages() && i > 0
}

func (latencyPredict) pass(in inputs) (passOut, error) {
	var out passOut
	r := core.NewRunner(in.workers)
	lats := oneWayLatencies(in.seed)
	simulated := 0
	for _, app := range latencyApps {
		ps, err := r.PredictedContextSwitchSweep(app, in.scale, apps.Mechanisms, machine.DefaultConfig(), lats, core.PredictOptions{Prune: true})
		if err != nil {
			return out, err
		}
		out.sweeps = append(out.sweeps, ps)
		for _, mech := range apps.Mechanisms {
			base, ok := ps.Base[mech]
			if !ok {
				continue
			}
			out.add(outcome{rec: recordOf(baseID(app, mech), base.Result)})
			for i, pt := range ps.Points {
				if sim, ok := pt.Sim[mech]; ok && validated(mech, i) {
					out.add(outcome{rec: recordOf(latID(app, mech, lats[i]), sim.Result)})
				}
			}
		}
		if mx, _, _ := ps.MaxErrorPct(); mx > out.errMaxPct {
			out.errMaxPct = mx
		}
		simulated += ps.Simulated
		out.predicted += ps.Grid
	}
	out.addRunnerFailures(r)
	out.memoHits, out.executed = r.Stats()
	out.prunedFrac = 1 - ratio(float64(simulated), float64(out.predicted))
	return out, nil
}

// bisectionCrossFrac is the share of injected bytes assumed to cross the
// middle cut, as the predicted sweeps assume when building a model.
const bisectionCrossFrac = 0.5

// buildModel compiles an instrumented run of cfg into a dependency-graph
// model, with the inputs the predicted sweeps give predict.Build.
func buildModel(cfg machine.Config, o outcome) (*predict.Model, error) {
	return predict.Build(predict.Input{
		Nodes:          cfg.Nodes(),
		Clk:            sim.NewClock(cfg.ClockMHz),
		Edges:          o.m.Crit.Edges(),
		EdgesTotal:     o.m.Crit.EdgesTotal(),
		DoneCycles:     o.res.DoneCycles,
		BisectionBytes: bisectionCrossFrac * float64(o.res.Volume.Total()),
		BisectionBW:    o.res.Bisection,
	})
}

func (latencyPredict) tracedPass(in inputs, tr *tracer, plain passOut) (tracedOut, error) {
	var out tracedOut
	if len(plain.sweeps) != len(latencyApps) {
		return out, fmt.Errorf("latency_predict: traced pass needs the plain pass's %d sweeps, got %d", len(latencyApps), len(plain.sweeps))
	}
	root := tr.begin(0, "workload", "latency_predict")
	defer tr.end(root)
	lats := oneWayLatencies(in.seed)
	for ai, app := range latencyApps {
		app := app
		build := func() (apps.App, error) { return core.NewApp(app, in.scale) }
		ps := plain.sweeps[ai]
		// Phase 1, serial like the runner: one instrumented base run per
		// mechanism, its model, and every grid point solved.
		for _, mech := range apps.Mechanisms {
			base := machine.DefaultConfig()
			if !mech.UsesMessages() {
				base.IdealNetOneWayCycles = lats[0]
			}
			icfg := base
			icfg.CritPath, icfg.CritEdgeCap = true, core.DefaultPredictEdgeCap
			o := simulate(tr, root, simJob{id: baseID(app, mech), build: build, mech: mech, cfg: icfg})
			out.add(o)
			out.counts.add(o.counts)
			if o.err != nil {
				continue
			}
			out.instrNs += o.counts.runNs
			id := tr.begin(root, "predict.build", baseID(app, mech))
			model, err := buildModel(icfg, o)
			out.buildNs += tr.end(id)
			if err != nil {
				out.failures = append(out.failures, fmt.Sprintf("%s: predict.Build: %v", baseID(app, mech), err))
				continue
			}
			id = tr.begin(root, "predict.solve", baseID(app, mech))
			for _, lat := range lats {
				pt := predict.Base
				if !mech.UsesMessages() {
					pt = predict.Point{LatScale: float64(lat) / float64(lats[0]), BWScale: 1}
				}
				model.Solve(pt)
				out.solves++
			}
			out.solveNs += tr.end(id)

			// The critical-path recorder's cost: the same configuration
			// without it. Measured only, so outside the pass's span.
			plainRun := simulate(nil, 0, simJob{id: baseID(app, mech), build: build, mech: mech, cfg: base})
			out.extraNs += plainRun.counts.totalNs()
			out.plainNs += plainRun.counts.runNs
			out.add(plainRun)
		}
		// Phase 3: the validation simulations the plain pass ran, on the
		// worker pool.
		var jobs []simJob
		for i, pt := range ps.Points {
			for _, mech := range apps.Mechanisms {
				if _, ok := pt.Sim[mech]; !ok || !validated(mech, i) {
					continue
				}
				cfg := machine.DefaultConfig()
				cfg.IdealNetOneWayCycles = lats[i]
				jobs = append(jobs, simJob{id: latID(app, mech, lats[i]), build: build, mech: mech, cfg: cfg})
			}
		}
		for _, o := range pool(in.workers, jobs, func(j simJob) outcome { return simulate(tr, root, j) }) {
			out.add(o)
			out.counts.add(o.counts)
		}
	}
	return out, nil
}
