package core

import (
	"math"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/predict"
)

// DefaultPredictEdgeCap is the edge-ring capacity predicted
// sweeps instrument their base runs with. Large enough to retain every
// causal edge of the reduced-scale workloads (coverage 1.0), small
// enough that one retained run is a few megabytes.
const DefaultPredictEdgeCap = 1 << 17

// PredictOptions tunes a predicted sweep. The zero value means: predict
// every grid point, simulate every grid point for validation columns,
// default edge cap, 10% latency-tolerance growth target.
type PredictOptions struct {
	// Prune switches from validate-everything to simulate-on-demand:
	// only the base point (free), points where the model's confidence
	// drops below ConfidenceFloor, and points near a predicted mechanism
	// crossover are simulated; everywhere else the prediction stands.
	Prune bool
	// ConfidenceFloor is the minimum self-reported confidence a
	// prediction needs to stand unsimulated under Prune (default 0.7).
	ConfidenceFloor float64
	// CrossoverMargin is the relative gap between the two fastest
	// predicted mechanisms below which a point's verdict counts as
	// ambiguous and is simulated under Prune (default 0.05).
	CrossoverMargin float64
	// EdgeCap overrides the instrumented base runs' edge-ring
	// capacity (default DefaultPredictEdgeCap).
	EdgeCap int
	// GrowthTarget is the runtime growth defining the latency-tolerance
	// metric (default 0.10: the latency at which runtime grows 10%).
	GrowthTarget float64
}

func (o PredictOptions) withDefaults() PredictOptions {
	if o.ConfidenceFloor == 0 {
		o.ConfidenceFloor = 0.7
	}
	if o.CrossoverMargin == 0 {
		o.CrossoverMargin = 0.05
	}
	if o.EdgeCap == 0 {
		o.EdgeCap = DefaultPredictEdgeCap
	}
	if o.GrowthTarget == 0 {
		o.GrowthTarget = 0.10
	}
	return o
}

// PredictedPoint is one X position of a predicted sweep: the model's
// prediction for every mechanism, plus the validating simulation where
// one ran (every point without Prune; the confirming subset with it).
type PredictedPoint struct {
	X    float64
	Pred map[apps.Mechanism]predict.Prediction
	Sim  map[apps.Mechanism]RunResult
}

// PredictedSweep is one figure grid solved from one instrumented base
// run per mechanism.
type PredictedSweep struct {
	Points []PredictedPoint
	// Base holds the instrumented base runs the models were built from.
	Base map[apps.Mechanism]RunResult
	// Tolerance is the latency-tolerance metric per mechanism: the
	// one-way network latency, in processor cycles, at which the model
	// predicts runtime grows by the configured target (+Inf when the
	// mechanism never reaches it — latency-insensitive at this scale).
	Tolerance map[apps.Mechanism]float64
	// Grid counts mechanism-points in the sweep; Simulated counts the
	// distinct simulations executed for it, including the instrumented
	// base runs. Grid - Simulated is the pruning win.
	Grid, Simulated int
}

// predictJob is one mechanism's slice of a predicted sweep: the
// uninstrumented base config the model is built at, the (LatScale,
// BWScale) evaluation per grid point, the config a validating
// simulation of that point would run, and the base one-way latency (in
// cycles) that converts the tolerance scale into cycles.
type predictJob struct {
	mech       apps.Mechanism
	base       machine.Config
	points     []predict.Point
	cfgs       []machine.Config
	baseOneWay float64
}

// instrumentedRun executes rc (which must enable CritPath) preferring
// the in-memory memo; a disk-served result lacks the edge recorder, so
// it falls back to a direct execution.
func (r *Runner) instrumentedRun(rc RunConfig) (RunResult, error) {
	res, err := r.Run(rc)
	if err != nil || res.Crit != nil {
		return res, err
	}
	r.executed.Add(1)
	return Run(rc)
}

// bisectionCrossFrac is the fraction of injected bytes assumed to cross
// the machine's middle cut under dimension-order routing on a uniform
// traffic pattern — the same convention model.Fit uses.
const bisectionCrossFrac = 0.5

// predictedSweep is the common engine: instrument one base run per
// mechanism, build its dependency-graph model, solve every grid point,
// pick the validation set, and fold in the confirming simulations.
func (r *Runner) predictedSweep(app AppName, sc Scale, jobs []predictJob, xs []float64, opt PredictOptions) (*PredictedSweep, error) {
	opt = opt.withDefaults()
	ps := &PredictedSweep{
		Base:      make(map[apps.Mechanism]RunResult, len(jobs)),
		Tolerance: make(map[apps.Mechanism]float64, len(jobs)),
		Grid:      len(jobs) * len(xs),
	}
	ps.Points = make([]PredictedPoint, len(xs))
	for i, x := range xs {
		ps.Points[i] = PredictedPoint{
			X:    x,
			Pred: make(map[apps.Mechanism]predict.Prediction),
			Sim:  make(map[apps.Mechanism]RunResult),
		}
	}

	// Phase 1: instrumented base runs and their models. A mechanism
	// whose base run fails is isolated like a crashed sweep point —
	// absent from every map — and the sweep only errors when nothing
	// survived.
	models := make([]*predict.Model, len(jobs))
	var firstErr error
	alive := 0
	for ji, job := range jobs {
		icfg := job.base
		icfg.CritPath = true
		icfg.CritEdgeCap = opt.EdgeCap
		res, err := r.instrumentedRun(RunConfig{App: app, Mech: job.mech, Scale: sc, Machine: icfg, SkipValidate: true})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m, err := predict.Build(predict.Input{
			Nodes:          icfg.Nodes(),
			Clk:            clockOf(job.base),
			Edges:          res.Crit.Edges(),
			EdgesTotal:     res.Crit.EdgesTotal(),
			DoneCycles:     res.DoneCycles,
			BisectionBytes: bisectionCrossFrac * float64(res.Volume.Total()),
			BisectionBW:    res.Bisection,
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		models[ji] = m
		ps.Base[job.mech] = res
		ps.Tolerance[job.mech] = m.LatencyTolerance(opt.GrowthTarget) * job.baseOneWay
		ps.Simulated++
		alive++
		for i := range xs {
			ps.Points[i].Pred[job.mech] = m.Solve(job.points[i])
		}
	}
	if alive == 0 {
		return nil, firstErr
	}

	// Phase 2: pick the validation set. Base-config points are free
	// (the instrumented run is that simulation, CritPath being passive);
	// the rest simulate always without Prune, on demand with it.
	need := make([]bool, len(xs))
	if !opt.Prune {
		for i := range need {
			need[i] = true
		}
	} else {
		for i := range xs {
			for ji := range jobs {
				if models[ji] == nil {
					continue
				}
				if ps.Points[i].Pred[jobs[ji].mech].Confidence < opt.ConfidenceFloor {
					need[i] = true
				}
			}
			if a, b, ok := topTwo(ps.Points[i].Pred); ok && b > 0 && float64(b-a) <= opt.CrossoverMargin*float64(a) {
				need[i] = true
			}
		}
		// A predicted order flip between adjacent points is a crossover;
		// simulate both ends so the hybrid curve nails its position.
		for ji := range jobs {
			for jk := ji + 1; jk < len(jobs); jk++ {
				if models[ji] == nil || models[jk] == nil {
					continue
				}
				a, b := jobs[ji].mech, jobs[jk].mech
				for i := 1; i < len(xs); i++ {
					d0 := ps.Points[i-1].Pred[a].Cycles - ps.Points[i-1].Pred[b].Cycles
					d1 := ps.Points[i].Pred[a].Cycles - ps.Points[i].Pred[b].Cycles
					if d0 != 0 && d1 != 0 && (d0 < 0) != (d1 < 0) {
						need[i-1], need[i] = true, true
					}
				}
			}
		}
	}

	// Phase 3: run the validation simulations. Identical configs (the
	// flat reference mechanisms of the context-switch sweep) dedupe
	// through the memo, so count distinct fingerprints, not jobs.
	type simRef struct{ pt, job int }
	var (
		rcs  []RunConfig
		refs []simRef
	)
	distinct := make(map[RunConfig]bool)
	for i := range xs {
		for ji, job := range jobs {
			if models[ji] == nil {
				continue
			}
			if job.cfgs[i] == job.base {
				// The instrumented run is this point's simulation.
				ps.Points[i].Sim[job.mech] = ps.Base[job.mech]
				continue
			}
			if !need[i] {
				continue
			}
			rc := RunConfig{App: app, Mech: job.mech, Scale: sc, Machine: job.cfgs[i], SkipValidate: true}
			rcs = append(rcs, rc)
			refs = append(refs, simRef{pt: i, job: ji})
			distinct[fingerprint(rc)] = true
		}
	}
	ps.Simulated += len(distinct)
	results, errs := r.RunBatchAll(rcs)
	for k, ref := range refs {
		if errs[k] == nil {
			ps.Points[ref.pt].Sim[jobs[ref.job].mech] = results[k]
		}
	}
	return ps, nil
}

// topTwo returns the two smallest predicted cycle counts of one point.
func topTwo(pred map[apps.Mechanism]predict.Prediction) (best, second int64, ok bool) {
	n := 0
	for _, p := range pred {
		n++
		switch {
		case n == 1:
			best = p.Cycles
		case p.Cycles < best:
			second = best
			best = p.Cycles
		case n == 2 || p.Cycles < second:
			second = p.Cycles
		}
	}
	return best, second, n >= 2
}

// MaxErrorPct reports the worst and mean absolute predicted-vs-measured
// relative error over all mechanism-points that have both values, in
// percent, and how many such points there are. The base points count —
// they pin the exactness guarantee at 0%.
func (ps *PredictedSweep) MaxErrorPct() (max, mean float64, n int) {
	for i := range ps.Points {
		for _, mech := range apps.Mechanisms {
			sim, simOK := ps.Points[i].Sim[mech]
			pred, ok := ps.Points[i].Pred[mech]
			if !simOK || !ok || sim.Cycles == 0 {
				continue
			}
			e := 100 * math.Abs(float64(pred.Cycles)-float64(sim.Cycles)) / float64(sim.Cycles)
			if e > max {
				max = e
			}
			mean += e
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return max, mean, n
}

// HybridPoints renders the sweep as ordinary SweepPoints — the measured
// result where a simulation ran, the prediction standing in elsewhere —
// so downstream analysis (Crossover, fastest-mechanism verdicts, CSVs)
// treats pruned and full sweeps identically. Synthetic results carry
// only the cycle count.
func (ps *PredictedSweep) HybridPoints() []SweepPoint {
	out := make([]SweepPoint, len(ps.Points))
	for i, pt := range ps.Points {
		sp := SweepPoint{X: pt.X, Results: make(map[apps.Mechanism]RunResult, len(pt.Pred))}
		for mech, pred := range pt.Pred {
			if sim, ok := pt.Sim[mech]; ok {
				sp.Results[mech] = sim
				continue
			}
			var rr RunResult
			rr.Mech = mech
			rr.Cycles = pred.Cycles
			sp.Results[mech] = rr
		}
		out[i] = sp
	}
	return out
}

// FastestPerPoint returns the winning mechanism at each point of the
// hybrid curve (ties to the lower mechanism value, matching the stable
// order of apps.Mechanisms), or -1 where nothing was measured or
// predicted — the per-point half of the sweep's mechanism verdicts.
func (ps *PredictedSweep) FastestPerPoint() []apps.Mechanism {
	out := make([]apps.Mechanism, len(ps.Points))
	for i, sp := range ps.HybridPoints() {
		best := apps.Mechanism(-1)
		var bestCycles int64
		for _, mech := range apps.Mechanisms {
			r, ok := sp.Results[mech]
			if !ok {
				continue
			}
			if best < 0 || r.Cycles < bestCycles {
				best, bestCycles = mech, r.Cycles
			}
		}
		out[i] = best
	}
	return out
}

// PredictedClockSweep is the predicted form of ClockSweep (Figure 9):
// one instrumented run per mechanism at the base clock, re-solved for
// every clock in mhzs. Slowing the clock leaves network picoseconds
// untouched but shrinks them relative to a cycle, so in base-run time
// units both network components scale by mhz/base — LatScale and
// BWScale move together.
func (r *Runner) PredictedClockSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, mhzs []float64, opt PredictOptions) (*PredictedSweep, error) {
	xs := make([]float64, len(mhzs))
	cfgs := make([]machine.Config, len(mhzs))
	points := make([]predict.Point, len(mhzs))
	for i, mhz := range mhzs {
		cfg := base
		cfg.ClockMHz = mhz
		cfgs[i] = cfg
		xs[i] = NetLatencyCycles(cfg)
		s := mhz / base.ClockMHz
		points[i] = predict.Point{LatScale: s, BWScale: s}
	}
	jobs := make([]predictJob, len(mechs))
	for ji, mech := range mechs {
		jobs[ji] = predictJob{mech: mech, base: base, points: points, cfgs: cfgs, baseOneWay: NetLatencyCycles(base)}
	}
	return r.predictedSweep(app, sc, jobs, xs, opt)
}

// xHopFrac is the expected fraction of a uniform-traffic route's hops
// that lie in the X dimension of a w-by-h mesh (E|dx| = (w^2-1)/(3w)
// for independent uniform endpoints): the share of a packet's hop
// latency exposed to the horizontal cross-traffic streams.
func xHopFrac(w, h int) float64 {
	ex := float64(w*w-1) / float64(3*w)
	ey := float64(h*h-1) / float64(3*h)
	if ex+ey == 0 {
		return 0
	}
	return ex / (ex + ey)
}

// PredictedBisectionSweep is the predicted form of BisectionSweep
// (Figure 8). A cross-traffic stream consuming u = rate/native of the
// cut reserves every X link it crosses for its message's serialization
// time, so an application packet's head waits, on average, the residual
// of that occupancy (u*S/2) at each X hop — a queueing delay on the
// latency component, not a stretch of the application's own
// serialization, which still moves at full link rate once the link is
// won. LatScale folds that expected wait into each edge's hop latency;
// BWScale stays 1. The mapping's blind spot is compounding queueing
// near saturation, so the cross-traffic utilization rides along as
// ExtraRho: the model distrusts exactly the points it cannot see, and
// the pruned mode simulates them.
func (r *Runner) PredictedBisectionSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, crossRates []float64, msgBytes int, opt PredictOptions) (*PredictedSweep, error) {
	native := mesh.Config{Width: base.Width, Height: base.Height, HopLatency: base.HopLatency, PsPerByte: base.PsPerByte}.
		BisectionBytesPerCycle(clockOf(base))
	sCross := float64(msgBytes) * float64(base.PsPerByte) // link occupancy per cross packet, ps
	fx := xHopFrac(base.Width, base.Height)
	xs := make([]float64, len(crossRates))
	cfgs := make([]machine.Config, len(crossRates))
	points := make([]predict.Point, len(crossRates))
	for i, rate := range crossRates {
		cfg := base
		if rate > 0 {
			cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: msgBytes, BytesPerCycle: rate}
		}
		cfgs[i] = cfg
		xs[i] = native - rate
		u := 0.0
		if rate > 0 && native > 0 {
			u = rate / native
			if u > 1 {
				u = 1
			}
		}
		lat := 1.0
		if u > 0 && base.HopLatency > 0 {
			lat = 1 + fx*u*sCross/(2*float64(base.HopLatency))
		}
		points[i] = predict.Point{LatScale: lat, BWScale: 1, ExtraRho: u}
	}
	jobs := make([]predictJob, len(mechs))
	for ji, mech := range mechs {
		jobs[ji] = predictJob{mech: mech, base: base, points: points, cfgs: cfgs, baseOneWay: NetLatencyCycles(base)}
	}
	return r.predictedSweep(app, sc, jobs, xs, opt)
}

// PredictedContextSwitchSweep is the predicted form of
// ContextSwitchSweep (Figure 10): the shared-memory mechanisms are
// instrumented once under the ideal-network emulation at the first
// latency and re-solved with LatScale = lat/first; the message-passing
// mechanisms are untouched by the emulation, so their instrumented base
// runs on the real network stand at every point, exactly like the
// hoisted reference runs of the simulated sweep.
func (r *Runner) PredictedContextSwitchSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, oneWayCycles []int64, opt PredictOptions) (*PredictedSweep, error) {
	xs := make([]float64, len(oneWayCycles))
	for i, lat := range oneWayCycles {
		xs[i] = float64(lat)
	}
	jobs := make([]predictJob, len(mechs))
	for ji, mech := range mechs {
		job := predictJob{mech: mech, points: make([]predict.Point, len(oneWayCycles)), cfgs: make([]machine.Config, len(oneWayCycles))}
		if mech.UsesMessages() {
			job.base = base
			job.baseOneWay = NetLatencyCycles(base)
			for i := range oneWayCycles {
				job.points[i] = predict.Base
				job.cfgs[i] = base
			}
		} else {
			swBase := base
			swBase.IdealNetOneWayCycles = oneWayCycles[0]
			job.base = swBase
			job.baseOneWay = float64(oneWayCycles[0])
			for i, lat := range oneWayCycles {
				cfg := base
				cfg.IdealNetOneWayCycles = lat
				job.cfgs[i] = cfg
				job.points[i] = predict.Point{LatScale: float64(lat) / float64(oneWayCycles[0]), BWScale: 1}
			}
		}
		jobs[ji] = job
	}
	return r.predictedSweep(app, sc, jobs, xs, opt)
}
