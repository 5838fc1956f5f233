package core

import (
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/predict"
)

// DefaultPredictEdgeCap is the edge-ring capacity predicted
// sweeps instrument their base runs with. Large enough to retain every
// causal edge of the reduced-scale workloads (coverage 1.0), small
// enough that one retained run is a few megabytes.
const DefaultPredictEdgeCap = 1 << 17

// The pruning rule and the latency-tolerance target. The floor and the
// margin are the calibration target of -prune: a prediction stands
// unsimulated only when it clears both.
const (
	// pruneConfidenceFloor is the minimum self-reported confidence a
	// prediction needs to stand unsimulated under Prune.
	pruneConfidenceFloor = 0.7
	// pruneCrossoverMargin is the relative gap between the two fastest
	// predicted mechanisms below which a point's verdict counts as
	// ambiguous and is simulated under Prune.
	pruneCrossoverMargin = 0.05
	// ToleranceGrowth is the runtime growth defining the
	// latency-tolerance metric: the latency at which runtime grows 10%.
	ToleranceGrowth = 0.10
)

// PredictOptions tunes a predicted sweep. The zero value predicts every
// grid point and simulates every grid point for validation columns.
type PredictOptions struct {
	// Prune switches from validate-everything to simulate-on-demand:
	// only the base point (free), points where the model's confidence
	// drops below the confidence floor, and points near a predicted
	// mechanism crossover are simulated; everywhere else the prediction
	// stands.
	Prune bool
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
	// predicts runtime grows by ToleranceGrowth (+Inf when the
	// mechanism never reaches it — latency-insensitive at this scale).
	Tolerance map[apps.Mechanism]float64
	// Grid counts mechanism-points in the sweep; Simulated counts the
	// distinct simulations executed for it, including the instrumented
	// base runs. Grid - Simulated is the pruning win.
	Grid, Simulated int
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
// mechanism of g, build its dependency-graph model, solve every grid
// point, pick the validation set, and fold in the confirming
// simulations.
func (r *Runner) predictedSweep(app AppName, sc Scale, g sweepGrid, opt PredictOptions) (*PredictedSweep, error) {
	ps := &PredictedSweep{
		Base:      make(map[apps.Mechanism]RunResult, len(g.mechs)),
		Tolerance: make(map[apps.Mechanism]float64, len(g.mechs)),
		Grid:      len(g.mechs) * len(g.xs),
	}
	ps.Points = make([]PredictedPoint, len(g.xs))
	for i, x := range g.xs {
		ps.Points[i] = PredictedPoint{X: x, Pred: make(map[apps.Mechanism]predict.Prediction)}
	}

	// Phase 1: instrumented base runs and their models. A mechanism
	// whose base run fails is isolated like a crashed sweep point —
	// absent from every map — and the sweep only errors when nothing
	// survived.
	models := make([]*predict.Model, len(g.mechs))
	var firstErr error
	netOneWay := 0.0 // NetLatencyCycles of the real-network base, once per grid
	for mi, m := range g.mechs {
		icfg := m.base
		icfg.CritPath = true
		icfg.CritEdgeCap = DefaultPredictEdgeCap
		res, err := r.instrumentedRun(RunConfig{App: app, Mech: m.mech, Scale: sc, Machine: icfg, SkipValidate: true})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		model, err := predict.Build(predict.Input{
			Nodes:          icfg.Nodes(),
			Clk:            clockOf(m.base),
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
		// The tolerance scale converts to cycles at the base's one-way
		// latency: the emulated one on an ideal network, the mesh's
		// otherwise (every real-network base of a grid is one machine).
		oneWay := float64(m.base.IdealNetOneWayCycles)
		if oneWay == 0 {
			if netOneWay == 0 {
				netOneWay = NetLatencyCycles(m.base)
			}
			oneWay = netOneWay
		}
		models[mi] = model
		ps.Base[m.mech] = res
		ps.Tolerance[m.mech] = model.LatencyTolerance(ToleranceGrowth) * oneWay
		ps.Simulated++
		for i := range g.xs {
			ps.Points[i].Pred[m.mech] = model.Solve(m.points[i])
		}
	}
	if len(ps.Base) == 0 {
		return nil, firstErr
	}

	// Phase 2: pick the validation set. Base-config points are free
	// (the instrumented run is that simulation, CritPath being passive);
	// the rest simulate always without Prune, on demand with it.
	need := make([]bool, len(g.xs))
	if !opt.Prune {
		for i := range need {
			need[i] = true
		}
	} else {
		for i := range g.xs {
			for mi, m := range g.mechs {
				if models[mi] != nil && ps.Points[i].Pred[m.mech].Confidence < pruneConfidenceFloor {
					need[i] = true
				}
			}
			if a, b, ok := topTwo(ps.Points[i].Pred); ok && b > 0 && float64(b-a) <= pruneCrossoverMargin*float64(a) {
				need[i] = true
			}
		}
		// A predicted order flip between adjacent points is a crossover;
		// simulate both ends so the hybrid curve nails its position.
		for mi := range g.mechs {
			for mk := mi + 1; mk < len(g.mechs); mk++ {
				if models[mi] == nil || models[mk] == nil {
					continue
				}
				a, b := g.mechs[mi].mech, g.mechs[mk].mech
				for i := 1; i < len(g.xs); i++ {
					d0 := ps.Points[i-1].Pred[a].Cycles - ps.Points[i-1].Pred[b].Cycles
					d1 := ps.Points[i].Pred[a].Cycles - ps.Points[i].Pred[b].Cycles
					if d0 != 0 && d1 != 0 && (d0 < 0) != (d1 < 0) {
						need[i-1], need[i] = true, true
					}
				}
			}
		}
	}

	// Phase 3: run the validation simulations, each distinct config
	// once. A point at its mechanism's base config is the instrumented
	// run itself.
	cells, distinct, _ := r.runGrid(app, sc, g, false, func(i, mi int) bool {
		m := g.mechs[mi]
		return models[mi] != nil && need[i] && m.cfgs[i] != m.base
	})
	ps.Simulated += distinct
	for i := range ps.Points {
		ps.Points[i].Sim = cells[i]
		for mi, m := range g.mechs {
			if models[mi] != nil && m.cfgs[i] == m.base {
				cells[i][m.mech] = ps.Base[m.mech]
			}
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

// Errors folds every mechanism-point that has both a prediction and a
// simulation into ErrorStats, in point order and apps.Mechanisms order
// within a point. The base points count — they pin the exactness
// guarantee at 0%.
func (ps *PredictedSweep) Errors() predict.ErrorStats {
	var s predict.ErrorStats
	for _, pt := range ps.Points {
		for _, mech := range apps.Mechanisms {
			sim, simOK := pt.Sim[mech]
			pred, ok := pt.Pred[mech]
			if simOK && ok {
				s.Add(float64(pred.Cycles), float64(sim.Cycles))
			}
		}
	}
	return s
}

// MaxErrorPct reports the worst and mean absolute predicted-vs-measured
// relative error in percent, and how many mechanism-points carry both
// values (see Errors).
func (ps *PredictedSweep) MaxErrorPct() (max, mean float64, n int) {
	s := ps.Errors()
	return s.MaxPct, s.MeanPct(), s.N
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

// PredictedBisectionSweep is the predicted form of BisectionSweep
// (Figure 8) over the same grid: one instrumented run per mechanism on
// the idle machine, re-solved for every cross-traffic rate (see
// bisectionGrid for the queueing mapping).
func (r *Runner) PredictedBisectionSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, crossRates []float64, msgBytes int, opt PredictOptions) (*PredictedSweep, error) {
	return r.predictedSweep(app, sc, bisectionGrid(mechs, base, crossRates, msgBytes), opt)
}

// PredictedClockSweep is the predicted form of ClockSweep (Figure 9)
// over the same grid: one instrumented run per mechanism at the base
// clock, re-solved for every clock in mhzs.
func (r *Runner) PredictedClockSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, mhzs []float64, opt PredictOptions) (*PredictedSweep, error) {
	return r.predictedSweep(app, sc, clockGrid(mechs, base, mhzs), opt)
}

// PredictedContextSwitchSweep is the predicted form of
// ContextSwitchSweep (Figure 10) over the same grid: the shared-memory
// mechanisms are instrumented once under the ideal-network emulation at
// the first latency and re-solved at the others; the message-passing
// mechanisms are untouched by the emulation, so their instrumented base
// runs on the real network stand at every point, exactly like the
// shared reference runs of the simulated sweep.
func (r *Runner) PredictedContextSwitchSweep(app AppName, sc Scale, mechs []apps.Mechanism, base machine.Config, oneWayCycles []int64, opt PredictOptions) (*PredictedSweep, error) {
	return r.predictedSweep(app, sc, contextSwitchGrid(mechs, base, oneWayCycles), opt)
}
