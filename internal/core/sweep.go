package core

import (
	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/predict"
	"repro/internal/sim"
)

// SweepPoint is one X position of a parametric experiment with the
// measured results per mechanism.
type SweepPoint struct {
	X       float64 // meaning depends on the sweep (bytes/cycle, cycles, ...)
	Results map[apps.Mechanism]RunResult
}

// DefaultScalingNodes is the Figure S1 node-count schedule: the paper's
// 32-node machine plus the scale-out geometries.
var DefaultScalingNodes = []int{32, 64, 128, 256, 512}

// sweepGrid is one methodology's grid, shared by its simulated and its
// predicted sweep so the two cannot drift apart: the X values, and per
// mechanism everything either sweep needs to produce that mechanism's
// curve.
type sweepGrid struct {
	xs    []float64
	mechs []mechGrid
}

// mechGrid is one mechanism's slice of a sweepGrid: the config that
// simulates each point, the base config its predictor instruments, and
// the predict.Point that re-solves each point from that base. Sweeps
// that are never predicted leave points nil.
type mechGrid struct {
	mech   apps.Mechanism
	cfgs   []machine.Config
	base   machine.Config
	points []predict.Point
}

// uniformGrid gives every mechanism the same point configs, base and
// predictor points.
func uniformGrid(xs []float64, mechs []apps.Mechanism, base machine.Config, cfgs []machine.Config, points []predict.Point) sweepGrid {
	g := sweepGrid{xs: xs, mechs: make([]mechGrid, len(mechs))}
	for i, mech := range mechs {
		g.mechs[i] = mechGrid{mech: mech, cfgs: cfgs, base: base, points: points}
	}
	return g
}

// runGrid simulates the (point, mechanism) cells of g that want selects
// (every cell when want is nil), each distinct fingerprint once, on the
// worker pool. It returns the successful results per point, the number
// of distinct simulations, and the first error when every selected run
// failed (a wholly failed simulated sweep should surface, not return
// empty points).
//
// Failed runs are isolated, not fatal: a crashing cell is simply absent
// from its point's results (downstream analysis like Crossover skips
// partial mechanism sets), and the RunError is recorded on the Runner
// for reporting via Failures.
func (r *Runner) runGrid(app AppName, sc Scale, g sweepGrid, scaleProblem bool, want func(pt, mi int) bool) (cells []map[apps.Mechanism]RunResult, distinct int, err error) {
	type cell struct{ pt, mi, job int }
	var (
		sel  []cell
		jobs []RunConfig
	)
	first := make(map[RunConfig]int)
	for i := range g.xs {
		for mi, m := range g.mechs {
			if want != nil && !want(i, mi) {
				continue
			}
			rc := RunConfig{App: app, Mech: m.mech, Scale: sc, Machine: m.cfgs[i], ScaleProblem: scaleProblem, SkipValidate: true}
			key := fingerprint(rc)
			j, ok := first[key]
			if !ok {
				j = len(jobs)
				first[key] = j
				jobs = append(jobs, rc)
			}
			sel = append(sel, cell{pt: i, mi: mi, job: j})
		}
	}
	results, errs := r.RunBatchAll(jobs)
	cells = make([]map[apps.Mechanism]RunResult, len(g.xs))
	for i := range cells {
		cells[i] = make(map[apps.Mechanism]RunResult, len(g.mechs))
	}
	for _, c := range sel {
		if errs[c.job] == nil {
			cells[c.pt][g.mechs[c.mi].mech] = results[c.job]
		}
	}
	return cells, len(jobs), allFailed(errs)
}

// simulate runs every cell of g and folds the results into ordered
// SweepPoints: the common core of every simulated sweep.
func (r *Runner) simulate(app AppName, sc Scale, g sweepGrid, scaleProblem bool) ([]SweepPoint, error) {
	cells, _, err := r.runGrid(app, sc, g, scaleProblem, nil)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(g.xs))
	for i, x := range g.xs {
		out[i] = SweepPoint{X: x, Results: cells[i]}
	}
	return out, nil
}

// allFailed returns the first error if every job in a nonempty batch
// failed, and nil otherwise.
func allFailed(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// bisectionGrid is the Figure 8 grid: cross-traffic of msgBytes-byte
// messages consumes crossRates[i] bytes/cycle of the bisection, and X
// is the emulated bisection (native minus cross-traffic) in bytes per
// processor cycle.
//
// The predictor re-solves each point from the idle machine. A
// cross-traffic stream consuming u = rate/native of the cut reserves
// every X link it crosses for its message's serialization time, so an
// application packet's head waits, on average, the residual of that
// occupancy (u*S/2) at each X hop — a queueing delay on the latency
// component, not a stretch of the application's own serialization,
// which still moves at full link rate once the link is won. LatScale
// folds that expected wait into each edge's hop latency; BWScale stays
// 1. The mapping's blind spot is compounding queueing near saturation,
// so the cross-traffic utilization rides along as ExtraRho: the model
// distrusts exactly the points it cannot see, and the pruned mode
// simulates them.
func bisectionGrid(mechs []apps.Mechanism, base machine.Config, crossRates []float64, msgBytes int) sweepGrid {
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
	return uniformGrid(xs, mechs, base, cfgs, points)
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

// clockGrid is the Figure 9 grid: the processor clock takes each of
// mhzs while the asynchronous network is untouched, and X is the
// one-way network latency in processor cycles (NetLatencyCycles).
//
// The predictor re-solves each point from the base clock. Slowing the
// clock leaves network picoseconds untouched but shrinks them relative
// to a cycle, so in base-run time units both network components scale
// by mhz/base — LatScale and BWScale move together.
func clockGrid(mechs []apps.Mechanism, base machine.Config, mhzs []float64) sweepGrid {
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
	return uniformGrid(xs, mechs, base, cfgs, points)
}

// contextSwitchGrid is the Figure 10 grid: every remote miss costs a
// uniform emulated one-way latency over an ideal network, and X is that
// latency in processor cycles. Only the shared-memory mechanisms are
// affected; the message-passing mechanisms are flat reference lines on
// the untouched base machine, so every point of theirs is one config
// (simulated once) and one predict.Base solve of their own base run.
// The shared-memory predictors are instrumented at the first latency
// and re-solved with LatScale = lat/first.
func contextSwitchGrid(mechs []apps.Mechanism, base machine.Config, oneWayCycles []int64) sweepGrid {
	xs := make([]float64, len(oneWayCycles))
	refCfgs := make([]machine.Config, len(oneWayCycles))
	refPoints := make([]predict.Point, len(oneWayCycles))
	swCfgs := make([]machine.Config, len(oneWayCycles))
	swPoints := make([]predict.Point, len(oneWayCycles))
	swBase := base
	for i, lat := range oneWayCycles {
		xs[i] = float64(lat)
		refCfgs[i], refPoints[i] = base, predict.Base
		cfg := base
		cfg.IdealNetOneWayCycles = lat
		swCfgs[i] = cfg
		if i == 0 {
			swBase = cfg
		}
		swPoints[i] = predict.Point{LatScale: float64(lat) / float64(oneWayCycles[0]), BWScale: 1}
	}
	g := sweepGrid{xs: xs, mechs: make([]mechGrid, len(mechs))}
	for i, mech := range mechs {
		if mech.UsesMessages() {
			g.mechs[i] = mechGrid{mech: mech, cfgs: refCfgs, base: base, points: refPoints}
		} else {
			g.mechs[i] = mechGrid{mech: mech, cfgs: swCfgs, base: swBase, points: swPoints}
		}
	}
	return g
}

// NetLatencyCycles returns the one-way delivery time of a 24-byte packet
// over the mesh's average distance, in processor cycles — the latency
// convention of the paper's Table 1 (Alewife ~ 15 at 20 MHz).
func NetLatencyCycles(cfg machine.Config) float64 {
	clk := sim.NewClock(cfg.ClockMHz)
	m := mesh.New(sim.NewEngine(), mesh.Config{Width: cfg.Width, Height: cfg.Height,
		HopLatency: cfg.HopLatency, PsPerByte: cfg.PsPerByte, Torus: cfg.Torus})
	avg := m.AvgHops()
	t := float64(cfg.HopLatency)*(avg+1) + 24*float64(cfg.PsPerByte)
	return t / float64(clk.PsPerCycle())
}

// Crossover scans a sweep (ordered by X) for the first X interval where
// mechanism a's runtime goes from strictly faster to strictly slower
// than b's (or vice versa), returning the interpolated crossing X.
// Points that did not measure both mechanisms (partial mechanism sets)
// are skipped explicitly, and exact ties establish no direction: curves
// that touch and separate back to the same side do not cross, curves
// that touch and come out on the other side cross exactly at the touch
// point, and a sweep that never has two opposite-signed points reports
// no crossing.
func Crossover(points []SweepPoint, a, b apps.Mechanism) (x float64, found bool) {
	prev := -1 // index of the last point with both measured and a nonzero difference
	tie := -1  // last exact-tie point seen since prev
	for i := range points {
		ra, okA := points[i].Results[a]
		rb, okB := points[i].Results[b]
		if !okA || !okB {
			continue
		}
		d := float64(ra.Cycles - rb.Cycles)
		if d == 0 {
			tie = i
			continue
		}
		if prev >= 0 {
			d0 := float64(points[prev].Results[a].Cycles - points[prev].Results[b].Cycles)
			if (d0 < 0) != (d < 0) {
				if tie >= 0 {
					return points[tie].X, true
				}
				p0, p1 := points[prev], points[i]
				frac := -d0 / (d - d0)
				return p0.X + frac*(p1.X-p0.X), true
			}
		}
		prev, tie = i, -1
	}
	return 0, false
}

func clockOf(cfg machine.Config) sim.Clock { return sim.NewClock(cfg.ClockMHz) }
