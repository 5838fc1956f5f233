package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
)

// TestPredictedSweepExactAtBase pins the prediction layer's anchor
// guarantee end to end: at the instrumented (latency, bandwidth) point
// the dependency-graph solve must reproduce the simulated runtime
// exactly — not approximately — because every edge arrives exactly when
// it arrived and instrumentation is passive.
func TestPredictedSweepExactAtBase(t *testing.T) {
	r := NewRunner(0)
	ps, err := r.PredictedClockSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
		machine.DefaultConfig(), []float64{20, 16}, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := ps.Points[0] // mhz 20 is the base config
	for _, mech := range []apps.Mechanism{apps.SM, apps.MPPoll} {
		sim, ok := base.Sim[mech]
		if !ok {
			t.Fatalf("%v: no base simulation", mech)
		}
		if pred := base.Pred[mech]; pred.Cycles != sim.Cycles {
			t.Errorf("%v: predicted %d cycles at the base point, simulated %d; must be exact",
				mech, pred.Cycles, sim.Cycles)
		}
		if cov := 1.0; ps.Base[mech].Crit.EdgesTotal() > int64(DefaultPredictEdgeCap) {
			t.Logf("%v: edge stream larger than the cap (coverage < %v)", mech, cov)
		}
	}
}

// TestPredictedSweepErrorBound asserts the committed validation bound
// on real grids: every predicted point of a tiny clock sweep and a
// tiny moderate-load bisection sweep lands within 15% of its
// simulation.
func TestPredictedSweepErrorBound(t *testing.T) {
	r := NewRunner(0)
	for _, app := range []AppName{EM3D, MOLDYN} {
		ps, err := r.PredictedClockSweep(app, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
			machine.DefaultConfig(), []float64{20, 16, 14}, PredictOptions{})
		if err != nil {
			t.Fatal(err)
		}
		max, mean, n := ps.MaxErrorPct()
		if n < 6 {
			t.Fatalf("%s: only %d validated mechanism-points", app, n)
		}
		if max > 15 {
			t.Errorf("%s: worst predicted-vs-simulated error %.1f%% (mean %.1f%%), committed bound is 15%%", app, max, mean)
		}
	}
	bs, err := r.PredictedBisectionSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
		machine.DefaultConfig(), []float64{0, 4, 6}, 64, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if max, mean, n := bs.MaxErrorPct(); n < 6 || max > 15 {
		t.Errorf("bisection axis: worst error %.1f%% (mean %.1f%%) over %d points, committed bound is 15%%", max, mean, n)
	}
}

// TestPredictedBisectionConfidence: cross-traffic utilization the edge
// DAG cannot see must surface as distrust — at a heavily loaded cut
// the confidence falls below the pruning floor, so the pruned sweep
// simulates exactly the points the queueing model is blind to.
func TestPredictedBisectionConfidence(t *testing.T) {
	r := NewRunner(0)
	ps, err := r.PredictedBisectionSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM},
		machine.DefaultConfig(), []float64{0, 12}, 64, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle, loaded := ps.Points[0].Pred[apps.SM], ps.Points[1].Pred[apps.SM]
	if loaded.Rho < idle.Rho+0.5 {
		t.Errorf("rho at 12 bytes/cycle of cross traffic = %v (idle %v), want the cut utilization reflected", loaded.Rho, idle.Rho)
	}
	if loaded.Confidence >= 0.7 {
		t.Errorf("confidence %v at a 2/3-loaded cut, want below the 0.7 pruning floor", loaded.Confidence)
	}
}

// flattenPredictions renders the deterministic core of a predicted
// sweep (predictions, tolerances, counts) into a canonical string for
// byte-equality comparison. Measured RunResults are excluded only
// because they carry pointers whose rendering is address-dependent;
// their determinism is covered by TestDeterminism.
func flattenPredictions(ps *PredictedSweep) string {
	s := fmt.Sprintf("grid=%d sim=%d\n", ps.Grid, ps.Simulated)
	for _, mech := range apps.Mechanisms {
		if tol, ok := ps.Tolerance[mech]; ok {
			s += fmt.Sprintf("tol %v %.9g\n", mech, tol)
		}
	}
	for _, pt := range ps.Points {
		s += fmt.Sprintf("x=%.9g", pt.X)
		for _, mech := range apps.Mechanisms {
			if p, ok := pt.Pred[mech]; ok {
				s += fmt.Sprintf(" %v:%d:%.9g:%.9g", mech, p.Cycles, p.Confidence, p.Rho)
			}
			if r, ok := pt.Sim[mech]; ok {
				s += fmt.Sprintf(" sim:%d", r.Cycles)
			}
		}
		s += "\n"
	}
	return s
}

// TestPredictedSweepDeterministic: two predicted sweeps of the same
// grid — fresh runner each, so every simulation and model build
// repeats — are byte-identical. Runs under the race suite, which also
// certifies the concurrent validation batch.
func TestPredictedSweepDeterministic(t *testing.T) {
	run := func() string {
		r := NewRunner(0)
		ps, err := r.PredictedClockSweep(EM3D, ScaleTiny, []apps.Mechanism{apps.SM, apps.MPPoll},
			machine.DefaultConfig(), []float64{20, 16}, PredictOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return flattenPredictions(ps)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two predictions of the same run differ:\n%s\nvs:\n%s", a, b)
	}
}

// TestPredictedSweepPruned: the pruned sweep must reach the same
// mechanism verdicts as the fully validated one — same fastest
// mechanism at every point, same crossover presence — while simulating
// fewer points.
func TestPredictedSweepPruned(t *testing.T) {
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll, apps.Bulk}
	grid := []float64{20, 16, 14}
	full, err := NewRunner(0).PredictedClockSweep(EM3D, ScaleTiny, mechs, machine.DefaultConfig(), grid, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := NewRunner(0).PredictedClockSweep(EM3D, ScaleTiny, mechs, machine.DefaultConfig(), grid, PredictOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.FastestPerPoint(), pruned.FastestPerPoint()) {
		t.Errorf("pruned verdicts %v differ from validated verdicts %v",
			pruned.FastestPerPoint(), full.FastestPerPoint())
	}
	for i := range mechs {
		for j := i + 1; j < len(mechs); j++ {
			_, fullX := Crossover(full.HybridPoints(), mechs[i], mechs[j])
			_, prunedX := Crossover(pruned.HybridPoints(), mechs[i], mechs[j])
			if fullX != prunedX {
				t.Errorf("%v/%v crossover presence differs: validated %v, pruned %v",
					mechs[i], mechs[j], fullX, prunedX)
			}
		}
	}
	if pruned.Simulated > full.Simulated {
		t.Errorf("pruning simulated %d of %d mechanism-points, validation %d",
			pruned.Simulated, pruned.Grid, full.Simulated)
	}
	if pruned.Simulated >= pruned.Grid {
		t.Errorf("pruning saved nothing: %d simulations for a %d-point grid", pruned.Simulated, pruned.Grid)
	}
}

// TestPredictedContextSwitchSweep: the Figure 10 planner's reference
// mechanisms are flat — one instrumented run stands at every point —
// and the shared-memory base point is exact like every other sweep's.
func TestPredictedContextSwitchSweep(t *testing.T) {
	r := NewRunner(0)
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	ps, err := r.PredictedContextSwitchSweep(EM3D, ScaleTiny, mechs, machine.DefaultConfig(),
		[]int64{15, 50}, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := ps.Points[0]
	if pred, sim := base.Pred[apps.SM], base.Sim[apps.SM]; pred.Cycles != sim.Cycles {
		t.Errorf("SM base point: predicted %d, simulated %d; must be exact", pred.Cycles, sim.Cycles)
	}
	for i := range ps.Points {
		if pred, sim := ps.Points[i].Pred[apps.MPPoll], ps.Points[i].Sim[apps.MPPoll]; pred.Cycles != sim.Cycles {
			t.Errorf("MP-poll reference at point %d: predicted %d, simulated %d; the flat line is its own base",
				i, pred.Cycles, sim.Cycles)
		}
	}
	if tol, ok := ps.Tolerance[apps.SM]; !ok || (tol <= 15 && !math.IsInf(tol, 1)) {
		t.Errorf("SM latency tolerance = %v cycles, want > the 15-cycle base or +Inf", tol)
	}
}

// TestPredictedAndSimulatedSweepsShareGrid: each methodology's
// simulated sweep and its fully validated predicted sweep, each on a
// fresh runner, report the same X values and the same simulated cycles
// at every (point, mechanism) — one grid drives both.
func TestPredictedAndSimulatedSweepsShareGrid(t *testing.T) {
	base := machine.DefaultConfig()
	mechs := []apps.Mechanism{apps.SM, apps.MPPoll}
	rates, mhzs, lats := []float64{0, 4}, []float64{20, 16}, []int64{15, 50}
	for _, tc := range []struct {
		name string
		sim  func(r *Runner) ([]SweepPoint, error)
		pred func(r *Runner) (*PredictedSweep, error)
	}{
		{"bisection",
			func(r *Runner) ([]SweepPoint, error) {
				return r.BisectionSweep(EM3D, ScaleTiny, mechs, base, rates, 64)
			},
			func(r *Runner) (*PredictedSweep, error) {
				return r.PredictedBisectionSweep(EM3D, ScaleTiny, mechs, base, rates, 64, PredictOptions{})
			}},
		{"clock",
			func(r *Runner) ([]SweepPoint, error) { return r.ClockSweep(EM3D, ScaleTiny, mechs, base, mhzs) },
			func(r *Runner) (*PredictedSweep, error) {
				return r.PredictedClockSweep(EM3D, ScaleTiny, mechs, base, mhzs, PredictOptions{})
			}},
		{"context switch",
			func(r *Runner) ([]SweepPoint, error) { return r.ContextSwitchSweep(EM3D, ScaleTiny, mechs, base, lats) },
			func(r *Runner) (*PredictedSweep, error) {
				return r.PredictedContextSwitchSweep(EM3D, ScaleTiny, mechs, base, lats, PredictOptions{})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts, err := tc.sim(NewRunner(0))
			if err != nil {
				t.Fatal(err)
			}
			ps, err := tc.pred(NewRunner(0))
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(ps.Points) {
				t.Fatalf("simulated sweep has %d points, predicted %d", len(pts), len(ps.Points))
			}
			for i, pt := range pts {
				if pt.X != ps.Points[i].X {
					t.Errorf("point %d: simulated X %v, predicted X %v", i, pt.X, ps.Points[i].X)
				}
				for _, mech := range mechs {
					s, ok := pt.Results[mech]
					v, vok := ps.Points[i].Sim[mech]
					if !ok || !vok || s.Cycles != v.Cycles {
						t.Errorf("point %d %v: simulated %d (present %v), predicted sweep's simulation %d (present %v)",
							i, mech, s.Cycles, ok, v.Cycles, vok)
					}
				}
			}
		})
	}
}
