package figures

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

// FigS1 runs and prints the node-scaling experiment for one application
// — the reproduction's extrapolation of the paper's central question
// (how mechanism rankings shift with bandwidth and latency) to machine
// sizes the paper never built. Two sweeps per app:
//
//   - fixed problem (strong scaling): the scale's workload cut into
//     more pieces, so per-node work shrinks while hop counts and
//     bisection stress grow;
//   - scaled problem (weak scaling): workload grown proportionally to
//     the node count, holding per-node work at its 32-node value.
//
// Speedup is each mechanism's 32-node runtime over its runtime at N
// nodes (so every curve starts at 1.00 and strong-scaling curves that
// flatten or invert expose the communication bottleneck). Node counts
// whose workload cannot be partitioned that finely print "-" and are
// skipped by the crossover scan.
func FigS1(w io.Writer, app core.AppName, sc core.Scale, base machine.Config, nodeCounts []int) (fixed, scaled []core.SweepPoint, err error) {
	fixed, err = core.DefaultRunner.NodeScalingSweep(app, sc, apps.Mechanisms, base, nodeCounts, false)
	if err != nil {
		return nil, nil, err
	}
	scaled, err = core.DefaultRunner.NodeScalingSweep(app, sc, apps.Mechanisms, base, nodeCounts, true)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "Figure S1 (%s): mechanism scaling with machine size (beyond the paper's 32 nodes)\n", app)
	printScaling(w, "fixed problem size (strong scaling)", apps.Mechanisms, fixed)
	printScaling(w, "scaled problem size (weak scaling)", apps.Mechanisms, scaled)
	for _, m := range []struct {
		name string
		pts  []core.SweepPoint
	}{{"fixed", fixed}, {"scaled", scaled}} {
		if x, ok := core.Crossover(m.pts, apps.SM, apps.MPPoll); ok {
			fmt.Fprintf(w, "SM / MP-poll crossover (%s) at ~%.0f nodes\n", m.name, x)
		} else {
			fmt.Fprintf(w, "no SM / MP-poll crossover (%s) in range\n", m.name)
		}
	}
	return fixed, scaled, nil
}

// printScaling renders one scaling sweep: cycles per mechanism per node
// count, then each mechanism's speedup relative to its own first
// measured point.
func printScaling(w io.Writer, title string, mechs []apps.Mechanism, pts []core.SweepPoint) {
	fmt.Fprintf(w, "-- %s --\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "nodes")
	for _, m := range mechs {
		fmt.Fprintf(tw, "\t%s", m.Short())
	}
	for _, m := range mechs {
		fmt.Fprintf(tw, "\t%s x", m.Short())
	}
	fmt.Fprintln(tw)
	for _, pt := range pts {
		fmt.Fprintf(tw, "%.0f", pt.X)
		for _, m := range mechs {
			if r, ok := pt.Results[m]; ok {
				fmt.Fprintf(tw, "\t%d", r.Cycles)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		for _, m := range mechs {
			if s, ok := Speedup(pts, m, pt); ok {
				fmt.Fprintf(tw, "\t%.2f", s)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Speedup returns mechanism m's runtime at its baseline (the sweep's
// first point that measured m) divided by its runtime at pt — >1 means
// faster than the baseline machine. ok=false when either point lacks m.
func Speedup(pts []core.SweepPoint, m apps.Mechanism, pt core.SweepPoint) (float64, bool) {
	r, ok := pt.Results[m]
	if !ok || r.Cycles == 0 {
		return 0, false
	}
	for _, p := range pts {
		if b, ok := p.Results[m]; ok {
			return float64(b.Cycles) / float64(r.Cycles), true
		}
	}
	return 0, false
}
