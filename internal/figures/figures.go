package figures

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Fig4Row is one bar of Figure 4.
type Fig4Row struct {
	App core.AppName
	Res core.RunResult
}

// Fig4Data runs all four applications under all five mechanisms on the
// base machine. The 20 runs execute on core.DefaultRunner's worker pool;
// row order matches the serial nesting (app-major, mechanism-minor).
func Fig4Data(sc core.Scale, cfg machine.Config) ([]Fig4Row, error) {
	var jobs []core.RunConfig
	for _, app := range core.AppNames {
		for _, mech := range apps.Mechanisms {
			jobs = append(jobs, core.RunConfig{App: app, Mech: mech, Scale: sc, Machine: cfg})
		}
	}
	results, err := core.DefaultRunner.RunBatch(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, len(results))
	for i, r := range results {
		rows[i] = Fig4Row{App: jobs[i].App, Res: r}
	}
	return rows, nil
}

// PrintFig4 renders the runtime breakdown summary (the paper plots
// stacked bars; we print cycles and percentage splits).
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4: Summary of Performance on Alewife")
	fmt.Fprintln(w, "(execution time in processor cycles; breakdown percentages of total processor time)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tmechanism\tcycles\trel\tsync%\tmsg-ovh%\tmem+ni%\tcompute%")
	var base int64
	for _, row := range rows {
		if row.Res.Mech == apps.SM {
			base = row.Res.Cycles
		}
		bd := row.Res.Breakdown
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			row.App, row.Res.Mech, row.Res.Cycles,
			float64(row.Res.Cycles)/float64(base),
			100*bd.Frac(stats.BucketSync),
			100*bd.Frac(stats.BucketMsgOverhead),
			100*bd.Frac(stats.BucketMemWait),
			100*bd.Frac(stats.BucketCompute))
	}
	tw.Flush()
}

// PrintCritPath renders the critical-path attribution for Figure 4's
// runs: which processor finished last, and where its cycles went. The
// interesting columns are the two network shares — net-lat is time the
// path waited on uncongested message flight (irreducible at a given
// HopLatency), net-bw the serialization/queueing/occupancy remainder —
// because they separate the latency sensitivity the paper measures from
// the bandwidth sensitivity.
func PrintCritPath(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Critical path: last-finishing processor's cycles by cause")
	fmt.Fprintln(w, "(percentages of that processor's total; categories are exhaustive and sum to 100)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tmechanism\tnode\tcycles\tcompute%\tmem%\tnet-lat%\tnet-bw%\tsync%")
	for _, row := range rows {
		cp := row.Res.CritPath
		if cp == nil {
			continue
		}
		pct := func(v int64) float64 {
			if cp.TotalCycles == 0 {
				return 0
			}
			return 100 * float64(v) / float64(cp.TotalCycles)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.0f\t%.0f\t%.1f\t%.1f\t%.0f\n",
			row.App, row.Res.Mech, cp.Node, cp.TotalCycles,
			pct(cp.Compute), pct(cp.MemStall), pct(cp.NetLatency), pct(cp.NetBandwidth), pct(cp.Sync))
	}
	tw.Flush()
}

// Fig5Data reuses Figure 4 runs' volume accounting.
type Fig5Row = Fig4Row

// PrintFig5 renders the communication-volume breakdowns.
func PrintFig5(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 5: Communication volume by mechanism")
	fmt.Fprintln(w, "(bytes injected into the network, by protocol component)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tmechanism\ttotal\tx-SM\tinval\treq\thdrs\tdata")
	var smTotal int64
	for _, row := range rows {
		v := row.Res.Volume
		if row.Res.Mech == apps.SM {
			smTotal = v.Total()
		}
		rel := float64(v.Total()) / float64(smTotal)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%d\t%d\t%d\n",
			row.App, row.Res.Mech, v.Total(), rel,
			v.Bytes[stats.VolInvalidates], v.Bytes[stats.VolRequests],
			v.Bytes[stats.VolHeaders], v.Bytes[stats.VolData])
	}
	tw.Flush()
}

// PrintFig3 renders the measured miss penalties against the paper's.
func PrintFig3(w io.Writer, cfg machine.Config) core.MissPenalties {
	mp := core.MeasureMissPenalties(cfg)
	fmt.Fprintln(w, "Figure 3 (cost table): shared-memory penalties, measured vs paper")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "operation\tmeasured (cycles)\tpaper (cycles)")
	rows := []struct {
		name  string
		got   float64
		paper string
	}{
		{"local read miss", mp.LocalRead, "11"},
		{"remote clean read", mp.RemoteCleanRead, "38-42"},
		{"remote dirty read (3-party)", mp.RemoteDirtyRead, "63"},
		{"LimitLESS sw read", mp.LimitLESSRead, "425"},
		{"local write miss", mp.LocalWrite, "12"},
		{"remote clean write", mp.RemoteCleanWrite, "38-40"},
		{"remote write, 1 inval", mp.RemoteInvalWrite, "43-66"},
		{"remote dirty write (3-party)", mp.RemoteDirtyWrite, "66-84"},
		{"LimitLESS sw write", mp.LimitLESSWrite, "707"},
		{"null active message", mp.NullAMCycles, "102 + 0.8/hop"},
		{"one-way 24B network latency", mp.NetLatency24, "15"},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%s\n", r.name, r.got, r.paper)
	}
	tw.Flush()
	return mp
}

// PrintLogP measures and prints the machine's LogP parameters — the
// related-work framing (Martin et al.) the paper contrasts itself with.
// L, o and g are microcosts of the same kind as Figure 3's null active
// message and one-way network latency, so paperbench prints them there.
func PrintLogP(w io.Writer, cfg machine.Config) core.LogP {
	lp := core.MeasureLogP(cfg)
	fmt.Fprintln(w, "LogP parameters of the simulated machine (cycles):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "L (latency)\t%.1f\n", lp.L)
	fmt.Fprintf(tw, "o (overhead)\t%.1f\n", lp.O)
	fmt.Fprintf(tw, "g (gap)\t%.1f\n", lp.G)
	fmt.Fprintf(tw, "P (processors)\t%d\n", lp.P)
	tw.Flush()
	fmt.Fprintln(w, "overhead-dominated (o, g >> L): latency-insensitive message passing,")
	fmt.Fprintln(w, "as the paper's EM3D results and Martin et al.'s LogP analysis agree.")
	return lp
}

// PrintSweep renders a sweep as one series per mechanism (the paper's
// line plots), with runtime in cycles.
func PrintSweep(w io.Writer, title, xlabel string, mechs []apps.Mechanism, pts []core.SweepPoint) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xlabel)
	for _, m := range mechs {
		fmt.Fprintf(tw, "\t%s", m.Short())
	}
	fmt.Fprintln(tw)
	for _, pt := range pts {
		fmt.Fprintf(tw, "%.1f", pt.X)
		for _, m := range mechs {
			fmt.Fprintf(tw, "\t%d", pt.Results[m].Cycles)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig8 runs and prints the bisection sweep for one application.
func Fig8(w io.Writer, app core.AppName, sc core.Scale, cfg machine.Config, rates []float64) ([]core.SweepPoint, error) {
	pts, err := core.DefaultRunner.BisectionSweep(app, sc, apps.Mechanisms, cfg, rates, 64)
	if err != nil {
		return nil, err
	}
	PrintSweep(w, fmt.Sprintf("Figure 8 (%s): execution cycles vs bisection bandwidth", app),
		"bytes/cycle", apps.Mechanisms, pts)
	if x, ok := core.Crossover(pts, apps.SM, apps.MPPoll); ok {
		fmt.Fprintf(w, "SM / MP-poll crossover at ~%.1f bytes/cycle\n", x)
	} else {
		fmt.Fprintln(w, "no SM / MP-poll crossover in range")
	}
	return pts, nil
}

// Fig9 runs and prints the clock-scaling sweep for one application.
func Fig9(w io.Writer, app core.AppName, sc core.Scale, cfg machine.Config, mhzs []float64) ([]core.SweepPoint, error) {
	pts, err := core.DefaultRunner.ClockSweep(app, sc, apps.Mechanisms, cfg, mhzs)
	if err != nil {
		return nil, err
	}
	PrintSweep(w, fmt.Sprintf("Figure 9 (%s): execution cycles vs network latency (clock scaling)", app),
		"net latency (cycles)", apps.Mechanisms, pts)
	return pts, nil
}

// Fig10 runs and prints the context-switch latency emulation for one
// application (message-passing curves are fixed references).
func Fig10(w io.Writer, app core.AppName, sc core.Scale, cfg machine.Config, lats []int64) ([]core.SweepPoint, error) {
	pts, err := core.DefaultRunner.ContextSwitchSweep(app, sc, apps.Mechanisms, cfg, lats)
	if err != nil {
		return nil, err
	}
	PrintSweep(w, fmt.Sprintf("Figure 10 (%s): execution cycles vs emulated uniform latency", app),
		"one-way latency (cycles)", apps.Mechanisms, pts)
	return pts, nil
}

// Fig7 runs and prints the cross-traffic message-length sensitivity.
func Fig7(w io.Writer, app core.AppName, sc core.Scale, cfg machine.Config, rate float64, sizes []int) ([]core.SweepPoint, error) {
	pts, err := core.DefaultRunner.MsgLenSweep(app, sc, apps.SM, cfg, rate, sizes)
	if err != nil {
		return nil, err
	}
	PrintSweep(w, fmt.Sprintf("Figure 7 (%s): sensitivity to cross-traffic message length (%.0f bytes/cycle consumed)", app, rate),
		"msg bytes", []apps.Mechanism{apps.SM}, pts)
	return pts, nil
}

// Fig1 classifies the regions of a bisection sweep (the measured version
// of the paper's conceptual Figure 1). Bisection sweeps already run in
// decreasing-bandwidth order, which is increasing stress — classify them
// as given.
func Fig1(w io.Writer, pts []core.SweepPoint, mechs []apps.Mechanism) {
	fmt.Fprintln(w, "Figure 1 (measured): performance regions as bisection bandwidth decreases")
	printRegions(w, pts, mechs)
}

// Fig2 classifies the regions of a latency sweep (the measured version of
// the paper's conceptual Figure 2).
func Fig2(w io.Writer, pts []core.SweepPoint, mechs []apps.Mechanism) {
	fmt.Fprintln(w, "Figure 2 (measured): performance regions as network latency increases")
	printRegions(w, pts, mechs)
}

func printRegions(w io.Writer, pts []core.SweepPoint, mechs []apps.Mechanism) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range mechs {
		regions := core.ClassifyRegions(pts, m)
		fmt.Fprintf(tw, "%s", m)
		for _, r := range regions {
			fmt.Fprintf(tw, "\t%s", r)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
