package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

func TestFig4DataAndPrint(t *testing.T) {
	rows, err := Fig4Data(core.ScaleTiny, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Figure 4", "em3d", "unstruc", "iccg", "moldyn",
		"shared-memory", "bulk-dma", "sync%", "compute%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q", want)
		}
	}

	var buf5 bytes.Buffer
	PrintFig5(&buf5, rows)
	out5 := buf5.String()
	for _, want := range []string{"Figure 5", "inval", "hdrs", "data"} {
		if !strings.Contains(out5, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
}

func TestFig4VolumeShapes(t *testing.T) {
	rows, err := Fig4Data(core.ScaleTiny, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// For every app: SM volume strictly exceeds fine-grained MP volume
	// (the paper's up-to-6x claim), and interrupt==poll volumes match.
	byApp := map[core.AppName]map[apps.Mechanism]int64{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[apps.Mechanism]int64{}
		}
		byApp[r.App][r.Res.Mech] = r.Res.Volume.Total()
	}
	for app, vols := range byApp {
		if vols[apps.SM] <= vols[apps.MPPoll] {
			t.Errorf("%s: SM volume %d <= MP volume %d", app, vols[apps.SM], vols[apps.MPPoll])
		}
		ratio := float64(vols[apps.MPInterrupt]) / float64(vols[apps.MPPoll])
		if ratio < 0.98 || ratio > 1.02 {
			t.Errorf("%s: interrupt and poll volumes differ: %d vs %d",
				app, vols[apps.MPInterrupt], vols[apps.MPPoll])
		}
	}
}

func TestPrintFig3Bounds(t *testing.T) {
	var buf bytes.Buffer
	mp := PrintFig3(&buf, machine.DefaultConfig())
	if !strings.Contains(buf.String(), "LimitLESS") {
		t.Error("Fig3 output missing LimitLESS rows")
	}
	if mp.LocalRead <= 0 || mp.LimitLESSWrite < mp.LimitLESSRead {
		t.Errorf("implausible penalties: %+v", mp)
	}
}

func TestFig8EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Fig8(&buf, core.EM3D, core.ScaleTiny, machine.DefaultConfig(), []float64{0, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("missing title")
	}
	// Per-mechanism monotone degradation at the stressed point for SM.
	if pts[1].Results[apps.SM].Cycles <= pts[0].Results[apps.SM].Cycles {
		t.Error("SM did not degrade with cross-traffic")
	}
}

func TestFig9Fig10EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Fig9(&buf, core.EM3D, core.ScaleTiny, machine.DefaultConfig(), []float64{20, 14}); err != nil {
		t.Fatal(err)
	}
	pts, err := Fig10(&buf, core.EM3D, core.ScaleTiny, machine.DefaultConfig(), []int64{15, 100})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Results[apps.SM].Cycles <= pts[0].Results[apps.SM].Cycles {
		t.Error("SM did not degrade with emulated latency")
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "Figure 10") {
		t.Error("missing titles")
	}
}

func TestFig7EndToEnd(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Fig7(&buf, core.EM3D, core.ScaleTiny, machine.DefaultConfig(), 8, []int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestFig1Fig2Classification(t *testing.T) {
	// Synthetic sweep with a flat then steep SM curve.
	mk := func(x float64, sm, mp int64) core.SweepPoint {
		return core.SweepPoint{X: x, Results: map[apps.Mechanism]core.RunResult{
			apps.SM:     {Result: machine.Result{Cycles: sm}},
			apps.MPPoll: {Result: machine.Result{Cycles: mp}},
		}}
	}
	pts := []core.SweepPoint{mk(18, 100, 100), mk(10, 105, 101), mk(2, 220, 110)}
	var buf bytes.Buffer
	Fig1(&buf, pts, []apps.Mechanism{apps.SM, apps.MPPoll})
	out := buf.String()
	if !strings.Contains(out, "latency") {
		t.Errorf("Fig1 produced no region labels:\n%s", out)
	}
	var buf2 bytes.Buffer
	Fig2(&buf2, pts, []apps.Mechanism{apps.SM}) // order as-is for latency sweeps
	if !strings.Contains(buf2.String(), "shared-memory") {
		t.Error("Fig2 missing mechanism label")
	}
}

// TestFig2RegionsOnTinySweep pins the measured Figure 2 regions on the
// real tiny Figure 10 sweep of every app: shared memory, with or without
// prefetching, is latency-dominated on every interval (round-trip
// stalls), and polled message passing, a flat reference line on the
// base machine in this sweep, stays latency-hiding, as EXPERIMENTS.md
// "Figures 1 & 2" reports.
func TestFig2RegionsOnTinySweep(t *testing.T) {
	want := map[apps.Mechanism]core.Region{
		apps.SM:         core.LatencyDominated,
		apps.SMPrefetch: core.LatencyDominated,
		apps.MPPoll:     core.LatencyHiding,
	}
	mechs := []apps.Mechanism{apps.SM, apps.SMPrefetch, apps.MPPoll}
	for _, app := range core.AppNames {
		pts, err := core.DefaultRunner.ContextSwitchSweep(app, core.ScaleTiny, mechs,
			machine.DefaultConfig(), []int64{15, 25, 50, 100, 200})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mechs {
			regions := core.ClassifyRegions(pts, m)
			if len(regions) != len(pts)-1 {
				t.Fatalf("%s %s: %d regions for %d points", app, m, len(regions), len(pts))
			}
			for i, r := range regions {
				if r != want[m] {
					t.Errorf("%s %s: interval %.0f-%.0f cycles is %s, want %s",
						app, m, pts[i].X, pts[i+1].X, r, want[m])
				}
			}
		}
	}
}

func TestPrintLogP(t *testing.T) {
	var buf bytes.Buffer
	lp := PrintLogP(&buf, machine.DefaultConfig())
	if lp.P != 32 {
		t.Errorf("P = %d", lp.P)
	}
	if !strings.Contains(buf.String(), "LogP") {
		t.Error("missing header")
	}
}
