package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

// TestTablesMatchBenchmarkJSON holds the metric tables and the
// repository's BENCHMARK.json in step: same names, units and direction.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
}

// TestSmokeEveryMetric runs every workload at tiny scale, untraced and
// traced, and checks each run is correct and emits every named metric
// with its unit, and that the spans nest.
func TestSmokeEveryMetric(t *testing.T) {
	for _, name := range []string{"mech_grid", "bisection_sweep", "latency_predict"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: defaultSeed, seconds: 0.01, trace: traced,
				scale: core.ScaleTiny, spansDir: t.TempDir(), workers: 2}
			res, inf, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, res.Correct, res.Attempted, res.Failed, inf.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, v, d.unit)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			if traced {
				checkSpans(t, inf.SpansFile)
			}
		}
	}
}

// checkSpans reads a spans file and checks every span closed and names
// an earlier span (or none) as its parent.
func checkSpans(t *testing.T, name string) {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]bool{0: true}
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if !seen[s.Parent] || s.End < s.Start {
			t.Fatalf("span %+v: unknown parent or never closed", s)
		}
		seen[s.ID] = true
		n++
	}
	if n == 0 {
		t.Errorf("%s holds no spans", name)
	}
}

// tinyGrid runs one mech_grid pass at tiny scale.
func tinyGrid(t *testing.T, seed int64) passOut {
	t.Helper()
	out, err := mechGrid{}.pass(inputs{seed: seed, scale: core.ScaleTiny, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGateFiresOnPerturbedValue: a pass checked against its own
// statistics passes; perturbing one committed value fails exactly that
// simulation.
func TestGateFiresOnPerturbedValue(t *testing.T) {
	out := tinyGrid(t, defaultSeed)
	want := make(map[string]record)
	for _, r := range out.records {
		want[r.ID] = r
	}
	g := gate{want: want}
	g.check(out)
	if g.failed != 0 || g.attempted != len(apps.Mechanisms)*len(core.AppNames) {
		t.Fatalf("unperturbed: attempted=%d failed=%d %v", g.attempted, g.failed, g.failures)
	}
	for _, perturb := range []func(*record){
		func(r *record) { r.Cycles++ },
		func(r *record) { r.Volume.Bytes[0]++ },
		func(r *record) { r.Events.RemoteMissesCln++ },
	} {
		bad := out.records[3]
		perturb(&bad)
		want[bad.ID] = bad
		g := gate{want: want}
		g.check(out)
		if g.failed != 1 {
			t.Errorf("perturbed %s: failed=%d, want 1", bad.ID, g.failed)
		}
		want[bad.ID] = out.records[3]
	}
}

// TestGateFiresAcrossPasses: without committed values, a simulation that
// differs from its earlier run fails.
func TestGateFiresAcrossPasses(t *testing.T) {
	out := tinyGrid(t, defaultSeed)
	var g gate
	g.check(out)
	changed := out
	changed.records = append([]record(nil), out.records...)
	changed.records[0].Cycles++
	g.check(changed)
	if g.failed != 1 {
		t.Errorf("failed=%d, want 1", g.failed)
	}
}

// TestNonDefaultSeedValidates: another seed generates different inputs,
// and every simulation still passes Validate.
func TestNonDefaultSeedValidates(t *testing.T) {
	base, other := tinyGrid(t, defaultSeed), tinyGrid(t, 7)
	if len(other.failures) != 0 {
		t.Fatalf("seed 7: %v", other.failures)
	}
	differ := 0
	for i := range other.records {
		if other.records[i] != base.records[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("seed 7 reproduced the default seed's statistics; the seed does not reach the generators")
	}
}

// TestDefaultSeedIsPaperInput: at the default seed the benchmark's
// generators reproduce core.NewApp's instances exactly.
func TestDefaultSeedIsPaperInput(t *testing.T) {
	for _, app := range core.AppNames {
		app := app
		o := simulate(nil, 0, simJob{
			id: string(app), mech: apps.MPPoll, cfg: machine.DefaultConfig(),
			build: func() (apps.App, error) { return buildApp(app, core.ScaleTiny, defaultSeed) },
		})
		if o.err != nil {
			t.Fatal(o.err)
		}
		want, err := core.Run(core.RunConfig{App: app, Mech: apps.MPPoll, Scale: core.ScaleTiny, Machine: machine.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if got := recordOf(string(app), want.Result); got != o.rec {
			t.Errorf("%s: benchmark input gives %d cycles, core.NewApp %d", app, o.rec.Cycles, got.Cycles)
		}
	}
}

// TestSeededGrids: the default seed gives the paper's grids; other seeds
// stay in range, sorted, with the predictor's base first.
func TestSeededGrids(t *testing.T) {
	if r := crossRates(defaultSeed); r[0] != 0 || r[len(r)-1] != 16 {
		t.Errorf("default rates %v", r)
	}
	for seed := int64(2); seed < 40; seed++ {
		for i, r := range crossRates(seed) {
			if r < 0 || r > 16 || (i == 0) != (r == 0) {
				t.Fatalf("seed %d: rates %v", seed, crossRates(seed))
			}
		}
		l := oneWayLatencies(seed)
		if l[0] != 15 || l[len(l)-1] != 200 {
			t.Fatalf("seed %d: latencies %v", seed, l)
		}
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Fatalf("seed %d: latencies %v not increasing", seed, l)
			}
		}
	}
}

// TestCommittedExpected: the committed statistics cover every workload.
func TestCommittedExpected(t *testing.T) {
	all, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for name, min := range map[string]int{"mech_grid": 20, "bisection_sweep": 36, "latency_predict": 10} {
		if n := len(all[name]); n < min {
			t.Errorf("%s: %d committed simulations, want at least %d", name, n, min)
		}
	}
}
