package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseNoiseRoundTrip(t *testing.T) {
	specs := []string{
		"hostnoise:node=*,dist=exp,mean=2us",
		"hostnoise:node=3,dist=heavytail,mean=1us,prob=0.25",
		"netnoise:node=*,dist=uniform,mean=100ns",
		"netnoise:node=1,dist=const,mean=50ns,prob=0.5",
		"delay:node=4,at=10us,dur=2us",
		"delay:node=0,dur=1us",
		"hostnoise:node=*,dist=exp,mean=500ns;netnoise:node=*,dist=heavytail,mean=20ns;delay:node=7,at=1ms,dur=40us",
	}
	for _, spec := range specs {
		c, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if !c.NoiseEnabled() || c.FaultsEnabled() {
			t.Errorf("Parse(%q): NoiseEnabled=%v FaultsEnabled=%v, want true/false",
				spec, c.NoiseEnabled(), c.FaultsEnabled())
		}
		c2, err := Parse(c.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", c.String(), err)
			continue
		}
		if !reflect.DeepEqual(c, c2) {
			t.Errorf("round trip changed config:\n  spec %q\n  got  %q", spec, c.String())
		}
	}
}

func TestParseNoiseErrors(t *testing.T) {
	bad := map[string]string{
		"hostnoise:mean=1us":                     "needs dist",
		"netnoise:dist=exp":                      "needs mean",
		"hostnoise:dist=gaussian,mean=1us":       "bad dist",
		"hostnoise:dist=exp,mean=0ps":            "needs mean",
		"netnoise:dist=exp,mean=1us,prob=0":      "bad prob",
		"netnoise:dist=exp,mean=1us,prob=nan":    "bad prob",
		"hostnoise:dist=exp,mean=1us,shape=9":    "unknown noise key",
		"delay:at=1us,dur=1us":                   "needs node",
		"delay:node=2,at=1us":                    "needs dur",
		"delay:node=2,dur=1us,every=1us":         "unknown delay key",
		"hostnoise:dist=exp,mean=999999999999ms": "bad duration",
	}
	for spec, wantSub := range bad {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", spec, wantSub)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", spec, err, wantSub)
		}
	}
}

// TestConfigClasses pins the clause taxonomy the spec-validation logic
// relies on: jitter/outage/stall are faults, hostnoise/netnoise/delay
// are noise.
func TestConfigClasses(t *testing.T) {
	cases := []struct {
		spec          string
		faults, noise bool
	}{
		{"jitter:max=1us,prob=0.5", true, false},
		{"outage:node=*,dur=1us", true, false},
		{"stall:node=1,dur=1us", true, false},
		{"hostnoise:dist=exp,mean=1us", false, true},
		{"netnoise:dist=const,mean=1ns", false, true},
		{"delay:node=0,dur=1us", false, true},
	}
	for _, tc := range cases {
		c, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if c.FaultsEnabled() != tc.faults || c.NoiseEnabled() != tc.noise {
			t.Errorf("%q: FaultsEnabled=%v NoiseEnabled=%v, want %v/%v",
				tc.spec, c.FaultsEnabled(), c.NoiseEnabled(), tc.faults, tc.noise)
		}
		if !c.Enabled() {
			t.Errorf("%q: Enabled() = false", tc.spec)
		}
	}
}

// TestComputeDilationDeterminism: one seed, one stream — and the streams
// are per node, so interleaving other nodes' draws must not perturb a
// node's own sequence.
func TestComputeDilationDeterminism(t *testing.T) {
	cfg, err := Parse("hostnoise:node=*,dist=exp,mean=1us")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64, interleave bool) []sim.Time {
		in := NewInjector(cfg, seed)
		out := make([]sim.Time, 100)
		for i := range out {
			if interleave {
				in.ComputeDilation(1, sim.Time(i)) // another node's stream
			}
			out[i] = in.ComputeDilation(0, sim.Time(i))
		}
		return out
	}
	plain := draw(7, false)
	if !reflect.DeepEqual(plain, draw(7, false)) {
		t.Error("same seed produced different host-noise streams")
	}
	if !reflect.DeepEqual(plain, draw(7, true)) {
		t.Error("node 1's draws perturbed node 0's stream; per-node streams are not independent")
	}
	if reflect.DeepEqual(plain, draw(8, false)) {
		t.Error("different seeds produced identical host-noise streams")
	}
}

func TestPacketDelayDeterminism(t *testing.T) {
	cfg, err := Parse("netnoise:node=*,dist=heavytail,mean=100ns")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) []sim.Time {
		in := NewInjector(cfg, seed)
		out := make([]sim.Time, 200)
		for i := range out {
			out[i] = in.PacketDelay(i%16, (i+1)%16)
		}
		return out
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Error("same seed produced different net-noise streams")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Error("different seeds produced identical net-noise streams")
	}
}

// TestSampleDistMeans checks every distribution empirically: mean close
// to the configured mean, and support respected (uniform bounded by
// 2*mean, nothing negative). Seeds are fixed, so these are exact
// regression checks, not flaky statistical ones.
func TestSampleDistMeans(t *testing.T) {
	const mean = sim.Time(1000)
	const n = 50000
	for _, tc := range []struct {
		kind    DistKind
		tolPct  float64
		maxDraw sim.Time
	}{
		{DistConst, 0, mean},
		{DistUniform, 2, 2 * mean},
		{DistExp, 2, 0}, // unbounded
		{DistHeavyTail, 25, heavyTailCap * mean},
	} {
		rng := splitmix64Init(42)
		var sum int64
		for i := 0; i < n; i++ {
			d := sampleDist(&rng, tc.kind, mean)
			if d < 0 {
				t.Fatalf("%v: negative sample %v", tc.kind, d)
			}
			if tc.maxDraw > 0 && d > tc.maxDraw {
				t.Fatalf("%v: sample %v above support bound %v", tc.kind, d, tc.maxDraw)
			}
			sum += int64(d)
		}
		got := float64(sum) / n
		if dev := 100 * (got - float64(mean)) / float64(mean); dev < -tc.tolPct || dev > tc.tolPct {
			t.Errorf("%v: empirical mean %.1f deviates %.1f%% from %d (tolerance %.0f%%)",
				tc.kind, got, dev, mean, tc.tolPct)
		}
	}
}

// TestDelayFiresOnce: a one-shot injected delay latches after its first
// firing on the matching node and never fires again.
func TestDelayFiresOnce(t *testing.T) {
	cfg, err := Parse("delay:node=2,at=1us,dur=5us")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(cfg, 1)
	if got := in.ComputeDilation(2, 500*sim.Nanosecond); got != 0 {
		t.Errorf("delay fired before its time: %v", got)
	}
	if got := in.ComputeDilation(0, 2*sim.Microsecond); got != 0 {
		t.Errorf("delay fired on the wrong node: %v", got)
	}
	if got := in.ComputeDilation(2, 2*sim.Microsecond); got != 5*sim.Microsecond {
		t.Errorf("delay = %v, want 5us", got)
	}
	if got := in.ComputeDilation(2, 3*sim.Microsecond); got != 0 {
		t.Errorf("one-shot delay fired twice: %v", got)
	}
	st := in.Stats()
	if st.DelaysFired != 1 || st.DelayPs != int64(5*sim.Microsecond) {
		t.Errorf("Stats = fired %d / %d ps, want 1 / %d", st.DelaysFired, st.DelayPs, 5*sim.Microsecond)
	}
}

// TestNoiseProbGate: prob thins host noise to roughly its configured
// rate, and the stats counters account every injected picosecond.
func TestNoiseProbGate(t *testing.T) {
	cfg, err := Parse("hostnoise:node=*,dist=const,mean=1us,prob=0.1")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(cfg, 1)
	fired := 0
	for i := 0; i < 1000; i++ {
		if in.ComputeDilation(0, sim.Time(i)) > 0 {
			fired++
		}
	}
	if fired == 0 || fired > 300 {
		t.Errorf("prob=0.1 const noise fired %d/1000 times", fired)
	}
	st := in.Stats()
	if st.HostNoiseSamples != int64(fired) {
		t.Errorf("Stats.HostNoiseSamples = %d, want %d", st.HostNoiseSamples, fired)
	}
	if st.HostNoisePs != int64(fired)*int64(sim.Microsecond) {
		t.Errorf("Stats.HostNoisePs = %d, want %d", st.HostNoisePs, int64(fired)*int64(sim.Microsecond))
	}
	if st.Samples() != int64(fired) || st.InjectedPs() != st.HostNoisePs {
		t.Errorf("aggregate Samples/InjectedPs = %d/%d, want %d/%d",
			st.Samples(), st.InjectedPs(), fired, st.HostNoisePs)
	}
}

// TestNoiseNodeFilter: a node-scoped netnoise clause touches only
// packets with that node as an endpoint.
func TestNoiseNodeFilter(t *testing.T) {
	cfg, err := Parse("netnoise:node=3,dist=const,mean=10ns")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(cfg, 1)
	if got := in.PacketDelay(0, 1); got != 0 {
		t.Errorf("unrelated packet delayed %v", got)
	}
	if got := in.PacketDelay(3, 1); got != 10*sim.Nanosecond {
		t.Errorf("src-matching packet delayed %v, want 10ns", got)
	}
	if got := in.PacketDelay(0, 3); got != 10*sim.Nanosecond {
		t.Errorf("dst-matching packet delayed %v, want 10ns", got)
	}
}

// TestScheduleIncludesDelays: one-shot delays appear in the
// human-readable schedule preview alongside windows.
func TestScheduleIncludesDelays(t *testing.T) {
	cfg, err := Parse("delay:node=4,at=2us,dur=1us;outage:node=1,start=5us,dur=1us")
	if err != nil {
		t.Fatal(err)
	}
	sched := cfg.Schedule(4)
	if len(sched) != 2 {
		t.Fatalf("Schedule(4) returned %d entries: %v", len(sched), sched)
	}
	if !strings.Contains(sched[0], "delay node=4") {
		t.Errorf("delay missing or out of order in schedule: %v", sched)
	}
}
