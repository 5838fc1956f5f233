package machine

import (
	"reflect"
	"strings"
	"testing"
)

// noisyWorkload mixes compute phases with shared-memory traffic so both
// the host-noise hook (compute boundaries) and the net-noise hook
// (packet delivery) fire.
func noisyWorkload(m *Machine) func(*Proc) {
	a := m.Alloc(0, 64)
	return func(p *Proc) {
		p.Write(a+int64Addr(2*p.ID), float64(p.ID))
		p.Compute(500)
		p.Read(a + int64Addr(2*((p.ID+1)%32)))
		p.Compute(500)
	}
}

const testNoiseSpec = "hostnoise:node=*,dist=exp,mean=2us;netnoise:node=*,dist=exp,mean=100ns"

// TestNoiseRunReproducible: one spec and seed give a bit-identical
// result (runtime, per-node completion profile, and injection stats)
// across independent machines, and a different seed gives a different
// run.
func TestNoiseRunReproducible(t *testing.T) {
	run := func(seed uint64) Result {
		cfg := DefaultConfig()
		cfg.NoiseSpec = testNoiseSpec
		cfg.NoiseSeed = seed
		m := New(cfg)
		return m.Run(noisyWorkload(m))
	}
	a, b := run(7), run(7)
	if a.Cycles != b.Cycles || !reflect.DeepEqual(a.DoneCycles, b.DoneCycles) || a.Noise != b.Noise {
		t.Errorf("same seed, different runs: %d vs %d cycles, noise %+v vs %+v",
			a.Cycles, b.Cycles, a.Noise, b.Noise)
	}
	if c := run(8); c.Cycles == a.Cycles && reflect.DeepEqual(c.DoneCycles, a.DoneCycles) {
		t.Error("different noise seeds produced identical runs")
	}
	if a.Noise.HostNoiseSamples == 0 || a.Noise.NetNoiseSamples == 0 {
		t.Errorf("noise hooks never fired: %+v", a.Noise)
	}
	if len(a.DoneCycles) != 32 {
		t.Fatalf("DoneCycles has %d entries, want 32", len(a.DoneCycles))
	}
	for i, d := range a.DoneCycles {
		if d <= 0 || d > a.Cycles {
			t.Errorf("DoneCycles[%d] = %d outside (0, %d]", i, d, a.Cycles)
		}
	}
}

// TestNoiseDilatesRuntime: host noise strictly lengthens the run, and a
// quiet config reports zero injection.
func TestNoiseDilatesRuntime(t *testing.T) {
	run := func(spec string) Result {
		cfg := DefaultConfig()
		cfg.NoiseSpec = spec
		cfg.NoiseSeed = 1
		m := New(cfg)
		return m.Run(noisyWorkload(m))
	}
	quiet := run("")
	if quiet.Noise.Samples() != 0 || quiet.Noise.InjectedPs() != 0 {
		t.Errorf("quiet run reports injection: %+v", quiet.Noise)
	}
	noisy := run("hostnoise:node=*,dist=const,mean=5us")
	if noisy.Cycles <= quiet.Cycles {
		t.Errorf("const 5us host noise did not lengthen the run: %d vs %d cycles",
			noisy.Cycles, quiet.Cycles)
	}
	if noisy.Noise.HostNoiseSamples == 0 || noisy.Noise.HostNoisePs == 0 {
		t.Errorf("noise fired but stats empty: %+v", noisy.Noise)
	}
}

// TestNewRejectsMisplacedClauses: the two spec fields are disjoint
// sublanguages — New refuses noise clauses in FaultSpec and fault
// clauses in NoiseSpec, naming the right home for each.
func TestNewRejectsMisplacedClauses(t *testing.T) {
	mustPanic := func(name string, cfg Config, wantSub string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: New did not panic", name)
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, wantSub) {
				t.Errorf("%s: panic %v, want substring %q", name, r, wantSub)
			}
		}()
		New(cfg)
	}
	cfg := DefaultConfig()
	cfg.FaultSpec = "hostnoise:node=*,dist=exp,mean=1us"
	mustPanic("noise in FaultSpec", cfg, "put hostnoise/netnoise/delay in NoiseSpec")
	cfg = DefaultConfig()
	cfg.NoiseSpec = "jitter:max=100ns,prob=0.5"
	mustPanic("fault in NoiseSpec", cfg, "put jitter/outage/stall in FaultSpec")
}

// TestDelayShiftsOneNode: a one-shot injected delay lands on exactly the
// named node — in a communication-free workload its completion shifts by
// exactly the delay, and every other node is untouched.
func TestDelayShiftsOneNode(t *testing.T) {
	run := func(spec string) Result {
		cfg := DefaultConfig()
		cfg.NoiseSpec = spec
		m := New(cfg)
		return m.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Compute(100)
			}
		})
	}
	quiet := run("")
	delayed := run("delay:node=5,at=0ps,dur=100us")
	want := quiet.DoneCycles[5] + 2000 // 100us at 20 MHz
	if delayed.DoneCycles[5] != want {
		t.Errorf("delayed node done at %d cycles, want %d", delayed.DoneCycles[5], want)
	}
	for i := range quiet.DoneCycles {
		if i == 5 {
			continue
		}
		if delayed.DoneCycles[i] != quiet.DoneCycles[i] {
			t.Errorf("node %d shifted by a delay aimed at node 5: %d vs %d",
				i, delayed.DoneCycles[i], quiet.DoneCycles[i])
		}
	}
	if delayed.Noise.DelaysFired != 1 {
		t.Errorf("DelaysFired = %d, want 1", delayed.Noise.DelaysFired)
	}
}
