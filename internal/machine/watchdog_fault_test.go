package machine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// recoverStall runs body on a fresh machine and returns the *sim.StallError
// it panics with (failing the test if it completes or panics otherwise).
func recoverStall(t *testing.T, cfg Config, body func(p *Proc)) (se *sim.StallError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run completed; want a watchdog panic")
		}
		var ok bool
		if se, ok = r.(*sim.StallError); !ok {
			t.Fatalf("panic value %T (%v), want *sim.StallError", r, r)
		}
	}()
	New(cfg).Run(body)
	return nil
}

func TestDeadlockDetectedWithDump(t *testing.T) {
	// Procs 0 and 1 wait for messages that never arrive; the rest finish.
	// The watchdog must name the blocked threads instead of hanging or
	// dying with a bare panic string.
	se := recoverStall(t, DefaultConfig(), func(p *Proc) {
		if p.ID < 2 {
			p.WaitAndHandle()
		}
	})
	if se.Kind != sim.StallDeadlock {
		t.Errorf("Kind = %v, want %v", se.Kind, sim.StallDeadlock)
	}
	if len(se.Blocked) != 2 {
		t.Fatalf("Blocked = %+v, want exactly procs 0 and 1", se.Blocked)
	}
	for i, want := range []string{"proc0", "proc1"} {
		if se.Blocked[i].Name != want {
			t.Errorf("Blocked[%d].Name = %q, want %q", i, se.Blocked[i].Name, want)
		}
		if se.Blocked[i].Reason != "await-message" {
			t.Errorf("Blocked[%d].Reason = %q, want await-message", i, se.Blocked[i].Reason)
		}
	}
	msg := se.Error()
	if !strings.Contains(msg, "only 30/32 processors finished") {
		t.Errorf("dump lacks completion note:\n%s", msg)
	}
}

func TestEventLimitAbortCarriesDiagnostic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EventLimit = 5000
	se := recoverStall(t, cfg, func(p *Proc) {
		for {
			p.SpinCycles(10)
		}
	})
	if se.Kind != sim.StallEventLimit {
		t.Errorf("Kind = %v, want %v", se.Kind, sim.StallEventLimit)
	}
	if se.Dispatched != cfg.EventLimit+1 {
		t.Errorf("Dispatched = %d, want %d", se.Dispatched, cfg.EventLimit+1)
	}
	if len(se.Blocked) == 0 {
		t.Error("event-limit dump names no threads")
	}
}

func TestDeadlineAbortCarriesDiagnostic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadlineCycles = 1000
	se := recoverStall(t, cfg, func(p *Proc) {
		p.Compute(1_000_000)
	})
	if se.Kind != sim.StallDeadline {
		t.Errorf("Kind = %v, want %v", se.Kind, sim.StallDeadline)
	}
	if se.Now > sim.NewClock(cfg.ClockMHz).Cycles(cfg.DeadlineCycles) {
		t.Errorf("diagnosed at %v, past the armed deadline", se.Now)
	}
}

func TestStalledRunsLeaveNoGoroutines(t *testing.T) {
	// A sweep recovers stalled runs and keeps going, so a stall must not
	// leave its unfinished processor threads (and the machine they
	// reference) behind: ten deadlocks of all 32 processors would
	// otherwise strand 320 goroutines.
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		recoverStall(t, DefaultConfig(), func(p *Proc) { p.WaitAndHandle() })
	}
	limit := DefaultConfig()
	limit.EventLimit = 5000
	recoverStall(t, limit, func(p *Proc) {
		for {
			p.SpinCycles(10)
		}
	})
	deadline := DefaultConfig()
	deadline.DeadlineCycles = 1000
	recoverStall(t, deadline, func(p *Proc) { p.Compute(1_000_000) })
	// The previous test's goroutine may still be exiting when base is
	// taken, so only a count above it is a leak.
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after recovered stalls, want at most the baseline %d", got, base)
	}
}

func TestBadFaultSpecPanicsAtBuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultSpec = "jitter:max=banana"
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted a bad fault spec")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "bad fault spec") {
			t.Errorf("panic %v lacks context", r)
		}
	}()
	New(cfg)
}

// faultWorkload drives shared-memory and message traffic, returning the
// run result and the final counter value.
func faultWorkload(cfg Config) (Result, float64) {
	m := New(cfg)
	ctr := m.Alloc(0, 2)
	res := m.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.RMW(ctr, func(v float64) float64 { return v + 1 })
			p.Compute(50)
		}
	})
	return res, m.Store.Peek(ctr)
}

func TestFaultInjectionDeterministicAndHarmless(t *testing.T) {
	cfg := DefaultConfig()
	base, _ := faultWorkload(cfg)

	cfg.FaultSpec = "jitter:max=500ns,prob=0.5;outage:node=*,start=5us,dur=1us,every=20us"
	cfg.FaultSeed = 3
	r1, c1 := faultWorkload(cfg)
	r2, c2 := faultWorkload(cfg)
	if !reflect.DeepEqual(r1, r2) || c1 != c2 {
		t.Error("same fault spec and seed produced different results")
	}
	// Faults delay, never drop: semantics must survive.
	if c1 != 32*5 {
		t.Errorf("counter = %v under faults, want %d", c1, 32*5)
	}
	if r1.Time < base.Time {
		t.Errorf("faulted run finished at %v, before fault-free %v", r1.Time, base.Time)
	}

	cfg.FaultSeed = 4
	r3, c3 := faultWorkload(cfg)
	if c3 != 32*5 {
		t.Errorf("counter = %v under reseeded faults, want %d", c3, 32*5)
	}
	if r3.Time == r1.Time && reflect.DeepEqual(r1, r3) {
		t.Error("different seeds produced identical runs; schedule ignores the seed")
	}
}

func TestFaultsDisabledLeavesResultsIdentical(t *testing.T) {
	// The injector hooks must be fully inert when no spec is set: results
	// match a build of the same config byte for byte.
	r1, _ := faultWorkload(DefaultConfig())
	r2, _ := faultWorkload(DefaultConfig())
	if !reflect.DeepEqual(r1, r2) {
		t.Error("fault-free runs of one config differ")
	}
	m := New(DefaultConfig())
	if m.Faults != nil {
		t.Error("injector attached without a fault spec")
	}
}

func TestFaultStatsExposed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultSpec = "jitter:max=200ns,prob=1"
	cfg.FaultSeed = 1
	m := New(cfg)
	if m.Faults == nil {
		t.Fatal("no injector for an enabled spec")
	}
	ctr := m.Alloc(0, 2)
	m.Run(func(p *Proc) {
		p.RMW(ctr, func(v float64) float64 { return v + 1 })
	})
	if m.Faults.Stats().Jittered == 0 {
		t.Error("prob=1 jitter never fired during a communicating run")
	}
	if err := m.Mem.CheckInvariants(true); err != nil {
		t.Errorf("invariants violated after faulted run: %v", err)
	}
}
