package sim

import (
	"runtime"
	"strings"
	"testing"
)

func TestThreadRunsAtSpawnTime(t *testing.T) {
	e := NewEngine()
	var started Time = -1
	e.Spawn("t", 100, func(th *Thread) { started = th.Now() })
	e.Run()
	if started != 100 {
		t.Errorf("thread started at %d, want 100", started)
	}
}

func TestThreadSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("t", 0, func(th *Thread) {
		th.Sleep(250)
		wake = th.Now()
	})
	e.Run()
	if wake != 250 {
		t.Errorf("woke at %d, want 250", wake)
	}
}

func TestThreadsInterleaveDeterministically(t *testing.T) {
	// Two threads sleeping different amounts must interleave by time.
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Spawn("a", 0, func(th *Thread) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "a")
				th.Sleep(10)
			}
		})
		e.Spawn("b", 5, func(th *Thread) {
			for i := 0; i < 3; i++ {
				trace = append(trace, "b")
				th.Sleep(10)
			}
		})
		e.Run()
		return trace
	}
	first := run()
	want := "ababab"
	if got := strings.Join(first, ""); got != want {
		t.Errorf("interleaving = %q, want %q", got, want)
	}
	// Determinism: identical across runs.
	for i := 0; i < 5; i++ {
		again := run()
		if strings.Join(again, "") != strings.Join(first, "") {
			t.Fatalf("nondeterministic interleaving: %v vs %v", again, first)
		}
	}
}

func TestThreadPauseAndExternalWake(t *testing.T) {
	e := NewEngine()
	var resumed Time
	th := e.Spawn("sleeper", 0, func(th *Thread) {
		th.Pause()
		resumed = th.Now()
	})
	e.At(40, func() { th.WakeAt(70) })
	e.Run()
	if resumed != 70 {
		t.Errorf("resumed at %d, want 70", resumed)
	}
	if th.State() != ThreadDone {
		t.Errorf("state = %v, want done", th.State())
	}
}

func TestThreadWakeFromAnotherThread(t *testing.T) {
	e := NewEngine()
	var order []string
	var waiter *Thread
	waiter = e.Spawn("waiter", 0, func(th *Thread) {
		order = append(order, "wait")
		th.Pause()
		order = append(order, "woken")
	})
	e.Spawn("waker", 10, func(th *Thread) {
		order = append(order, "wake")
		waiter.WakeAfter(5)
	})
	e.Run()
	got := strings.Join(order, ",")
	if got != "wait,wake,woken" {
		t.Errorf("order = %q, want wait,wake,woken", got)
	}
}

func TestThreadDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	th := e.Spawn("t", 0, func(th *Thread) { th.Pause() })
	e.At(5, func() {
		th.WakeAt(10)
		defer func() {
			if recover() == nil {
				t.Error("duplicate wake did not panic")
			}
		}()
		th.WakeAt(20)
	})
	e.Run()
}

func TestThreadBodyPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", 0, func(th *Thread) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("thread panic did not propagate to engine")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Errorf("panic value %v does not mention cause", r)
		}
	}()
	e.Run()
}

func TestThreadBodyPanicAfterPausePropagates(t *testing.T) {
	// The body panics after a self-armed sleep and an external wake, so
	// the re-raise must cross resumed handoffs, not just the first one.
	e := NewEngine()
	late := e.Spawn("late", 0, func(th *Thread) {
		th.Sleep(10)
		th.Pause()
		panic("boom")
	})
	e.Spawn("waker", 5, func(th *Thread) {
		th.Sleep(20)
		late.WakeAfter(1)
	})
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T (%v), want the re-raised string", r, r)
		}
		if !strings.Contains(msg, `thread "late" panicked: boom`) {
			t.Errorf("panic %q does not name the thread and cause", msg)
		}
		if e.Now() != 26 {
			t.Errorf("panic surfaced at t=%d, want 26 (after two pauses)", e.Now())
		}
	}()
	e.Run()
}

func TestThreadHandoffAllocFree(t *testing.T) {
	e := NewEngine()
	var sleep, wakePause float64
	e.Spawn("t", 0, func(th *Thread) {
		sleep = testing.AllocsPerRun(100, func() { th.Sleep(1) })
		wakePause = testing.AllocsPerRun(100, func() {
			th.WakeAt(th.Now() + 1)
			th.Pause()
		})
	})
	e.Run()
	if sleep != 0 {
		t.Errorf("Sleep round trip: %v allocs, want 0", sleep)
	}
	if wakePause != 0 {
		t.Errorf("WakeAt+Pause round trip: %v allocs, want 0", wakePause)
	}
}

func TestStopThreadsEndsEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	resumed := false
	for i := 0; i < 8; i++ {
		e.Spawn("parked", 0, func(th *Thread) {
			th.Pause() // never woken
			resumed = true
		})
	}
	e.Spawn("unstarted", 100, func(th *Thread) { resumed = true })
	e.RunUntil(50)
	e.StopThreads()
	if resumed {
		t.Error("a stopped body ran past its Pause")
	}
	for _, th := range e.threads {
		if th.State() != ThreadDone {
			t.Errorf("thread %q state %v after StopThreads, want done", th.Name(), th.State())
		}
	}
	// The previous test's goroutine may still be exiting when base is
	// taken, so only a count above it is a leak.
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after StopThreads, want at most the baseline %d", got, base)
	}
}

func TestThreadWakePending(t *testing.T) {
	e := NewEngine()
	e.Spawn("t", 0, func(th *Thread) {
		if th.WakePending() {
			t.Error("wake pending while running")
		}
		th.WakeAfter(10)
		if !th.WakePending() {
			t.Error("wake not pending after WakeAfter")
		}
		th.Pause()
	})
	e.Run()
}

func TestManyThreadsBarrierStyle(t *testing.T) {
	// n threads pause; a controller wakes them all; all complete.
	e := NewEngine()
	const n = 64
	done := 0
	threads := make([]*Thread, n)
	for i := 0; i < n; i++ {
		threads[i] = e.Spawn("w", 0, func(th *Thread) {
			th.Pause()
			done++
		})
	}
	e.At(100, func() {
		for _, th := range threads {
			th.WakeAfter(1)
		}
	})
	e.Run()
	if done != n {
		t.Errorf("completed %d threads, want %d", done, n)
	}
}

func TestSpawnNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.At(33, func() {
		e.SpawnNow("t", func(th *Thread) { at = th.Now() })
	})
	e.Run()
	if at != 33 {
		t.Errorf("SpawnNow thread ran at %d, want 33", at)
	}
}

func TestThreadStateString(t *testing.T) {
	states := map[ThreadState]string{
		ThreadNew: "new", ThreadRunning: "running",
		ThreadPaused: "paused", ThreadDone: "done",
		ThreadState(42): "ThreadState(42)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
