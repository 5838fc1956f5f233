// Threads are iter.Pull coroutines, which need Go 1.23. The module's go
// line stays at 1.22 because perfbench/, a module that requires this one,
// declares go 1.22 and the go command rejects a dependency that needs a
// newer Go than its main module; this constraint raises the language
// version of this file alone.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// ThreadState describes the lifecycle of a simulated thread.
type ThreadState int

const (
	// ThreadNew has been spawned but its start event has not fired yet.
	ThreadNew ThreadState = iota
	// ThreadRunning currently holds control (its body is executing).
	ThreadRunning
	// ThreadPaused has yielded and waits for a Wake.
	ThreadPaused
	// ThreadDone has returned from its body.
	ThreadDone
)

func (s ThreadState) String() string {
	switch s {
	case ThreadNew:
		return "new"
	case ThreadRunning:
		return "running"
	case ThreadPaused:
		return "paused"
	case ThreadDone:
		return "done"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// Thread is a cooperatively scheduled simulated thread. A thread's body
// runs as a runtime coroutine (iter.Pull), so control is handed off
// strictly: while the body executes, the engine (and every other thread)
// is suspended, so the body may freely read and mutate simulation state
// and schedule events. A body gives up control only through Pause (or by
// returning).
//
// A paused thread is resumed by exactly one pending Wake; issuing a second
// Wake for an already-woken thread is a model bug and panics.
type Thread struct {
	eng   *Engine
	name  string
	state ThreadState

	next  func() (struct{}, bool) // engine -> thread: run until the next Pause
	stop  func()                  // ends a paused or unstarted body (StopThreads)
	yield func(struct{}) bool     // thread -> engine: control returned
	wake  func()                  // th.dispatch, bound once so wakes do not allocate

	wakePending bool
	panicVal    interface{}

	// Wait-reason bookkeeping for watchdog dumps. Two plain stores per
	// pause keep the hot path allocation-free; formatting happens only
	// when a diagnostic is produced.
	waitReason   string
	waitArg      int64
	blockedSince Time

	// Pause-time accounting for the observability layer: runPs is time
	// spent in self-armed pauses (Sleep — the thread consuming charged
	// execution time), blockPs is time spent parked waiting for an
	// external wake (miss fills, message arrivals, lock releases).
	// Accumulated unconditionally; two integer adds per pause.
	runPs   Time
	blockPs Time
}

// Spawn creates a thread named name whose body starts at absolute time at.
// The body runs to completion unless it pauses; Spawn itself returns
// immediately (the thread first runs when the engine reaches time at).
func (e *Engine) Spawn(name string, at Time, body func(*Thread)) *Thread {
	th := &Thread{eng: e, name: name, state: ThreadNew}
	th.wake = th.dispatch
	th.next, th.stop = iter.Pull(func(yield func(struct{}) bool) {
		th.yield = yield
		defer func() {
			// Keep body panics away from iter.Pull's own re-panic: dispatch
			// re-raises them with the thread's name. A stopped thread's
			// unwinding (see StopThreads) is not a failure.
			if r := recover(); r != nil && r != (stopped{}) {
				th.panicVal = r
			}
			th.state = ThreadDone
		}()
		body(th)
	})
	th.wakePending = true
	e.threads = append(e.threads, th)
	e.At(at, th.wake)
	return th
}

// stopped is the panic value that unwinds a body out of Pause once
// StopThreads has stopped its thread; Spawn's recover swallows it.
type stopped struct{}

// StopThreads ends every unfinished thread so that nothing of the run
// stays behind once it has been given up (a stall or a body panic):
// a paused body unwinds out of Pause without running further
// simulation code, and a body that never started is discarded. It must
// be called from engine context, and the engine must not run again.
func (e *Engine) StopThreads() {
	for _, th := range e.threads {
		if th.state != ThreadDone {
			th.stop()
			th.state = ThreadDone
		}
	}
}

// SpawnNow is Spawn at the current simulated time.
func (e *Engine) SpawnNow(name string, body func(*Thread)) *Thread {
	return e.Spawn(name, e.now, body)
}

// dispatch resumes the thread's coroutine and returns once the body
// pauses or finishes. It runs in engine context (as an event callback).
func (th *Thread) dispatch() {
	if th.state == ThreadDone {
		panic(fmt.Sprintf("sim: wake of finished thread %q", th.name))
	}
	th.wakePending = false
	th.state = ThreadRunning
	th.next()
	if th.state == ThreadDone && th.panicVal != nil {
		// Re-raise body panics in engine context so tests see them.
		panic(fmt.Sprintf("sim: thread %q panicked: %v", th.name, th.panicVal))
	}
}

// Engine returns the engine this thread belongs to.
func (th *Thread) Engine() *Engine { return th.eng }

// Name returns the thread's name.
func (th *Thread) Name() string { return th.name }

// State returns the thread's lifecycle state.
func (th *Thread) State() ThreadState { return th.state }

// Now returns the current simulated time.
func (th *Thread) Now() Time { return th.eng.Now() }

// Pause yields control until a Wake fires. It must only be called from the
// thread's own body. The caller must arrange (before pausing or from
// another context afterwards) exactly one WakeAt/WakeAfter.
func (th *Thread) Pause() {
	if th.state != ThreadRunning {
		panic(fmt.Sprintf("sim: Pause on %s thread %q", th.state, th.name))
	}
	th.state = ThreadPaused
	th.blockedSince = th.eng.now
	armed := th.wakePending
	if !th.yield(struct{}{}) {
		panic(stopped{})
	}
	th.state = ThreadRunning
	d := th.eng.now - th.blockedSince
	if armed {
		th.runPs += d
	} else {
		th.blockPs += d
	}
	if obs := th.eng.spanObs; obs != nil {
		obs(th, th.blockedSince, th.eng.now, !armed, th.waitReason, th.waitArg)
	}
	th.waitReason, th.waitArg = "", 0
}

// TimeBreakdown reports where the thread's simulated time went across
// its pauses so far: run is time in self-armed sleeps (charged
// execution), block is time parked waiting for an external wake. The
// paper's finer compute/sync/communicate split lives in stats.Breakdown;
// this is the engine-level ground truth beneath it.
func (th *Thread) TimeBreakdown() (run, block Time) { return th.runPs, th.blockPs }

// SetWaitReason labels the cause of the thread's next Pause for watchdog
// diagnostics ("mem-miss", line number; "await-message", node; ...). The
// label is cleared when the thread resumes. arg is an optional detail
// rendered alongside the reason; pass 0 when meaningless.
func (th *Thread) SetWaitReason(reason string, arg int64) {
	th.waitReason, th.waitArg = reason, arg
}

// WaitReason returns the current wait label set by SetWaitReason.
func (th *Thread) WaitReason() (string, int64) { return th.waitReason, th.waitArg }

// formatWaitReason renders the wait label for a diagnostic dump.
func (th *Thread) formatWaitReason() string {
	if th.waitReason == "" {
		return ""
	}
	if th.waitArg == 0 {
		return th.waitReason
	}
	return fmt.Sprintf("%s %d", th.waitReason, th.waitArg)
}

// WakeAt schedules the thread to resume at absolute time t. It may be
// called from any context that currently holds control (the engine or
// another thread), including the thread's own body immediately before
// Pause. Exactly one wake may be pending at a time.
func (th *Thread) WakeAt(t Time) {
	if th.state == ThreadDone {
		panic(fmt.Sprintf("sim: WakeAt on finished thread %q", th.name))
	}
	if th.wakePending {
		panic(fmt.Sprintf("sim: duplicate wake for thread %q", th.name))
	}
	th.wakePending = true
	th.eng.At(t, th.wake)
}

// WakeAfter schedules the thread to resume d picoseconds from now.
func (th *Thread) WakeAfter(d Time) { th.WakeAt(th.eng.Now() + d) }

// WakePending reports whether a wake event is already scheduled.
func (th *Thread) WakePending() bool { return th.wakePending }

// Sleep pauses the thread for duration d of simulated time.
func (th *Thread) Sleep(d Time) {
	th.WakeAfter(d)
	th.Pause()
}
