package sim

import (
	"fmt"
	"sort"
	"strings"
)

// StallKind classifies a liveness failure.
type StallKind string

const (
	// StallDeadlock: the event queue drained while threads were still
	// paused with no wake scheduled — nothing can ever run them again.
	StallDeadlock StallKind = "deadlock"
	// StallEventLimit: the configured event limit was exceeded (a runaway
	// simulation making no application progress).
	StallEventLimit StallKind = "event-limit"
	// StallDeadline: simulated time would pass the configured deadline
	// with threads still blocked.
	StallDeadline StallKind = "deadline"
)

// BlockedThread describes one paused thread in a diagnostic dump.
type BlockedThread struct {
	Name   string
	Reason string // from Thread.SetWaitReason; "" if unset
	Since  Time   // when the thread last paused
}

// StallError is the watchdog's structured diagnostic: instead of a bare
// panic string, a failed run carries the engine state needed to debug it —
// blocked thread names and wait reasons, queue depth, upcoming event
// times, and free-form notes appended by higher layers (directory state,
// link occupancy, NI queues). It is delivered by panicking with the
// *StallError as the value; the sweep runner recovers it into a RunError.
type StallError struct {
	Kind       StallKind
	Now        Time
	Dispatched uint64
	Pending    int
	NextEvents []Time // times of the soonest few queued events
	Blocked    []BlockedThread
	Notes      []string // subsystem diagnostics appended by higher layers
}

// Error formats the full multi-line diagnostic dump.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at t=%v after %d events: %d blocked thread(s), %d pending event(s)",
		e.Kind, e.Now, e.Dispatched, len(e.Blocked), e.Pending)
	for _, th := range e.Blocked {
		fmt.Fprintf(&b, "\n  blocked: %s", th.Name)
		if th.Reason != "" {
			fmt.Fprintf(&b, " (%s)", th.Reason)
		}
		fmt.Fprintf(&b, " since t=%v", th.Since)
	}
	if len(e.NextEvents) > 0 {
		fmt.Fprintf(&b, "\n  next events at:")
		for _, t := range e.NextEvents {
			fmt.Fprintf(&b, " %v", t)
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

// maxDiagEvents bounds the upcoming-event times listed in a dump.
const maxDiagEvents = 4

// Diagnose captures the engine's current liveness state as a StallError
// of the given kind. It is cheap relative to any failure path and safe to
// call at any time.
func (e *Engine) Diagnose(kind StallKind) *StallError {
	d := &StallError{
		Kind:       kind,
		Now:        e.now,
		Dispatched: e.dispatched,
		Pending:    len(e.events),
	}
	times := make([]Time, 0, len(e.events))
	for i := range e.events {
		times = append(times, e.events[i].at)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) > maxDiagEvents {
		times = times[:maxDiagEvents]
	}
	d.NextEvents = times
	for _, th := range e.threads {
		if th.state != ThreadPaused {
			continue
		}
		if th.wakePending && kind == StallDeadlock {
			// A scheduled wake means the thread will run again; it is not
			// part of a deadlock. For deadline/event-limit stalls it still
			// belongs in the dump — it is where the time went.
			continue
		}
		reason := th.formatWaitReason()
		if th.wakePending {
			if reason != "" {
				reason += "; "
			}
			reason += "wake scheduled"
		}
		d.Blocked = append(d.Blocked, BlockedThread{
			Name:   th.name,
			Reason: reason,
			Since:  th.blockedSince,
		})
	}
	return d
}

// CheckLiveness returns a deadlock diagnostic if the event queue is empty
// while paused threads remain with no wake scheduled (they can never run
// again), or nil if the engine is live. Call it after Run returns.
func (e *Engine) CheckLiveness() *StallError {
	if len(e.events) > 0 {
		return nil
	}
	for _, th := range e.threads {
		if th.state == ThreadPaused && !th.wakePending {
			return e.Diagnose(StallDeadlock)
		}
	}
	return nil
}

// BlockedThreads returns the threads currently paused with no wake
// scheduled.
func (e *Engine) BlockedThreads() []*Thread {
	var out []*Thread
	for _, th := range e.threads {
		if th.state == ThreadPaused && !th.wakePending {
			out = append(out, th)
		}
	}
	return out
}

// SetDeadline arms the no-forward-progress watchdog: if the next event
// would fire after t while any spawned thread has not finished, Run
// panics with a *StallError diagnostic instead of silently simulating
// past the deadline. Zero (the default) disables the deadline.
func (e *Engine) SetDeadline(t Time) { e.deadline = t }

// pastDeadline reports whether dispatching the next event would violate
// the armed deadline.
func (e *Engine) pastDeadline() bool {
	if e.deadline <= 0 || len(e.events) == 0 || e.events[0].at <= e.deadline {
		return false
	}
	for _, th := range e.threads {
		if th.state != ThreadDone {
			return true
		}
	}
	return false
}
