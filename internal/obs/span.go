package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Span is one thread-state interval: the thread named Thread was paused
// from Start to End. Blocked distinguishes why it was paused: a false
// Blocked means the thread itself had already armed its wake before
// pausing (a Sleep — the thread is consuming charged execution time),
// while true means it was parked waiting for an external wake (a cache
// miss fill, a message arrival, a lock release), with Reason/Arg carrying
// the wait label set via sim.Thread.SetWaitReason.
type Span struct {
	Thread  string
	Start   sim.Time
	End     sim.Time
	Blocked bool
	Reason  string
	Arg     int64
}

// SpanBuffer is a fixed-capacity ring of thread-state spans, retaining
// the last cap spans (mirroring trace.Buffer). Not safe for concurrent
// use — the simulator is single-threaded by construction.
type SpanBuffer struct {
	ring  []Span
	next  int
	total int64
}

// NewSpanBuffer creates a buffer holding the last cap spans.
func NewSpanBuffer(cap int) *SpanBuffer {
	if cap <= 0 {
		panic(fmt.Sprintf("obs: non-positive span capacity %d", cap))
	}
	return &SpanBuffer{ring: make([]Span, 0, cap)}
}

// Record appends one span, evicting the oldest when full. It is shaped
// to be installed as a sim.Engine span observer via a thin adapter in
// the machine layer.
func (b *SpanBuffer) Record(s Span) {
	b.total++
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, s)
		return
	}
	b.ring[b.next] = s
	b.next = (b.next + 1) % cap(b.ring)
}

// Total reports how many spans were recorded over the run (including
// evicted ones).
func (b *SpanBuffer) Total() int64 { return b.total }

// Spans returns the retained spans in recording order.
func (b *SpanBuffer) Spans() []Span {
	if len(b.ring) < cap(b.ring) {
		out := make([]Span, len(b.ring))
		copy(out, b.ring)
		return out
	}
	out := make([]Span, 0, cap(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}
