package obs

import (
	"repro/internal/sim"
	"repro/internal/trace"
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
// the last cap spans. Its Add is shaped to be installed as a sim.Engine
// span observer via a thin adapter in the machine layer.
type SpanBuffer struct{ trace.Ring[Span] }

// NewSpanBuffer creates a buffer holding the last cap spans.
func NewSpanBuffer(cap int) *SpanBuffer { return &SpanBuffer{trace.NewRing[Span](cap)} }

// Spans returns the retained spans in recording order.
func (b *SpanBuffer) Spans() []Span { return b.Items() }
