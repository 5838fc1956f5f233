package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Kind classifies trace events.
type Kind int

// Trace event kinds.
const (
	KMissStart Kind = iota // node began a miss transaction on line A (B=1 for write)
	KMissEnd               // node completed a miss transaction on line A
	KInval                 // node's cached copy of line A was invalidated
	KMsgSend               // node sent an active message to node A (B=bytes)
	KMsgRecv               // node handled an active message from node A
	KBulk                  // node sent a bulk transfer to node A (B=payload bytes)
	KBarrier               // node arrived at a barrier
	KLock                  // node acquired (B=1) or released (B=0) the lock at A
)

func (k Kind) String() string {
	switch k {
	case KMissStart:
		return "miss-start"
	case KMissEnd:
		return "miss-end"
	case KInval:
		return "inval"
	case KMsgSend:
		return "msg-send"
	case KMsgRecv:
		return "msg-recv"
	case KBulk:
		return "bulk"
	case KBarrier:
		return "barrier"
	case KLock:
		return "lock"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Node int
	Kind Kind
	A, B int64 // kind-specific operands (line, peer, bytes, ...)
}

// Ring is a fixed-capacity ring retaining the last cap values added,
// while counting every value ever added. The zero value is unusable;
// create one with NewRing. Not safe for concurrent use — the simulator
// is single-threaded by construction.
type Ring[T any] struct {
	ring  []T
	next  int
	total int64
}

// NewRing creates a ring holding the last cap values.
func NewRing[T any](cap int) Ring[T] {
	if cap <= 0 {
		panic(fmt.Sprintf("trace: non-positive capacity %d", cap))
	}
	return Ring[T]{ring: make([]T, 0, cap)}
}

// Add records a value, evicting the oldest when full.
func (b *Ring[T]) Add(v T) {
	b.total++
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, v)
		return
	}
	b.ring[b.next] = v
	b.next = (b.next + 1) % cap(b.ring)
}

// Total reports how many values were added over the run (including
// evicted ones).
func (b *Ring[T]) Total() int64 { return b.total }

// Items returns the retained values in recording order.
func (b *Ring[T]) Items() []T {
	out := make([]T, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	return append(out, b.ring[:b.next]...)
}

// Buffer is the per-machine ring of protocol and message events.
type Buffer struct{ Ring[Event] }

// New creates a buffer holding the last cap events.
func New(cap int) *Buffer { return &Buffer{NewRing[Event](cap)} }

// Events returns the retained events in recording order.
func (b *Buffer) Events() []Event { return b.Items() }

// Filter returns retained events matching kind (any node if node < 0).
func (b *Buffer) Filter(kind Kind, node int) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == kind && (node < 0 || e.Node == node) {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the retained events as text, timestamps in cycles.
func (b *Buffer) Dump(w io.Writer, clk sim.Clock) {
	for _, e := range b.Events() {
		fmt.Fprintf(w, "%10d  node %2d  %-10s  a=%d b=%d\n",
			clk.ToCycles(e.At), e.Node, e.Kind, e.A, e.B)
	}
	if dropped := b.total - int64(len(b.ring)); dropped > 0 {
		fmt.Fprintf(w, "(%d earlier events dropped)\n", dropped)
	}
}
