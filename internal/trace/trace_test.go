package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestBufferRetainsInOrder(t *testing.T) {
	b := New(4)
	for i := 0; i < 3; i++ {
		b.Add(Event{At: sim.Time(i), Node: i, Kind: KMsgSend})
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, e := range evs {
		if e.Node != i {
			t.Errorf("event %d from node %d", i, e.Node)
		}
	}
}

func TestBufferRingWraps(t *testing.T) {
	b := New(4)
	for i := 0; i < 10; i++ {
		b.Add(Event{At: sim.Time(i), Node: i, Kind: KInval})
	}
	if b.Total() != 10 {
		t.Errorf("total = %d, want 10", b.Total())
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Node != 6+i {
			t.Errorf("retained wrong window: %v", evs)
			break
		}
	}
}

func TestFilter(t *testing.T) {
	b := New(16)
	b.Add(Event{Node: 1, Kind: KMsgSend})
	b.Add(Event{Node: 2, Kind: KInval})
	b.Add(Event{Node: 1, Kind: KInval})
	if got := len(b.Filter(KInval, -1)); got != 2 {
		t.Errorf("Filter(KInval, any) = %d, want 2", got)
	}
	if got := len(b.Filter(KInval, 1)); got != 1 {
		t.Errorf("Filter(KInval, 1) = %d, want 1", got)
	}
}

func TestDump(t *testing.T) {
	b := New(2)
	for i := 0; i < 3; i++ {
		b.Add(Event{At: sim.Time(i) * 50000, Node: i, Kind: KBarrier})
	}
	var buf bytes.Buffer
	b.Dump(&buf, sim.NewClock(20))
	out := buf.String()
	if !strings.Contains(out, "barrier") {
		t.Errorf("dump missing kind:\n%s", out)
	}
	if !strings.Contains(out, "1 earlier events dropped") {
		t.Errorf("dump missing drop note:\n%s", out)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KMissStart; k <= KLock; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	// Every in-range kind must have a distinct name (a duplicate would
	// make dumps ambiguous), and out-of-range values must degrade to the
	// numeric form rather than stealing a real kind's name.
	seen := map[string]Kind{}
	for k := KMissStart; k <= KLock; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	for _, k := range []Kind{KLock + 1, Kind(99), Kind(-1)} {
		want := "Kind(" + itoa(int(k)) + ")"
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
		if _, taken := seen[k.String()]; taken {
			t.Errorf("out-of-range kind %d collides with a named kind", int(k))
		}
	}
}

// itoa avoids importing strconv into the test for one conversion.
func itoa(n int) string { return fmt.Sprintf("%d", n) }

func TestDumpPartialRingReportsNoDrops(t *testing.T) {
	// A partially filled ring (len < cap) has dropped nothing; the drop
	// accounting must measure against capacity, not the filling length.
	b := New(8)
	for i := 0; i < 3; i++ {
		b.Add(Event{At: sim.Time(i) * 50000, Node: i, Kind: KBarrier})
	}
	var buf bytes.Buffer
	b.Dump(&buf, sim.NewClock(20))
	if strings.Contains(buf.String(), "dropped") {
		t.Errorf("partial ring reported drops:\n%s", buf.String())
	}
}

func TestZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}
