package mem

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The run() helper already asserts strict invariants after every protocol
// scenario in this package; the tests here check the checker itself, by
// corrupting state directly and verifying each violation is reported.

func TestInvariantCheckerCleanAfterTraffic(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(5, 2)
	var bd stats.Breakdown
	r.run(func(th *sim.Thread) {
		r.sys.StoreWord(th, 0, a, 1, &bd, stats.BucketMemWait)
		r.sys.Load(th, 9, a, &bd, stats.BucketMemWait)
		// Weak invariants must also hold mid-run, right after a miss.
		if err := r.sys.CheckInvariants(false); err != nil {
			t.Errorf("weak check mid-run: %v", err)
		}
	})
	if err := r.sys.CheckInvariants(false); err != nil {
		t.Errorf("weak check after clean run: %v", err)
	}
}

func TestInvariantCheckerDetectsDoubleModified(t *testing.T) {
	r := newRig()
	line := Addr(7)
	// Corrupt directly: two caches claim Modified copies of one line.
	r.sys.nodes[1].cache.fill(line, lineModified, 0)
	r.sys.nodes[2].cache.fill(line, lineModified, 0)
	err := r.sys.CheckInvariants(false)
	if err == nil {
		t.Fatal("double-Modified corruption not detected by weak check")
	}
	if !strings.Contains(err.Error(), "2 Modified holders") {
		t.Errorf("violation text missing holder count: %v", err)
	}
}

func TestInvariantCheckerDetectsWrongOwner(t *testing.T) {
	r := newRig()
	line := Addr(3)
	home := r.sys.lineHome(line)
	e := r.sys.nodes[home].dir.entry(line)
	e.state = dirModified
	e.owner = 6
	e.sharers.add(6)
	// Node 4 holds Modified but the directory says node 6 owns it.
	r.sys.nodes[4].cache.fill(line, lineModified, 0)
	err := r.sys.CheckInvariants(false)
	if err == nil {
		t.Fatal("ownership mismatch not detected by weak check")
	}
	if !strings.Contains(err.Error(), "owner=6") {
		t.Errorf("violation text missing directory owner: %v", err)
	}
}

func TestInvariantCheckerStrictDetectsStaleSharerBit(t *testing.T) {
	r := newRig()
	line := Addr(9)
	home := r.sys.lineHome(line)
	e := r.sys.nodes[home].dir.entry(line)
	e.state = dirShared
	// Node 4 holds Shared but its sharer bit is missing: legal at no
	// point (the bitset must be a superset of holders).
	r.sys.nodes[4].cache.fill(line, lineShared, 0)
	if err := r.sys.CheckInvariants(false); err != nil {
		t.Fatalf("weak check must ignore sharer bitsets: %v", err)
	}
	err := r.sys.CheckInvariants(true)
	if err == nil {
		t.Fatal("missing sharer bit not detected by strict check")
	}
	if !strings.Contains(err.Error(), "sharer bitset") {
		t.Errorf("violation text missing bitset mention: %v", err)
	}
}

func TestInvariantCheckerStrictDetectsBusyAndPending(t *testing.T) {
	r := newRig()
	line := Addr(2)
	home := r.sys.lineHome(line)
	r.sys.nodes[home].dir.entry(line).busy = true
	r.sys.nodes[5].pending[line] = &txn{write: true}
	if err := r.sys.CheckInvariants(false); err != nil {
		t.Fatalf("weak check must permit in-flight state: %v", err)
	}
	err := r.sys.CheckInvariants(true)
	if err == nil {
		t.Fatal("busy entry + pending txn not detected at quiescence")
	}
	msg := err.Error()
	if !strings.Contains(msg, "still busy") || !strings.Contains(msg, "pending transaction") {
		t.Errorf("violation text incomplete: %v", err)
	}
	ie, ok := err.(*InvariantError)
	if !ok {
		t.Fatalf("error type %T, want *InvariantError", err)
	}
	if len(ie.Violations) != 2 {
		t.Errorf("got %d violations, want 2: %v", len(ie.Violations), ie.Violations)
	}
}

func TestInvariantCheckerStrictDetectsOrphanedEntry(t *testing.T) {
	r := newRig()
	line := Addr(11)
	home := r.sys.lineHome(line)
	e := r.sys.nodes[home].dir.entry(line)
	e.state = dirModified
	e.owner = 3
	e.sharers.add(3)
	// No node caches the line: the entry is orphaned.
	err := r.sys.CheckInvariants(true)
	if err == nil {
		t.Fatal("orphaned Modified entry not detected")
	}
	if !strings.Contains(err.Error(), "orphaned") {
		t.Errorf("violation text missing orphan mention: %v", err)
	}
}

func TestBusyDumpListsTransactions(t *testing.T) {
	r := newRig()
	line := Addr(2)
	home := r.sys.lineHome(line)
	e := r.sys.nodes[home].dir.entry(line)
	e.busy = true
	e.queue = append(e.queue, &step{})
	r.sys.nodes[5].pending[Addr(8)] = &txn{write: true}
	dump := r.sys.BusyDump(0)
	if len(dump) != 2 {
		t.Fatalf("BusyDump returned %d entries, want 2: %v", len(dump), dump)
	}
	if !strings.Contains(dump[0], "busy") || !strings.Contains(dump[1], "pending txn") {
		t.Errorf("dump entries wrong: %v", dump)
	}
	if got := r.sys.BusyDump(1); len(got) != 1 {
		t.Errorf("BusyDump(1) returned %d entries, want 1", len(got))
	}
}
