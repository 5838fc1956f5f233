package mem

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// driver spawns a thread that runs op once per wake and returns a
// function that wakes it and runs the engine until it is quiet again.
// One thread can drive several nodes: the node is an argument of every
// memory operation, the thread only the blocking context.
func (r *testRig) driver(t *testing.T, op func(th *sim.Thread)) func() {
	th := r.eng.Spawn("driver", 0, func(th *sim.Thread) {
		for {
			th.Pause()
			op(th)
		}
	})
	t.Cleanup(r.eng.StopThreads)
	r.eng.Run()
	return func() {
		th.WakeAt(r.eng.Now())
		r.eng.Run()
	}
}

// requireNoAllocs warms f's pools and directory entries, then requires
// that f allocates nothing.
func requireNoAllocs(t *testing.T, f func()) {
	t.Helper()
	for i := 0; i < 4; i++ {
		f()
	}
	if got := testing.AllocsPerRun(50, f); got != 0 {
		t.Errorf("%v allocations per operation, want 0", got)
	}
}

func TestRemoteReadMissAllocatesNothing(t *testing.T) {
	r := newRig()
	// Two lines homed at node 4 that share node 0's cache frame, so each
	// read evicts the other: every read is a remote clean miss, 4 hops.
	base := r.st.Alloc(4, DefaultParams().CacheLines*DefaultParams().LineWords+2)
	a, b := base, base+Addr(DefaultParams().CacheLines*DefaultParams().LineWords)
	var bd stats.Breakdown
	f := r.driver(t, func(th *sim.Thread) {
		r.sys.Load(th, 0, a, &bd, stats.BucketMemWait)
		r.sys.Load(th, 0, b, &bd, stats.BucketMemWait)
	})
	before := r.sys.Events().RemoteMissesCln
	requireNoAllocs(t, f)
	if r.sys.Events().RemoteMissesCln == before {
		t.Fatal("no remote clean misses")
	}
}

func TestInvalidatingWriteAllocatesNothing(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(4, 2)
	var bd stats.Breakdown
	writes := 0
	// Nodes 1-3 read the line (the first read fetches it from the
	// writer's dirty copy), then node 5 writes it, invalidating all three.
	f := r.driver(t, func(th *sim.Thread) {
		for n := 1; n <= 3; n++ {
			r.sys.Load(th, n, a, &bd, stats.BucketMemWait)
		}
		r.sys.StoreWord(th, 5, a, 1, &bd, stats.BucketMemWait)
		writes++
	})
	requireNoAllocs(t, f)
	if got := r.sys.Events().Invalidations; got != 3*int64(writes) {
		t.Fatalf("%d invalidations in %d writes, want 3 each", got, writes)
	}
}

func TestStoreHitAllocatesNothing(t *testing.T) {
	r := newRig()
	a := r.st.Alloc(0, 2)
	var bd stats.Breakdown
	v := 0.0
	f := r.driver(t, func(th *sim.Thread) {
		v++
		r.sys.StoreWord(th, 0, a, v, &bd, stats.BucketMemWait)
	})
	requireNoAllocs(t, f)
	if r.st.Peek(a) != v {
		t.Fatalf("store holds %v, want %v", r.st.Peek(a), v)
	}
}
