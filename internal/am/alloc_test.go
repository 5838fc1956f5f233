package am

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// nullMessages sets up a receiver on node 4, 4 hops from node 0, that
// drains by interrupt whenever a message is pending, and returns a
// function that sends one null active message from node 0 and runs the
// engine until it has been handled, plus the count of handled messages.
func nullMessages(tb testing.TB) (send func(), handled *int) {
	r := newRig()
	handled = new(int)
	h := r.sys.Register(func(c *Ctx, args []int64, vals []float64) { *handled++ })
	var bds, bdr stats.Breakdown
	var recv *sim.Thread
	wake := func() { recv.WakeAt(r.eng.Now()) }
	recv = r.eng.Spawn("recv", 0, func(th *sim.Thread) {
		for {
			if !r.sys.HasPending(4) {
				r.sys.Notify(4, wake)
				th.Pause()
			}
			r.sys.DrainInterrupts(th, 4, &bdr)
		}
	})
	sender := r.eng.Spawn("send", 0, func(th *sim.Thread) {
		for {
			th.Pause()
			r.sys.Send(th, 0, 4, h, nil, nil, &bds)
		}
	})
	tb.Cleanup(r.eng.StopThreads)
	r.eng.Run()
	return func() {
		sender.WakeAt(r.eng.Now())
		r.eng.Run()
	}, handled
}

func TestNullActiveMessageAllocatesNothing(t *testing.T) {
	send, handled := nullMessages(t)
	send() // warm the message and in-flight record pools
	if got := testing.AllocsPerRun(50, send); got != 0 {
		t.Errorf("%v allocations per null active message, want 0", got)
	}
	if *handled != 52 {
		t.Errorf("%d messages handled, want 52", *handled)
	}
}

// BenchmarkNullActiveMessage measures the host cost of one null active
// message (Figure 3's ~102-cycle operation): send, 4-hop transit,
// interrupt entry and dispatch, including both thread switches.
func BenchmarkNullActiveMessage(b *testing.B) {
	b.ReportAllocs()
	send, handled := nullMessages(b)
	send()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if *handled != b.N+1 {
		b.Fatalf("%d messages handled, want %d", *handled, b.N+1)
	}
}
