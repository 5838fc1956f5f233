package mesh

import (
	"testing"

	"repro/internal/sim"
)

// refuseFirst back-pressures every other offer and hands the rest to
// AcceptAll, so each packet is delivered on its first retry.
type refuseFirst struct{ refused bool }

func (r *refuseFirst) TryDeliver(now sim.Time, p *Packet) (bool, sim.Time) {
	if r.refused = !r.refused; r.refused {
		return false, now + 1000
	}
	return AcceptAll{}.TryDeliver(now, p)
}

func TestSendWithRetryAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	n.Attach(7, &refuseFirst{})
	delivered := 0
	deliver := func(sim.Time, *Packet) { delivered++ }
	p := &Packet{Src: 0, Dst: 7, Class: ClassCohData, HdrBytes: 8, PayloadBytes: 16, Deliver: deliver}
	send := func() {
		n.Send(p)
		eng.Run()
	}
	send() // warm the in-flight record pool
	if got := testing.AllocsPerRun(50, send); got != 0 {
		t.Errorf("%v allocations per packet, want 0", got)
	}
	if delivered != 52 || n.Retries() != 52 {
		t.Errorf("delivered %d packets with %d retries, want 52 and 52", delivered, n.Retries())
	}
}

func TestCrossTrafficTickAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	clk := sim.NewClock(20)
	// 8 generators, one 64-byte packet each per 128 cycles.
	n.StartCrossTraffic(CrossTraffic{MsgBytes: 64, BytesPerCycle: 4}, clk)
	period := clk.Cycles(128)
	tick := func() { eng.RunUntil(eng.Now() + period) }
	for i := 0; i < 4; i++ {
		tick() // warm the in-flight record pool
	}
	before, _ := n.CrossTrafficStats()
	if got := testing.AllocsPerRun(50, tick); got != 0 {
		t.Errorf("%v allocations per generator period, want 0", got)
	}
	if pkts, _ := n.CrossTrafficStats(); pkts-before != 51*8 {
		t.Errorf("%d cross-traffic packets in 51 periods, want %d", pkts-before, 51*8)
	}
}

// BenchmarkPacketBisection measures the host cost of one packet from
// node (0,0) to node (7,0) of the 8x4 mesh, crossing the bisection:
// routing, link reservations and delivery to AcceptAll.
func BenchmarkPacketBisection(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	n := New(eng, alewifeCfg())
	p := &Packet{Src: 0, Dst: n.ID(7, 0), Class: ClassCohData, HdrBytes: 8, PayloadBytes: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(p)
		eng.Run()
	}
	b.StopTimer()
	if app, _ := n.BisectionCrossings(); app != int64(b.N)*24 {
		b.Fatalf("%d bytes crossed the bisection, want %d", app, int64(b.N)*24)
	}
}
