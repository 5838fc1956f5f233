package machine

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RecvMode selects how a processor receives active messages.
type RecvMode int

const (
	// RecvInterrupt delivers messages asynchronously: a computing
	// processor is interrupted (paying interrupt entry cost) within
	// InterruptCheckCycles of arrival.
	RecvInterrupt RecvMode = iota
	// RecvPoll defers messages until the program calls Poll.
	RecvPoll
)

func (m RecvMode) String() string {
	if m == RecvPoll {
		return "poll"
	}
	return "interrupt"
}

// Proc is one simulated processor as seen by application code. All of its
// methods must be called from the processor's own body function (they run
// on its simulated thread).
type Proc struct {
	M  *Machine
	ID int
	BD stats.Breakdown
	// Ev accumulates counters owned by layers above the substrates
	// (synchronization library); Run sums them into Result.Events.
	Ev stats.Events

	th     *sim.Thread
	mode   RecvMode
	doneAt sim.Time // when this processor's body returned (load-imbalance metric)
}

// Thread exposes the underlying simulated thread (for synchronization
// libraries that need Pause/Wake).
func (p *Proc) Thread() *sim.Thread { return p.th }

// Now returns the current simulated time.
func (p *Proc) Now() sim.Time { return p.th.Now() }

// NowCycles returns the current time in processor cycles.
func (p *Proc) NowCycles() int64 { return p.M.Clk.ToCycles(p.th.Now()) }

// SetRecvMode selects interrupt or polled message reception.
func (p *Proc) SetRecvMode(m RecvMode) { p.mode = m }

// RecvMode returns the current reception mode.
func (p *Proc) RecvMode() RecvMode { return p.mode }

// Compute charges cycles of useful computation. Under interrupt
// reception, pending messages are handled at bounded intervals during
// the computation, exactly the asynchrony that perturbs processor
// progress in the paper's ICCG results.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("machine: negative compute %d", cycles))
	}
	if p.M.Noise != nil {
		// Host noise dilates the compute phase at its boundary; one-shot
		// injected delays also fire here (the processor is the target, so
		// its compute path is where the stall lands).
		if d := p.M.Noise.ComputeDilation(p.ID, p.th.Now()); d > 0 {
			p.BD.Add(stats.BucketCompute, d)
			p.th.Sleep(d)
		}
	}
	chunk := p.M.Cfg.InterruptCheckCycles
	for cycles > 0 {
		if p.mode == RecvInterrupt {
			p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
		}
		c := cycles
		if p.mode == RecvInterrupt && c > chunk {
			c = chunk
		}
		d := p.M.Clk.Cycles(c)
		p.BD.Add(stats.BucketCompute, d)
		p.th.Sleep(d)
		cycles -= c
	}
	if p.mode == RecvInterrupt {
		p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
	}
}

// Read performs a sequentially-consistent shared-memory load.
func (p *Proc) Read(a mem.Addr) float64 {
	return p.M.Mem.Load(p.th, p.ID, a, &p.BD, stats.BucketMemWait)
}

// Write performs a sequentially-consistent shared-memory store.
func (p *Proc) Write(a mem.Addr, v float64) {
	p.M.Mem.StoreWord(p.th, p.ID, a, v, &p.BD, stats.BucketMemWait)
}

// RMW performs an atomic read-modify-write on a, returning fn's result.
func (p *Proc) RMW(a mem.Addr, fn func(float64) float64) float64 {
	return p.M.Mem.RMW(p.th, p.ID, a, fn, &p.BD, stats.BucketMemWait)
}

// Update atomically runs fn while holding exclusive ownership of a's
// line (the producer-computes pattern: value and presence counter share
// the line, one ownership acquisition covers both).
func (p *Proc) Update(a mem.Addr, fn func()) {
	p.M.Mem.Update(p.th, p.ID, a, fn, &p.BD, stats.BucketMemWait)
}

// Fence drains the write buffer under release consistency (no-op under
// sequential consistency). Synchronization releases must fence first.
func (p *Proc) Fence() {
	p.M.Mem.Fence(p.th, p.ID, &p.BD, stats.BucketMemWait)
}

// Prefetch issues a non-binding read (write=false) or write-ownership
// (write=true) prefetch. It costs PrefetchIssueCycles and never blocks.
func (p *Proc) Prefetch(a mem.Addr, write bool) {
	d := p.M.Clk.Cycles(p.M.Cfg.PrefetchIssueCycles)
	p.BD.Add(stats.BucketMemWait, d)
	p.th.Sleep(d)
	p.M.Mem.Prefetch(p.ID, a, write)
}

// Peek reads shared memory without timing (initialization/validation).
func (p *Proc) Peek(a mem.Addr) float64 { return p.M.Store.Peek(a) }

// Poke writes node-private memory without coherence timing. Use only for
// data never cached remotely (ghost buffers, handler-local state).
func (p *Proc) Poke(a mem.Addr, v float64) { p.M.Store.Poke(a, v) }

// Send launches a fine-grained active message.
func (p *Proc) Send(dst int, h am.HandlerID, args []int64, vals []float64) {
	p.M.AM.Send(p.th, p.ID, dst, h, args, vals, &p.BD)
}

// SendBulk launches a DMA bulk transfer of data with handler args.
func (p *Proc) SendBulk(dst int, h am.HandlerID, args []int64, data []float64) {
	p.M.AM.SendBulk(p.th, p.ID, dst, h, args, data, &p.BD)
}

// ChargeGather charges the gather/scatter copying cost of moving words of
// irregular data to or from a contiguous DMA buffer (message overhead,
// per the paper's accounting for bulk transfer).
func (p *Proc) ChargeGather(words int) {
	d := p.M.Clk.Cycles(am.GatherScatterCycles(words))
	p.BD.Add(stats.BucketMsgOverhead, d)
	p.th.Sleep(d)
}

// Poll explicitly receives pending messages (polling mode); returns the
// number handled.
func (p *Proc) Poll() int {
	return p.M.AM.Poll(p.th, p.ID, &p.BD)
}

// WaitAndHandle blocks until at least one message is pending, then
// receives the pending batch in the current mode. Waiting time is charged
// as synchronization (the processor is idle for data). It returns the
// number of messages handled.
func (p *Proc) WaitAndHandle() int {
	if !p.M.AM.HasPending(p.ID) {
		start := p.th.Now()
		p.M.AM.Notify(p.ID, func() { p.th.WakeAt(p.M.Eng.Now()) })
		p.th.SetWaitReason("await-message", 0)
		p.th.Pause()
		p.BD.Add(stats.BucketSync, p.th.Now()-start)
		if p.M.Crit != nil {
			p.critMsgWait(start, p.th.Now())
		}
	}
	if p.mode == RecvPoll {
		return p.Poll()
	}
	return p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
}

// critMsgWait decomposes an awaited-message wait [start, end) for the
// critical-path recorder and emits the send→receive edge. The wake fires
// at the waking message's arrival, so end is its arrival time; the wait
// before the sender injected it stays synchronization (waiting for the
// sender to produce), and the in-network interval splits into uncongested
// flight time (network latency) and the serialization/queueing remainder
// (network bandwidth).
func (p *Proc) critMsgWait(start, end sim.Time) {
	src, sent, _, ok := p.M.AM.LastArrival(p.ID)
	if !ok {
		return
	}
	transitStart := sent
	if transitStart < start {
		// The message was already in flight when the wait began; only the
		// overlap was spent waiting on the network.
		transitStart = start
	}
	transit := end - transitStart
	if transit < 0 {
		transit = 0
	}
	var latRaw sim.Time
	if src == p.ID {
		latRaw = p.M.Clk.Cycles(2) // NI loopback (see am inject)
	} else {
		latRaw = sim.Time(p.M.Net.Hops(src, p.ID)+1) * p.M.Cfg.HopLatency
	}
	lat := latRaw
	if lat > transit {
		lat = transit
	}
	p.M.Crit.MsgWait(p.ID, lat, transit-lat)
	p.M.Crit.Edge(obs.CritEdge{
		Kind: "msg", Src: src, Dst: p.ID,
		Start: sent, End: end, Lat: lat, BW: transit - lat,
	})
}

// HandlePending receives any already-queued messages without blocking.
func (p *Proc) HandlePending() int {
	if !p.M.AM.HasPending(p.ID) {
		return 0
	}
	if p.mode == RecvPoll {
		return p.Poll()
	}
	return p.M.AM.DrainInterrupts(p.th, p.ID, &p.BD)
}

// SpinCycles charges synchronization spin time without other effect;
// synchronization primitives use it for backoff waits.
func (p *Proc) SpinCycles(cycles int64) {
	d := p.M.Clk.Cycles(cycles)
	p.BD.Add(stats.BucketSync, d)
	p.th.Sleep(d)
}

// ReadSync is Read with the stall charged to synchronization (spin-wait
// loads on flags and lock words).
func (p *Proc) ReadSync(a mem.Addr) float64 {
	return p.M.Mem.Load(p.th, p.ID, a, &p.BD, stats.BucketSync)
}

// RMWSync is RMW with the stall charged to synchronization.
func (p *Proc) RMWSync(a mem.Addr, fn func(float64) float64) float64 {
	return p.M.Mem.RMW(p.th, p.ID, a, fn, &p.BD, stats.BucketSync)
}

// WriteSync is Write with the stall charged to synchronization.
func (p *Proc) WriteSync(a mem.Addr, v float64) {
	p.M.Mem.StoreWord(p.th, p.ID, a, v, &p.BD, stats.BucketSync)
}
