package am

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// HandlerID names a registered active-message handler.
type HandlerID int

// Ctx is the context passed to an executing handler. Handlers run inline
// on the receiving processor's thread at message-dispatch time; they must
// not block, but they may charge compute time and send replies.
type Ctx struct {
	sys  *System
	Node int              // receiving node
	Src  int              // sending node
	th   *sim.Thread      // receiving processor's thread
	bd   *stats.Breakdown // receiving processor's time breakdown
}

// Compute charges cycles of handler computation (useful work).
func (c *Ctx) Compute(cycles int64) {
	d := c.sys.clk.Cycles(cycles)
	c.bd.Add(stats.BucketCompute, d)
	c.th.Sleep(d)
}

// Overhead charges cycles of handler bookkeeping (message overhead).
func (c *Ctx) Overhead(cycles int64) {
	d := c.sys.clk.Cycles(cycles)
	c.bd.Add(stats.BucketMsgOverhead, d)
	c.th.Sleep(d)
}

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.th.Now() }

// Reply sends an active message back into the network from the handler.
// It never blocks (handlers cannot wait for queue space); the construct
// cost is charged as message overhead.
func (c *Ctx) Reply(dst int, h HandlerID, args []int64, vals []float64) {
	c.Overhead(c.sys.par.SendConstructCycles + c.sys.par.SendPerWordCycles*niWords(args, vals))
	c.sys.inject(c.Node, dst, h, args, vals, false, 0)
}

// niWords counts 32-bit NI register transfers: one per argument, two per
// double-precision value.
func niWords(args []int64, vals []float64) int64 {
	return int64(len(args) + 2*len(vals))
}

// Handler is an active-message handler body. c, args and vals belong to
// the message layer and are reused once the handler returns: a handler
// must copy whatever it keeps.
type Handler func(c *Ctx, args []int64, vals []float64)

// Params configures the message system. Costs are processor cycles.
type Params struct {
	SendConstructCycles   int64 // fixed construct+launch cost per message
	SendPerWordCycles     int64 // per argument/value word written to the NI
	InterruptEntryCycles  int64 // interrupt entry+exit per message batch head
	InterruptPerMsgCycles int64 // per-message dispatch under interrupts
	PollCycles            int64 // cost of one poll check
	PollPerMsgCycles      int64 // per-message dispatch under polling
	RecvPerWordCycles     int64 // per payload word moved out of the NI (fine-grained only; DMA exempt)
	BulkSetupCycles       int64 // DMA descriptor setup per transfer
	BulkRecvCycles        int64 // receive-side DMA initiation per transfer

	HdrBytes       int // network header per message
	ArgBytes       int // per int64 argument on the wire (Alewife args are 32-bit)
	ValBytes       int // per float64 value on the wire
	DescBytes      int // per DMA (address,length) descriptor
	DMAAlign       int // payload alignment for DMA (double word)
	MaxInlineWords int // max args+vals in a fine-grained message (NI registers)

	InQueueCap    int   // NI input queue capacity in messages
	RetryCycles   int64 // network retry interval when the input queue is full
	OutQueueLimit int64 // max cycles of injection backlog before the sender stalls
}

// DefaultParams returns parameters calibrated so a null active message
// costs ~102 cycles end-to-end with interrupts (the paper's figure).
func DefaultParams() Params {
	return Params{
		SendConstructCycles:   22,
		SendPerWordCycles:     2,
		InterruptEntryCycles:  45,
		InterruptPerMsgCycles: 10,
		PollCycles:            6,
		PollPerMsgCycles:      16,
		RecvPerWordCycles:     3,
		BulkSetupCycles:       30,
		BulkRecvCycles:        20,

		HdrBytes:       8,
		ArgBytes:       4,
		ValBytes:       8,
		DescBytes:      8,
		DMAAlign:       8,
		MaxInlineWords: 14,

		InQueueCap:    16,
		RetryCycles:   20,
		OutQueueLimit: 256,
	}
}

// msg is one message from injection until its handler returns. Records
// are pooled on the System and keep their args/vals buffers; run and
// pkt.Deliver are bound once, when a record is first made.
type msg struct {
	s        *System
	src, dst int
	handler  HandlerID
	args     []int64
	vals     []float64
	bulk     bool
	bytes    int      // wire size, for stats
	sent     sim.Time // injection timestamp at the source

	ctx Ctx         // the handler's context
	pkt mesh.Packet // the message on the wire; Deliver runs m.arrive
	run func()      // m.arrive, for loopback
}

func (m *msg) arrive()                        { m.s.arrive(m.dst, m) }
func (m *msg) deliver(sim.Time, *mesh.Packet) { m.arrive() }

// ni is one node's network interface receive side.
type ni struct {
	q        []*msg
	notify   func() // one-shot arm: fires on message arrival
	waitFull int64
	// Last arrival, for the critical-path recorder: a receiver woken by
	// its armed notify can ask what message woke it (see LastArrival).
	lastSrc   int
	lastSent  sim.Time
	lastBytes int
	arrivals  int64
}

// System is the machine-wide active message layer.
type System struct {
	eng      *sim.Engine
	net      *mesh.Network
	clk      sim.Clock
	par      Params
	handlers []Handler
	nis      []*ni
	ev       stats.Events

	// outFree[n] is node n's injection backlog horizon.
	outFree []sim.Time

	// msgs is the free list (LIFO) of message records.
	msgs []*msg

	tr *trace.Buffer // optional event trace

	// fault, when non-nil, injects endpoint drain stalls (the NI refuses
	// deliveries during a stall window, exercising the mesh retry path).
	fault DrainStaller

	// Per-node instruments, allocated by SetMetrics; nil when metrics
	// are disabled. Purely passive.
	mSend     []*obs.Counter   // messages injected per source node
	mRecv     []*obs.Counter   // messages dispatched per receiving node
	mInDepth  []*obs.Histogram // NI input-queue depth at each arrival
	mOutBack  []*obs.Histogram // injection backlog (cycles) at each send
	mWaitFull []*obs.Counter   // deliveries refused on a full input queue
}

// SetMetrics registers the message layer's instruments on reg and begins
// recording: per-node send/receive occupancy counters, the NI input
// queue depth distribution (observed at every arrival), the send-side
// injection backlog distribution in processor cycles (observed at every
// inject), and full-queue delivery refusals. nil is ignored.
func (s *System) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n := len(s.nis)
	s.mSend = make([]*obs.Counter, n)
	s.mRecv = make([]*obs.Counter, n)
	s.mInDepth = make([]*obs.Histogram, n)
	s.mOutBack = make([]*obs.Histogram, n)
	s.mWaitFull = make([]*obs.Counter, n)
	for i := 0; i < n; i++ {
		l := obs.NodeLabel(i)
		s.mSend[i] = reg.Counter("am_send_total", l)
		s.mRecv[i] = reg.Counter("am_recv_total", l)
		s.mInDepth[i] = reg.Histogram("am_ni_in_depth", l)
		s.mOutBack[i] = reg.Histogram("am_out_backlog_cycles", l)
		s.mWaitFull[i] = reg.Counter("am_ni_full_refusals_total", l)
	}
}

// DrainStaller injects endpoint drain stalls deterministically. It is
// implemented by *fault.Injector; the interface keeps this package
// decoupled from the fault package.
type DrainStaller interface {
	// DrainStalledUntil reports when node's NI resumes accepting
	// deliveries for an attempt at time t (0 or <=t means no stall).
	DrainStalledUntil(node int, t sim.Time) sim.Time
}

// SetFaultInjector attaches a drain-stall injector (nil disables it).
// With no injector attached the delivery paths are byte-identical to a
// fault-free build.
func (s *System) SetFaultInjector(fi DrainStaller) { s.fault = fi }

// SetTrace attaches an event trace buffer (nil disables tracing).
func (s *System) SetTrace(tr *trace.Buffer) { s.tr = tr }

// NewSystem creates the message layer for every node of net.
func NewSystem(eng *sim.Engine, net *mesh.Network, clk sim.Clock, par Params) *System {
	s := &System{eng: eng, net: net, clk: clk, par: par}
	s.nis = make([]*ni, net.Nodes())
	for i := range s.nis {
		s.nis[i] = &ni{}
	}
	s.outFree = make([]sim.Time, net.Nodes())
	return s
}

// Params returns the message-layer parameters.
func (s *System) Params() Params { return s.par }

// Events returns accumulated message counters.
func (s *System) Events() stats.Events { return s.ev }

// Register installs a handler and returns its id. Handlers must be
// registered identically on all nodes (the table is machine-wide, which
// models a SPMD program image).
func (s *System) Register(h Handler) HandlerID {
	s.handlers = append(s.handlers, h)
	return HandlerID(len(s.handlers) - 1)
}

// wireBytes computes the payload size of a fine-grained message.
func (s *System) wireBytes(args []int64, vals []float64) int {
	return s.par.ArgBytes*len(args) + s.par.ValBytes*len(vals)
}

// Send launches a fine-grained active message from node's processor
// thread th. The construct cost is charged as message overhead; if the
// injection backlog exceeds the output-queue limit the thread stalls
// (charged as memory+NI wait, per the paper's breakdown definition).
func (s *System) Send(th *sim.Thread, node, dst int, h HandlerID, args []int64, vals []float64, bd *stats.Breakdown) {
	if len(args)+2*len(vals) > s.par.MaxInlineWords {
		panic(fmt.Sprintf("am: %d args + %d vals exceed NI capacity of %d words",
			len(args), len(vals), s.par.MaxInlineWords))
	}
	cost := s.clk.Cycles(s.par.SendConstructCycles + s.par.SendPerWordCycles*niWords(args, vals))
	bd.Add(stats.BucketMsgOverhead, cost)
	th.Sleep(cost)
	s.stallIfBacklogged(th, node, bd)
	s.inject(node, dst, h, args, vals, false, 0)
}

// SendBulk launches a DMA bulk transfer: args are handler arguments, data
// is the gathered payload (already copied into a contiguous buffer by the
// application, which charges GatherScatterCycles for that copy). The
// payload is padded to DMA alignment; ICCG's many small transfers lose
// their header savings to exactly this padding, as in Figure 5.
func (s *System) SendBulk(th *sim.Thread, node, dst int, h HandlerID, args []int64, data []float64, bd *stats.Breakdown) {
	cost := s.clk.Cycles(s.par.BulkSetupCycles + s.par.SendPerWordCycles*int64(len(args)))
	bd.Add(stats.BucketMsgOverhead, cost)
	th.Sleep(cost)
	s.stallIfBacklogged(th, node, bd)
	s.inject(node, dst, h, args, data, true, s.par.DescBytes)
}

// stallIfBacklogged blocks th until the node's injection backlog drops
// below the output-queue limit.
func (s *System) stallIfBacklogged(th *sim.Thread, node int, bd *stats.Breakdown) {
	limit := s.clk.Cycles(s.par.OutQueueLimit)
	now := th.Now()
	if s.outFree[node] > now+limit {
		s.ev.NIQueueFullStall++
		wait := s.outFree[node] - limit - now
		bd.Add(stats.BucketMemWait, wait)
		th.Sleep(wait)
	}
}

// inject places the message on the wire (or loops it back locally).
func (s *System) inject(src, dst int, h HandlerID, args []int64, vals []float64, bulk bool, extraHdr int) {
	s.ev.MessagesSent++
	if s.mSend != nil {
		s.mSend[src].Inc()
		back := s.outFree[src] - s.eng.Now()
		if back < 0 {
			back = 0
		}
		s.mOutBack[src].Observe(s.clk.ToCycles(back))
	}
	if s.tr != nil {
		k := trace.KMsgSend
		if bulk {
			k = trace.KBulk
		}
		s.tr.Add(trace.Event{At: s.eng.Now(), Node: src, Kind: k,
			A: int64(dst), B: int64(s.par.ValBytes * len(vals))})
	}
	if bulk {
		s.ev.BulkTransfers++
		s.ev.BulkBytes += int64(s.par.ValBytes * len(vals))
	}
	m := s.newMsg()
	m.src, m.dst, m.handler, m.bulk, m.sent = src, dst, h, bulk, s.eng.Now()
	// Copy payloads: applications commonly reuse gather buffers.
	m.args = append(m.args[:0], args...)
	m.vals = append(m.vals[:0], vals...)

	payload := s.wireBytes(args, vals)
	if bulk && s.par.DMAAlign > 1 {
		if r := payload % s.par.DMAAlign; r != 0 {
			payload += s.par.DMAAlign - r // alignment padding on the wire
		}
	}
	hdr := s.par.HdrBytes + extraHdr
	m.bytes = hdr + payload

	if src == dst {
		// Loopback through the NI without entering the mesh.
		s.eng.After(s.clk.Cycles(2), m.run)
		return
	}
	p := &m.pkt
	p.Src, p.Dst, p.Class = src, dst, classOf(bulk)
	p.HdrBytes, p.PayloadBytes = hdr, payload
	depart := s.net.Send(p)
	if depart > s.outFree[src] {
		s.outFree[src] = depart
	}
	// Track our own serialization contribution to the backlog.
	ser := sim.Time(m.bytes) * s.net.Config().PsPerByte
	s.outFree[src] += ser
}

// newMsg takes a message record from the free list, or makes one.
func (s *System) newMsg() *msg {
	if k := len(s.msgs); k > 0 {
		m := s.msgs[k-1]
		s.msgs[k-1] = nil
		s.msgs = s.msgs[:k-1]
		return m
	}
	m := &msg{s: s}
	m.run = m.arrive
	m.pkt.Deliver = m.deliver
	return m
}

// freeMsg returns m to the free list once its handler has returned.
func (s *System) freeMsg(m *msg) {
	m.ctx = Ctx{}
	s.msgs = append(s.msgs, m)
}

func classOf(bulk bool) mesh.Class {
	if bulk {
		return mesh.ClassBulk
	}
	return mesh.ClassAM
}

// Endpoint adapts node id's NI to the mesh Endpoint interface, applying
// input-queue back-pressure. Coherence-class packets pass straight
// through to their Deliver callbacks (the CMMU drains them in hardware).
func (s *System) Endpoint(node int) mesh.Endpoint {
	return endpoint{s: s, node: node}
}

type endpoint struct {
	s    *System
	node int
}

func (e endpoint) TryDeliver(now sim.Time, p *mesh.Packet) (bool, sim.Time) {
	switch p.Class {
	case mesh.ClassAM, mesh.ClassBulk:
		ni := e.s.nis[e.node]
		if e.s.fault != nil {
			if u := e.s.fault.DrainStalledUntil(e.node, now); u > now {
				ni.waitFull++
				if e.s.mWaitFull != nil {
					e.s.mWaitFull[e.node].Inc()
				}
				return false, u
			}
		}
		if len(ni.q) >= e.s.par.InQueueCap {
			ni.waitFull++
			if e.s.mWaitFull != nil {
				e.s.mWaitFull[e.node].Inc()
			}
			return false, now + e.s.clk.Cycles(e.s.par.RetryCycles)
		}
		if p.Deliver != nil {
			p.Deliver(now, p)
		}
		return true, 0
	default:
		if p.Deliver != nil {
			p.Deliver(now, p)
		}
		return true, 0
	}
}

// arrive enqueues a message at the destination NI and fires any armed
// notification.
func (s *System) arrive(node int, m *msg) {
	ni := s.nis[node]
	ni.q = append(ni.q, m)
	ni.lastSrc, ni.lastSent, ni.lastBytes = m.src, m.sent, m.bytes
	ni.arrivals++
	if s.mInDepth != nil {
		s.mInDepth[node].Observe(int64(len(ni.q)))
	}
	if f := ni.notify; f != nil {
		ni.notify = nil
		f()
	}
}

// LastArrival describes the most recent message arrival at node: its
// source, injection timestamp, and wire size. ok is false before the
// first arrival. A receiver woken by its Notify callback uses this to
// attribute the wake — the notify fires synchronously at arrival, so at
// wake time the waking message is the last arrival.
func (s *System) LastArrival(node int) (src int, sent sim.Time, bytes int, ok bool) {
	ni := s.nis[node]
	return ni.lastSrc, ni.lastSent, ni.lastBytes, ni.arrivals > 0
}

// HasPending reports whether node has undelivered messages queued.
func (s *System) HasPending(node int) bool { return len(s.nis[node].q) > 0 }

// QueueDepth returns the number of queued messages at node.
func (s *System) QueueDepth(node int) int { return len(s.nis[node].q) }

// Notify arms a one-shot callback invoked at the next message arrival at
// node (or panics if one is already armed — a model bug).
func (s *System) Notify(node int, fn func()) {
	ni := s.nis[node]
	if ni.notify != nil {
		panic("am: notify already armed")
	}
	ni.notify = fn
}

// NotifyArmed reports whether a notification callback is pending.
func (s *System) NotifyArmed(node int) bool { return s.nis[node].notify != nil }

// ClearNotify disarms a pending notification.
func (s *System) ClearNotify(node int) { s.nis[node].notify = nil }

// Poll performs one polling operation on node's thread: it charges the
// poll cost and dispatches every queued message with the cheap polled
// per-message overhead. It returns the number of messages handled.
func (s *System) Poll(th *sim.Thread, node int, bd *stats.Breakdown) int {
	s.ev.Polls++
	s.charge(th, bd, s.par.PollCycles)
	n := s.drain(th, node, bd, s.par.PollPerMsgCycles)
	if n > 0 {
		s.ev.PollHits++
	}
	return n
}

// DrainInterrupts dispatches every queued message with interrupt costs:
// one interrupt entry for the batch plus a per-message dispatch. It
// returns the number of messages handled. The caller (the processor
// model) invokes it when it takes a message interrupt.
func (s *System) DrainInterrupts(th *sim.Thread, node int, bd *stats.Breakdown) int {
	if !s.HasPending(node) {
		return 0
	}
	s.ev.Interrupts++
	s.charge(th, bd, s.par.InterruptEntryCycles)
	return s.drain(th, node, bd, s.par.InterruptPerMsgCycles)
}

// drain dispatches queued messages until the queue is empty, charging
// perMsg overhead cycles per message, then running the handler inline.
func (s *System) drain(th *sim.Thread, node int, bd *stats.Breakdown, perMsg int64) int {
	ni := s.nis[node]
	n := 0
	for len(ni.q) > 0 {
		m := ni.q[0]
		k := copy(ni.q, ni.q[1:])
		ni.q[k] = nil
		ni.q = ni.q[:k]
		n++
		s.ev.MessagesRecv++
		if s.mRecv != nil {
			s.mRecv[node].Inc()
		}
		if s.tr != nil {
			s.tr.Add(trace.Event{At: s.eng.Now(), Node: node, Kind: trace.KMsgRecv, A: int64(m.src)})
		}
		cost := perMsg
		if m.bulk {
			cost += s.par.BulkRecvCycles // DMA moves the payload; no per-word cost
		} else {
			cost += s.par.RecvPerWordCycles * niWords(m.args, m.vals)
		}
		s.charge(th, bd, cost)
		m.ctx = Ctx{sys: s, Node: node, Src: m.src, th: th, bd: bd}
		s.handlers[m.handler](&m.ctx, m.args, m.vals)
		s.freeMsg(m)
	}
	return n
}

func (s *System) charge(th *sim.Thread, bd *stats.Breakdown, cycles int64) {
	d := s.clk.Cycles(cycles)
	bd.Add(stats.BucketMsgOverhead, d)
	th.Sleep(d)
}

// QueueDump lists the non-empty NI input queues (node, depth, head
// message source/handler), at most max entries (0 = no limit). Used by
// watchdog diagnostics when a run stalls.
func (s *System) QueueDump(max int) []string {
	var out []string
	for node, ni := range s.nis {
		if len(ni.q) == 0 {
			continue
		}
		m := ni.q[0]
		out = append(out, fmt.Sprintf("node %d NI queue depth %d (head: src=%d handler=%d bulk=%v)",
			node, len(ni.q), m.src, m.handler, m.bulk))
		if max > 0 && len(out) >= max {
			return out
		}
	}
	return out
}

// GatherScatterCycles returns the processor cost of copying words of
// irregular data to or from a contiguous DMA buffer: the paper cites up
// to 60 cycles per 16-byte cache line, i.e. 30 per 8-byte word.
func GatherScatterCycles(words int) int64 { return int64(words) * 30 }
