package mem

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// System is the distributed shared-memory system: one cache + home
// directory + controller per node, connected by the mesh (or, in the
// Figure 10 ideal-network mode, by a uniform fixed-latency fabric).
//
// Data correctness note. Shared values live in the authoritative Store;
// loads and stores complete against it at their simulated completion
// times, and the protocol supplies timing and ordering. The applications
// are data-race-free (locks, barriers, dataflow counters), so results are
// exact. Protocol corner-case races (e.g. a write-back crossing a
// re-request) are resolved defensively and can at worst perturb message
// accounting by a packet or two, never data values.
type System struct {
	eng   *sim.Engine
	net   *mesh.Network
	clk   sim.Clock
	par   Params
	store *Store
	// nodes is per-node protocol state: cache, directory, controller
	// pipeline, outstanding transactions.
	nodes []*nodeMem
	ev    stats.Events

	idealNet    bool
	idealOneWay sim.Time

	tr *trace.Buffer // optional event trace

	// Instruments, allocated by SetMetrics; nil when metrics are
	// disabled. Purely passive.
	mMissRd   *obs.Histogram // demand read miss latency, cycles
	mMissWr   *obs.Histogram // demand write/upgrade miss latency, cycles
	mMissPf   *obs.Histogram // prefetch fill latency, cycles
	mDirBusy  []*obs.Gauge   // high-water concurrently busy directory entries per home
	mTxnOut   []*obs.Gauge   // high-water outstanding miss transactions per node
	mTxnTotal *obs.Counter   // miss transactions started

	// crit, when non-nil, receives the critical-path decomposition of
	// miss waits and the miss/txn causal edges.
	crit *obs.CritRecorder

	// Free lists (LIFO) of protocol steps and miss transactions.
	freeSteps []*step
	freeTxns  []*txn
}

// SetMetrics registers the memory system's instruments on reg and begins
// recording: miss-latency histograms in processor cycles split by
// operation (demand read, demand write/upgrade, prefetch fill), the
// per-home high-water count of concurrently busy directory entries, the
// per-node high-water count of outstanding miss transactions, and a
// transaction counter. nil is ignored.
func (s *System) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mMissRd = reg.Histogram("mem_miss_latency_cycles", "op=read")
	s.mMissWr = reg.Histogram("mem_miss_latency_cycles", "op=write")
	s.mMissPf = reg.Histogram("mem_miss_latency_cycles", "op=prefetch")
	s.mTxnTotal = reg.Counter("mem_txn_total", "")
	s.mDirBusy = make([]*obs.Gauge, len(s.nodes))
	s.mTxnOut = make([]*obs.Gauge, len(s.nodes))
	for i := range s.nodes {
		l := obs.NodeLabel(i)
		s.mDirBusy[i] = reg.Gauge("mem_dir_busy_hw", l)
		s.mTxnOut[i] = reg.Gauge("mem_txn_outstanding_hw", l)
	}
}

// SetTrace attaches an event trace buffer (nil disables tracing).
func (s *System) SetTrace(tr *trace.Buffer) { s.tr = tr }

// SetCritPath attaches a critical-path recorder (nil disables). Purely
// passive: recording never perturbs protocol timing.
func (s *System) SetCritPath(cr *obs.CritRecorder) { s.crit = cr }

// nodeMem is the per-node memory-side state.
type nodeMem struct {
	cache   *cache
	dir     *directory
	ctlFree sim.Time
	pending map[Addr]*txn
	rcSt    *rcState // write buffer, allocated on first RC store
	busyDir int      // directory entries currently in service (metrics)
}

// txn is an outstanding miss transaction at the requesting node.
type txn struct {
	line     Addr
	write    bool
	node     int
	prefetch bool
	atomic   bool     // RMW/Update: requires exclusivity even under ProtocolUpdate
	granted  bool     // home has issued the reply (it is en route)
	gen      uint64   // dirEntry.modGen of a Modified grant (0 for shared grants)
	start    sim.Time // issue time, for the miss-latency histogram
	extra    sim.Time // LimitLESS surcharge of an invalidation round, added to the grant

	waiters    []waiter
	onComplete []*step // run in order by completeTxn, before the waiters wake
}

type waiter struct {
	th     *sim.Thread
	bd     *stats.Breakdown
	bucket stats.TimeBucket
	start  sim.Time
}

// NewSystem builds the memory system over an existing store and network.
// The network's endpoints are not touched: coherence packets carry their
// own Deliver callbacks, so any endpoint that invokes Deliver (including
// mesh.AcceptAll) suffices.
func NewSystem(eng *sim.Engine, net *mesh.Network, clk sim.Clock, par Params, store *Store) *System {
	if net != nil && net.Nodes() != store.Nodes() {
		panic(fmt.Sprintf("mem: network has %d nodes, store has %d", net.Nodes(), store.Nodes()))
	}
	if store.Nodes() > MaxNodes {
		panic(fmt.Sprintf("mem: %d nodes exceeds the %d-node sharer bitset capacity", store.Nodes(), MaxNodes))
	}
	s := &System{eng: eng, net: net, clk: clk, par: par, store: store}
	s.nodes = make([]*nodeMem, store.Nodes())
	for i := range s.nodes {
		s.nodes[i] = &nodeMem{
			cache:   newCache(par),
			dir:     newDirectory(),
			pending: make(map[Addr]*txn),
		}
	}
	return s
}

// SetIdealNetwork switches coherence traffic to the paper's Figure 10
// emulation: every protocol message takes exactly oneWay regardless of
// distance or load (uniform access times, infinite bandwidth).
func (s *System) SetIdealNetwork(oneWay sim.Time) {
	s.idealNet = true
	s.idealOneWay = oneWay
}

// Store returns the authoritative backing store.
func (s *System) Store() *Store { return s.store }

// Params returns the memory parameters.
func (s *System) Params() Params { return s.par }

// Events returns the accumulated protocol event counters.
func (s *System) Events() stats.Events { return s.ev }

func (s *System) cyc(n int64) sim.Time { return s.clk.Cycles(n) }

// lineHome returns the home node of a line.
func (s *System) lineHome(line Addr) int {
	return s.store.Home(line * Addr(s.par.LineWords))
}

// atCtl serializes fn through node's controller. The controller is
// pipelined: each operation's result is available HomeOccCycles after it
// starts, but the controller accepts a new operation every
// CtlServiceCycles (occupancy < latency, as in the CMMU).
func (s *System) atCtl(node int, fn func()) {
	nm := s.nodes[node]
	eng := s.eng
	start := eng.Now()
	if nm.ctlFree > start {
		start = nm.ctlFree
	}
	nm.ctlFree = start + s.cyc(s.par.CtlServiceCycles)
	eng.At(start+s.cyc(s.par.HomeOccCycles), fn)
}

// ---------------------------------------------------------------------------
// Processor-facing operations
// ---------------------------------------------------------------------------

// Load performs a blocking sequentially-consistent load by node's
// processor thread th, charging stall time to bd's bucket.
func (s *System) Load(th *sim.Thread, node int, a Addr, bd *stats.Breakdown, bucket stats.TimeBucket) float64 {
	if v, ok := s.rcForward(node, a); ok {
		// Read-own-write forwarding from the write buffer.
		d := s.cyc(s.par.HitCycles)
		bd.Add(stats.BucketCompute, d)
		th.Sleep(d)
		return v
	}
	s.access(th, node, a, false, false, applyOp{}, bd, bucket)
	return s.store.Peek(a)
}

// StoreWord performs a store: blocking under sequential consistency,
// buffered under release consistency.
func (s *System) StoreWord(th *sim.Thread, node int, a Addr, v float64, bd *stats.Breakdown, bucket stats.TimeBucket) {
	if s.par.Consistency == RC {
		s.storeRelaxed(th, node, a, v, bd, bucket)
		return
	}
	s.access(th, node, a, true, false, applyOp{store: true, v: v}, bd, bucket)
}

// RMW performs an atomic read-modify-write: fn is applied to the current
// value at the moment write ownership is held. It returns the value fn
// returned. Atomicity follows from per-line ownership serialization.
func (s *System) RMW(th *sim.Thread, node int, a Addr, fn func(float64) float64, bd *stats.Breakdown, bucket stats.TimeBucket) float64 {
	s.Fence(th, node, bd, bucket) // atomics order buffered stores
	var out float64
	s.access(th, node, a, true, true, applyOp{fn: func() { out = fn(s.store.Peek(a)); s.store.Poke(a, out) }}, bd, bucket)
	return out
}

// Update performs an atomic update of up to a line's worth of state: fn
// runs once write ownership of a's line is held. It exists for the
// paper's producer-computes ICCG pattern, where a value and its presence
// counter share a cache line and a single ownership acquisition covers
// both.
func (s *System) Update(th *sim.Thread, node int, a Addr, fn func(), bd *stats.Breakdown, bucket stats.TimeBucket) {
	s.Fence(th, node, bd, bucket) // atomics order buffered stores
	s.access(th, node, a, true, true, applyOp{fn: fn}, bd, bucket)
}

// Prefetch issues a non-binding prefetch of a's line (write requests
// exclusive ownership). It never blocks; the caller charges issue cost.
func (s *System) Prefetch(node int, a Addr, write bool) {
	s.ev.PrefetchIssued++
	nm := s.nodes[node]
	line := LineOf(a, s.par.LineWords)
	if t := nm.pending[line]; t != nil {
		return // already inbound
	}
	st := nm.cache.lookup(line)
	if st == lineModified || (st == lineShared && !write) {
		return // already sufficient: useless-local prefetch, issue cost only
	}
	if i := nm.cache.pfLookup(line); i >= 0 {
		pst := nm.cache.pf[i].state
		if pst == lineModified || (pst == lineShared && !write) {
			return
		}
		// Shared copy but exclusive wanted: drop it so the write-prefetch
		// fill doesn't leave a stale duplicate behind.
		nm.cache.pfTake(i)
	}
	s.startTxn(node, line, write, true)
}

// access is the common blocking path for loads, stores and atomics:
// it returns once node holds a's line in a sufficient state and op has
// been applied.
func (s *System) access(th *sim.Thread, node int, a Addr, write, atomic bool, op applyOp, bd *stats.Breakdown, bucket stats.TimeBucket) {
	line := LineOf(a, s.par.LineWords)
	nm := s.nodes[node]
	for {
		if t := nm.pending[line]; t != nil {
			if !write {
				if st := nm.cache.lookup(line); st != lineInvalid {
					// A readable copy is present; the in-flight upgrade
					// (e.g. a buffered RC store or a write prefetch)
					// need not block this read.
					d := s.cyc(s.par.HitCycles)
					bd.Add(stats.BucketCompute, d)
					th.Sleep(d)
					return
				}
			}
			if !write || t.write {
				// Join the in-flight transaction.
				if t.prefetch {
					t.prefetch = false
					s.ev.PrefetchUseful++
				}
				s.deferApply(t, a, op)
				s.wait(t, th, bd, bucket)
				return
			}
			// A write cannot join a read transaction: wait it out, retry.
			s.wait(t, th, bd, bucket)
			continue
		}

		st := nm.cache.lookup(line)
		if st == lineModified || (st == lineShared && !write) {
			// Hit.
			d := s.cyc(s.par.HitCycles)
			bd.Add(stats.BucketCompute, d)
			th.Sleep(d)
			s.apply(a, op)
			return
		}

		if i := nm.cache.pfLookup(line); i >= 0 {
			pst := nm.cache.pf[i].state
			if pst == lineModified || (pst == lineShared && !write) {
				// Satisfied from the prefetch buffer: move into cache.
				_, pgen := nm.cache.pfTake(i)
				s.installLine(node, line, pst, pgen)
				s.ev.PrefetchUseful++
				d := s.cyc(s.par.PrefetchMoveCycles)
				bd.Add(bucket, d)
				th.Sleep(d)
				s.apply(a, op)
				return
			}
			// Present but in insufficient state (S, need M): promote to
			// cache as shared, then fall through to an upgrade miss.
			nm.cache.pfTake(i)
			s.installLine(node, line, lineShared, 0)
			s.ev.PrefetchUseful++
			st = lineShared
		}

		if write && st == lineShared {
			s.ev.Upgrades++
		}
		t := s.startTxn(node, line, write, false)
		t.atomic = atomic
		s.deferApply(t, a, op)
		s.wait(t, th, bd, bucket)
		return
	}
}

// deferApply queues op on word a to run when t completes.
func (s *System) deferApply(t *txn, a Addr, op applyOp) {
	if !op.store && op.fn == nil {
		return
	}
	st := s.newStep(stepApply)
	st.addr, st.op = a, op
	t.onComplete = append(t.onComplete, st)
}

// wait blocks th until t completes, charging the elapsed stall.
func (s *System) wait(t *txn, th *sim.Thread, bd *stats.Breakdown, bucket stats.TimeBucket) {
	t.waiters = append(t.waiters, waiter{th: th, bd: bd, bucket: bucket, start: th.Now()})
	th.SetWaitReason("mem-miss line", int64(t.line))
	th.Pause()
}

// installLine places a line into node's cache, emitting any victim
// write-back.
func (s *System) installLine(node int, line Addr, st lineState, gen uint64) {
	victim, dirty, victimGen := s.nodes[node].cache.fill(line, st, gen)
	if victim != NilAddr && dirty {
		s.writeback(node, victim, victimGen)
	}
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// startTxn opens a miss transaction at node and routes the request to
// the line's home controller.
func (s *System) startTxn(node int, line Addr, write, prefetch bool) *txn {
	eng := s.eng
	if s.tr != nil {
		w := int64(0)
		if write {
			w = 1
		}
		s.tr.Add(trace.Event{At: eng.Now(), Node: node, Kind: trace.KMissStart, A: int64(line), B: w})
	}
	t := s.newTxn()
	t.line, t.write, t.node, t.prefetch, t.start = line, write, node, prefetch, eng.Now()
	s.nodes[node].pending[line] = t
	if s.mTxnTotal != nil {
		s.mTxnTotal.Inc()
		s.mTxnOut[node].SetMax(int64(len(s.nodes[node].pending)))
	}
	home := s.lineHome(line)
	st := s.newStep(stepDispatch)
	st.t, st.home, st.line = t, home, line
	if node == home {
		// Local request: no network issue cost; straight to the controller.
		s.atCtl(home, st.run)
		return t
	}
	st.kind = stepReqSend
	eng.After(s.cyc(s.par.ReqCycles), st.run)
	return t
}

// homeDispatch runs at the home controller when a request arrives. The
// directory entry services one request at a time; while one is in
// service (busy), later arrivals park in a strict FIFO queue. release
// pops exactly one queued request per completion, so no requester can
// starve behind faster re-requesters.
func (s *System) homeDispatch(st *step) {
	home := st.home
	e := s.nodes[home].dir.entry(st.line)
	if e.busy {
		st.kind, st.e = stepProcess, e
		e.queue = append(e.queue, st)
		return
	}
	e.busy = true
	if s.mDirBusy != nil {
		nm := s.nodes[home]
		nm.busyDir++
		s.mDirBusy[home].SetMax(int64(nm.busyDir))
	}
	s.homeProcess(st, e)
}

// homeProcess services the request st; e.busy is held by the caller and
// released via s.release at every terminal point.
func (s *System) homeProcess(st *step, e *dirEntry) {
	home, t := st.home, st.t
	req, line, write := t.node, t.line, t.write
	if e.state == dirModified && e.owner != req {
		if e.owner == home {
			// Dirty in the home's own cache: the controller pulls the
			// line from its processor's cache inline — no network, no
			// extra controller passes (Alewife's 2-party dirty case).
			// If the home's own write grant is still in flight (ownership
			// recorded, fill pending), defer until the fill completes:
			// invalidating the cache now would miss the in-flight fill and
			// leave two Modified copies (mirrors ownerFetch's deferral).
			if ot := s.nodes[home].pending[line]; ot != nil && ot.write && ot.granted {
				st.kind, st.e = stepServeHome, e
				ot.onComplete = append(ot.onComplete, st)
				return
			}
			s.serveHomeDirty(st, e)
			return
		}
		// Dirty at a third party: fetch (and for writes, invalidate) the
		// owner's copy.
		s.ev.RemoteMissesDty++
		class := mesh.ClassCohReq
		if write {
			class = mesh.ClassCohInval
			s.ev.Invalidations++
		}
		st.node = e.owner
		s.sendToCtl(st, home, e.owner, class, 0, stepFetch)
		return
	}

	if e.state == dirModified && e.owner == req {
		// Late write-back race: the requestor evicted its dirty copy and
		// the write-back is still in flight. Safe to treat as uncached.
		e.state = dirUncached
		e.sharers = sharerSet{}
		e.owner = -1
	}

	if !write {
		s.countMiss(home, req, false)
		extra := sim.Time(0)
		if e.sharers.count() >= s.par.HWPointers {
			s.ev.LimitLESSTraps++
			extra = s.cyc(s.par.LimitLESSCycles)
		}
		e.state = dirShared
		e.sharers.add(req)
		s.grant(home, false, t, extra)
		s.release(home, e)
		s.freeStep(st)
		return
	}

	// Write: invalidate all other sharers first.
	shs := e.sharers
	shs.remove(req)
	if shs.count() == 0 {
		s.countMiss(home, req, false)
		e.state = dirModified
		e.owner = req
		e.sharers = sharerSet{}
		e.sharers.add(req)
		e.modGen++
		t.gen = e.modGen
		s.grant(home, true, t, 0)
		s.release(home, e)
		s.freeStep(st)
		return
	}
	s.countMiss(home, req, false)
	if s.par.Protocol == ProtocolUpdate && !t.atomic {
		s.updateRound(st, e, shs)
		return
	}
	if shs.count() >= s.par.HWPointers {
		s.ev.LimitLESSTraps++
		// Software walks the overflow directory and invalidates each
		// sharer: a fixed trap cost plus a per-sharer term.
		t.extra = s.cyc(s.par.LimitLESSCycles + s.par.LimitLESSPerSharerCycles*int64(shs.count()))
	}
	e.acks = shs.count()
	shs.forEach(func(sh int) {
		s.ev.Invalidations++
		iv := s.newStep(stepInval)
		iv.t, iv.e, iv.home, iv.node, iv.line = t, e, home, sh, line
		s.sendToCtl(iv, home, sh, mesh.ClassCohInval, 0, stepInval)
	})
	s.freeStep(st)
}

// serveHomeDirty serves the request st from the copy dirty in the home's
// own cache.
func (s *System) serveHomeDirty(st *step, e *dirEntry) {
	home, t := st.home, st.t
	req, line := t.node, t.line
	s.ev.RemoteMissesDty++
	if t.write {
		s.ev.Invalidations++
		s.nodes[home].cache.invalidate(line)
		e.state = dirModified
		e.owner = req
		e.sharers = sharerSet{}
		e.sharers.add(req)
		e.modGen++
		t.gen = e.modGen
	} else {
		s.nodes[home].cache.downgrade(line)
		e.state = dirShared
		e.sharers = sharerSet{}
		e.sharers.add(home)
		e.sharers.add(req)
		e.owner = -1
	}
	s.grant(home, t.write, t, 0)
	s.release(home, e)
	s.freeStep(st)
}

// countMiss classifies a (non-dirty-path) miss as local or remote-clean.
func (s *System) countMiss(home, req int, dirty bool) {
	switch {
	case dirty:
		s.ev.RemoteMissesDty++
	case req == home:
		s.ev.LocalMisses++
	default:
		s.ev.RemoteMissesCln++
	}
}

// invalidateAt removes st's line from the sharer st.node's cache and
// acks, deferring if a granted read reply is in flight (the 8-byte
// invalidation can overtake the 24-byte data reply in the network;
// acking first would install a stale shared copy). Deferral is safe only
// for granted read transactions, which complete independently of the
// invalidation round.
func (s *System) invalidateAt(st *step) {
	node, line := st.node, st.line
	nm := s.nodes[node]
	if t := nm.pending[line]; t != nil && !t.write && t.granted {
		st.kind = stepInvalLate
		t.onComplete = append(t.onComplete, st)
		return
	}
	if s.tr != nil {
		s.tr.Add(trace.Event{At: s.eng.Now(), Node: node, Kind: trace.KInval, A: int64(line)})
	}
	nm.cache.invalidate(line)
	s.sendToCtl(st, node, st.home, mesh.ClassCohInval, 0, stepInvalAck)
}

// invalAck counts one invalidation ack at home; the round's last ack
// hands the requester ownership.
func (s *System) invalAck(st *step) {
	e, t := st.e, st.t
	e.acks--
	if e.acks == 0 {
		e.state = dirModified
		e.owner = t.node
		e.sharers = sharerSet{}
		e.sharers.add(t.node)
		e.modGen++
		t.gen = e.modGen
		s.grant(st.home, true, t, t.extra)
		s.release(st.home, e)
	}
	s.freeStep(st)
}

// ownerFetch runs at the current owner st.node when the home requests
// its dirty copy. If the owner's own write grant is still in flight, the
// fetch defers until the fill completes (ownership must be observed
// before it can be taken away).
func (s *System) ownerFetch(st *step) {
	if ot := s.nodes[st.node].pending[st.line]; ot != nil && ot.write && ot.granted {
		st.kind = stepFetchNow
		ot.onComplete = append(ot.onComplete, st)
		return
	}
	s.ownerFetchNow(st)
}

// ownerFetchNow surrenders the owner's dirty copy immediately and
// returns the line to home.
func (s *System) ownerFetchNow(st *step) {
	nm := s.nodes[st.node]
	if st.t.write {
		nm.cache.invalidate(st.line)
	} else {
		nm.cache.downgrade(st.line)
	}
	s.sendToCtl(st, st.node, st.home, mesh.ClassCohData, s.par.LineBytes, stepFetchDone)
}

// fetchDone records the new line state once the owner's data is back at
// home, then grants and releases.
func (s *System) fetchDone(st *step) {
	home, owner, t := st.home, st.node, st.t
	e := s.nodes[home].dir.entry(st.line)
	if t.write {
		e.state = dirModified
		e.owner = t.node
		e.sharers = sharerSet{}
		e.sharers.add(t.node)
		e.modGen++
		t.gen = e.modGen
	} else {
		e.state = dirShared
		e.sharers = sharerSet{}
		e.sharers.add(owner)
		e.sharers.add(t.node)
		e.owner = -1
	}
	s.grant(home, t.write, t, 0)
	s.release(home, e)
	s.freeStep(st)
}

// updateRound implements the write-through update protocol: the written
// data is pushed to every sharer (which keeps its copy), acks return, and
// the writer is granted a SHARED copy — its next store to the line pays
// another round trip, and its readers never refetch.
func (s *System) updateRound(st *step, e *dirEntry, shs sharerSet) {
	home, t := st.home, st.t
	e.state = dirShared
	e.sharers.add(t.node)
	if shs.count() == 0 {
		s.grantState(home, lineShared, t, 0)
		s.release(home, e)
		s.freeStep(st)
		return
	}
	e.busy = true
	e.acks = shs.count()
	shs.forEach(func(sh int) {
		// Update carries the new data: header + one word.
		u := s.newStep(stepUpdate)
		u.t, u.e, u.home, u.node, u.line = t, e, home, sh, t.line
		s.sendToCtl(u, home, sh, mesh.ClassCohData, 8, stepUpdate)
	})
	s.freeStep(st)
}

// updateAck counts one update ack at home; the round's last ack grants
// the writer its shared copy.
func (s *System) updateAck(st *step) {
	e, t := st.e, st.t
	e.acks--
	if e.acks == 0 {
		s.grantState(st.home, lineShared, t, 0)
		s.release(st.home, e)
	}
	s.freeStep(st)
}

// grant sends the data reply to the requestor after DRAM access (plus any
// LimitLESS software penalty) and marks the transaction granted.
func (s *System) grant(home int, write bool, t *txn, extra sim.Time) {
	st := lineShared
	if write {
		st = lineModified
	}
	s.grantState(home, st, t, extra)
}

// grantState is grant with an explicit final cache state for the
// requestor (the update protocol grants writes as shared).
func (s *System) grantState(home int, st lineState, t *txn, extra sim.Time) {
	t.granted = true
	if s.crit != nil {
		// Directory txn begin→grant edge, recorded at the home (the grant
		// side); the requester-side view is the later miss→fill edge.
		s.crit.Edge(obs.CritEdge{Kind: "txn", Src: t.node, Dst: home, Start: t.start, End: s.eng.Now()})
	}
	g := s.newStep(stepComplete)
	g.t, g.home, g.state = t, home, st
	if t.node == home {
		// Local fill: no reply message; LocalMissCycles covers the DRAM
		// path (calibrated to the paper's ~11-cycle local miss).
		rest := s.par.LocalMissCycles - s.par.HomeOccCycles
		if rest < 0 {
			rest = 0
		}
		s.eng.After(s.cyc(rest)+extra, g.run)
		return
	}
	// The DRAM delay elapses at home; the reply's delivery (and so the
	// fill timer) runs at the requestor.
	g.kind = stepReply
	s.eng.After(s.cyc(s.par.DRAMCycles)+extra, g.run)
}

// release finishes one request's service: it hands the entry to the
// oldest queued request (keeping busy held across the handoff so fresh
// arrivals cannot jump the queue) or marks the entry idle. The popped
// slot is cleared and the queue keeps its backing array.
func (s *System) release(home int, e *dirEntry) {
	if len(e.queue) > 0 {
		next := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = nil
		e.queue = e.queue[:n]
		s.atCtl(home, next.run)
		return
	}
	e.busy = false
	if s.mDirBusy != nil {
		s.nodes[home].busyDir--
	}
}

// completeTxn installs the line, runs deferred operations, wakes waiting
// threads and frees t.
func (s *System) completeTxn(t *txn, st lineState) {
	eng := s.eng
	node, line := t.node, t.line
	nm := s.nodes[node]
	if t.prefetch {
		evicted, dirty, evictedGen := nm.cache.pfFill(line, st, t.gen)
		if evicted != NilAddr {
			s.ev.PrefetchUseless++
			if dirty {
				s.writeback(node, evicted, evictedGen)
			}
		}
	} else {
		s.installLine(node, line, st, t.gen)
	}
	delete(nm.pending, line)
	if s.mMissRd != nil {
		lat := s.clk.ToCycles(eng.Now() - t.start)
		switch {
		case t.prefetch:
			s.mMissPf.Observe(lat)
		case t.write:
			s.mMissWr.Observe(lat)
		default:
			s.mMissRd.Observe(lat)
		}
	}
	if s.tr != nil {
		s.tr.Add(trace.Event{At: eng.Now(), Node: node, Kind: trace.KMissEnd, A: int64(line)})
	}
	for _, d := range t.onComplete {
		d.exec()
	}
	now := eng.Now()
	if s.crit != nil {
		s.critComplete(node, line, t, now)
	}
	for _, w := range t.waiters {
		w.bd.Add(w.bucket, now-w.start)
		w.th.WakeAt(now)
	}
	s.freeTxn(t)
}

// critComplete decomposes a completed transaction's waits for the
// critical-path recorder and emits the miss→fill edge. The wait interval
// is split in priority order: up to the uncongested round-trip flight
// time is network latency, up to the protocol's fixed cycle cost stays
// memory stall, and the remainder — serialization, queueing, directory
// occupancy, invalidation rounds — is network bandwidth/occupancy.
// Waits charged to buckets other than mem-wait (synchronization spins)
// are left whole, matching the paper's bucket convention.
func (s *System) critComplete(node int, line Addr, t *txn, now sim.Time) {
	home := s.lineHome(line)
	var latRaw, fixed sim.Time
	switch {
	case s.idealNet:
		latRaw = 2 * s.idealOneWay
		fixed = s.cyc(s.par.ReqCycles + s.par.DRAMCycles + s.par.FillCycles)
	case node == home:
		fixed = s.cyc(s.par.LocalMissCycles)
	default:
		hops := sim.Time(s.net.Hops(node, home) + 1)
		latRaw = 2 * hops * s.net.Config().HopLatency
		fixed = s.cyc(s.par.ReqCycles + s.par.HomeOccCycles + s.par.DRAMCycles + s.par.FillCycles)
	}
	split := func(d sim.Time) (lat, bw sim.Time) {
		lat = latRaw
		if lat > d {
			lat = d
		}
		rem := d - lat
		st := fixed
		if st > rem {
			st = rem
		}
		return lat, rem - st
	}
	for _, w := range t.waiters {
		if w.bucket != stats.BucketMemWait {
			continue
		}
		lat, bw := split(now - w.start)
		s.crit.MissWait(node, lat, bw)
	}
	lat, bw := split(now - t.start)
	s.crit.Edge(obs.CritEdge{Kind: "miss", Src: home, Dst: node, Start: t.start, End: now, Lat: lat, BW: bw})
}

// writeback returns a dirty evicted line to its home. gen is the
// ownership generation the evicted copy was granted under.
func (s *System) writeback(node int, line Addr, gen uint64) {
	s.ev.WriteBacks++
	home := s.lineHome(line)
	w := s.newStep(stepWriteback)
	w.home, w.node, w.line, w.gen = home, node, line, gen
	s.sendToCtl(w, node, home, mesh.ClassCohData, s.par.LineBytes, stepWriteback)
}

// writebackAt applies the write-back st at its home controller.
func (s *System) writebackAt(st *step) {
	e := s.nodes[st.home].dir.entry(st.line)
	// A fast re-request (8-byte header) can overtake the slower
	// line-sized write-back packet, so by the time the write-back
	// arrives the evictor may have re-acquired ownership. Clearing
	// the directory then would let a second node be granted
	// Modified concurrently; the write-back is stale exactly when
	// its generation is not the one the directory last granted.
	// (If a re-acquisition is merely in flight, clearing is
	// harmless: the request then finds the line uncached, exactly
	// as if it had been sent after the write-back landed. The
	// generation check keeps this decision home-local: it reads no
	// evictor-side state.)
	if !e.busy && e.state == dirModified && e.owner == st.node &&
		e.modGen == st.gen {
		e.state = dirUncached
		e.sharers = sharerSet{}
		e.owner = -1
	}
}

// CacheHas reports (for tests) whether node's cache or prefetch buffer
// holds addr's line.
func (s *System) CacheHas(node int, a Addr) bool {
	return s.nodes[node].cache.has(LineOf(a, s.par.LineWords))
}

// FlushAll drops every cached line on every node, writing back dirty data
// accounting-free. Used between experiment phases that must start cold.
func (s *System) FlushAll() {
	for _, nm := range s.nodes {
		for i := range nm.cache.lines {
			nm.cache.lines[i].state = lineInvalid
		}
		for i := range nm.cache.pf {
			nm.cache.pf[i].used = false
		}
		nm.dir.entries = make(map[Addr]*dirEntry)
	}
}
