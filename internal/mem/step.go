package mem

import (
	"repro/internal/mesh"
	"repro/internal/sim"
)

// stepKind says what a step does when it runs.
type stepKind uint8

const (
	stepArrive    stepKind = iota // delivered: pass through st.ctl's controller, then run as st.next
	stepReqSend                   // at the requester after the issue cost: send the request home
	stepDispatch                  // request at home's controller: homeDispatch
	stepProcess                   // queued request handed the entry by release: homeProcess
	stepServeHome                 // dirty in home's cache, deferred behind home's own write fill
	stepFetch                     // fetch at the owner's controller: ownerFetch
	stepFetchNow                  // fetch deferred behind the owner's own write fill
	stepFetchDone                 // owner's data at home's controller: new state, grant, release
	stepInval                     // invalidation at a sharer's controller: invalidate, ack
	stepInvalLate                 // invalidation deferred behind the sharer's granted read fill
	stepInvalAck                  // ack at home's controller: the last one grants and releases
	stepUpdate                    // update at a sharer's controller: ack it
	stepUpdateAck                 // update ack at home's controller: the last one grants and releases
	stepReply                     // DRAM access done at home: send the data reply
	stepFill                      // reply at the requester: fill after FillCycles
	stepComplete                  // fill done: completeTxn
	stepWriteback                 // write-back at home's controller: clear the entry unless stale
	stepApply                     // a waiting access's effect on the store, run by completeTxn
	stepRCApply                   // a buffered RC store's completion, run by completeTxn
)

// step is one in-flight protocol message or deferred protocol action: a
// request on its way to and through the home directory, one sharer's leg
// of an invalidation or update round, an owner fetch, a data reply, a
// write-back, or an access effect waiting for a fill. Steps are pooled on
// the System; run and pkt.Deliver are bound once when a record is first
// made, so scheduling, queueing or sending a step allocates nothing.
//
// Every handler either passes its step on (schedules it, sends it, or
// queues it on a directory entry or a transaction) or frees it.
type step struct {
	s   *System
	run func()      // st.exec
	pkt mesh.Packet // the step as a network message; Deliver runs st.exec

	kind stepKind
	next stepKind // stepArrive: the kind run after the controller
	ctl  int      // stepArrive: the node whose controller the message passes

	t     *txn      // the requester's transaction
	e     *dirEntry // the home entry the step is served from
	home  int
	node  int // the sharer, owner, evicting or storing node the step acts at
	line  Addr
	state lineState // stepReply, stepFill, stepComplete: the requester's fill state
	gen   uint64    // stepWriteback: the evicted copy's ownership generation

	addr Addr    // stepApply, stepRCApply: the word written
	op   applyOp // stepApply
}

// applyOp is what an access does to the store once its line is held:
// nothing (a load), write v (StoreWord), or call fn (RMW, Update).
type applyOp struct {
	store bool
	v     float64
	fn    func()
}

// apply runs op against word a.
func (s *System) apply(a Addr, op applyOp) {
	switch {
	case op.store:
		s.store.Poke(a, op.v)
	case op.fn != nil:
		op.fn()
	}
}

// newStep takes a step from the free list, or makes one.
func (s *System) newStep(kind stepKind) *step {
	var st *step
	if n := len(s.freeSteps); n > 0 {
		st = s.freeSteps[n-1]
		s.freeSteps[n-1] = nil
		s.freeSteps = s.freeSteps[:n-1]
	} else {
		st = &step{s: s}
		st.run = st.exec
		st.pkt.Deliver = st.deliver
	}
	st.kind = kind
	return st
}

// freeStep returns st to the free list, dropping its references.
func (s *System) freeStep(st *step) {
	*st = step{s: s, run: st.run, pkt: mesh.Packet{Deliver: st.pkt.Deliver}}
	s.freeSteps = append(s.freeSteps, st)
}

// newTxn takes a transaction from the free list, or makes one.
func (s *System) newTxn() *txn {
	if n := len(s.freeTxns); n > 0 {
		t := s.freeTxns[n-1]
		s.freeTxns[n-1] = nil
		s.freeTxns = s.freeTxns[:n-1]
		return t
	}
	return &txn{}
}

// freeTxn returns a completed t to the free list, keeping its slices'
// backing arrays for the next transaction.
func (s *System) freeTxn(t *txn) {
	clear(t.waiters)
	clear(t.onComplete)
	*t = txn{waiters: t.waiters[:0], onComplete: t.onComplete[:0]}
	s.freeTxns = append(s.freeTxns, t)
}

// sendCoh moves st from src to dst as a protocol message and runs it at
// arrival. Local (src==dst) messages bypass the network; ideal-network
// mode replaces transit with the fixed one-way latency.
func (s *System) sendCoh(st *step, src, dst int, class mesh.Class, payloadBytes int) {
	switch {
	case src == dst:
		s.eng.After(0, st.run)
	case s.idealNet:
		s.eng.After(s.idealOneWay, st.run)
	default:
		p := &st.pkt
		p.Src, p.Dst, p.Class = src, dst, class
		p.HdrBytes, p.PayloadBytes = s.par.HdrBytes, payloadBytes
		s.net.Send(p)
	}
}

// sendToCtl sends st from src to dst, where it passes through dst's
// controller and then runs as next.
func (s *System) sendToCtl(st *step, src, dst int, class mesh.Class, payloadBytes int, next stepKind) {
	st.kind, st.next, st.ctl = stepArrive, next, dst
	s.sendCoh(st, src, dst, class, payloadBytes)
}

func (st *step) deliver(sim.Time, *mesh.Packet) { st.exec() }

// exec runs the step's action.
func (st *step) exec() {
	s := st.s
	switch st.kind {
	case stepArrive:
		st.kind = st.next
		s.atCtl(st.ctl, st.run)
	case stepReqSend:
		s.sendToCtl(st, st.t.node, st.home, mesh.ClassCohReq, 0, stepDispatch)
	case stepDispatch:
		s.homeDispatch(st)
	case stepProcess:
		s.homeProcess(st, st.e)
	case stepServeHome:
		s.serveHomeDirty(st, st.e)
	case stepFetch:
		s.ownerFetch(st)
	case stepFetchNow:
		s.ownerFetchNow(st)
	case stepFetchDone:
		s.fetchDone(st)
	case stepInval:
		s.invalidateAt(st)
	case stepInvalLate:
		s.nodes[st.node].cache.invalidate(st.line)
		s.sendToCtl(st, st.node, st.home, mesh.ClassCohInval, 0, stepInvalAck)
	case stepInvalAck:
		s.invalAck(st)
	case stepUpdate:
		s.sendToCtl(st, st.node, st.home, mesh.ClassCohAck, 0, stepUpdateAck)
	case stepUpdateAck:
		s.updateAck(st)
	case stepReply:
		st.kind = stepFill
		s.sendCoh(st, st.home, st.t.node, mesh.ClassCohData, s.par.LineBytes)
	case stepFill:
		st.kind = stepComplete
		s.eng.After(s.cyc(s.par.FillCycles), st.run)
	case stepComplete:
		s.completeTxn(st.t, st.state)
		s.freeStep(st)
	case stepWriteback:
		s.writebackAt(st)
		s.freeStep(st)
	case stepApply:
		s.apply(st.addr, st.op)
		s.freeStep(st)
	case stepRCApply:
		s.rcApply(st.node, st.addr)
		s.freeStep(st)
	}
}
