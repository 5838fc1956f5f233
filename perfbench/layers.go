package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// record is the simulated outcome of one simulation: what the
// correctness gate compares against committed values and across passes.
type record struct {
	ID     string       `json:"id"`
	Cycles int64        `json:"cycles"`
	Volume stats.Volume `json:"volume"`
	Events stats.Events `json:"events"`
}

func recordOf(id string, res machine.Result) record {
	return record{ID: id, Cycles: res.Cycles, Volume: res.Volume, Events: res.Events}
}

// simJob is one simulation issued through the layers' public functions.
type simJob struct {
	id       string
	build    func() (apps.App, error) // generates the workload input
	mech     apps.Mechanism
	cfg      machine.Config
	validate bool
}

// layerCounts is the per-layer work and host time of one or more
// simulations (times in nanoseconds, waits in simulated cycles).
type layerCounts struct {
	genNs, newNs, setupNs, runNs, validateNs int64

	events, switches         uint64
	packets, xpackets, retry int64
	ev                       stats.Events
	missWait, msgWait        int64
	critEdges                int64
}

func (c *layerCounts) add(o layerCounts) {
	c.genNs += o.genNs
	c.newNs += o.newNs
	c.setupNs += o.setupNs
	c.runNs += o.runNs
	c.validateNs += o.validateNs
	c.events += o.events
	c.switches += o.switches
	c.packets += o.packets
	c.xpackets += o.xpackets
	c.retry += o.retry
	c.ev = c.ev.Plus(o.ev)
	c.missWait += o.missWait
	c.msgWait += o.msgWait
	c.critEdges += o.critEdges
}

// outcome is one finished simulation.
type outcome struct {
	rec    record
	res    machine.Result
	m      *machine.Machine
	counts layerCounts
	err    error
}

// waitObserver counts thread switches and blocked simulated time by wait
// reason through the engine's passive span hook.
type waitObserver struct {
	switches          uint64
	missWait, msgWait sim.Time
}

func (w *waitObserver) observe(_ *sim.Thread, start, end sim.Time, blocked bool, reason string, _ int64) {
	w.switches++
	if !blocked {
		return
	}
	switch reason {
	case "mem-miss line":
		w.missWait += end - start
	case "await-message":
		w.msgWait += end - start
	}
}

// simulate runs one job: generate the input, build the machine, set the
// application up, run it and (when asked) validate it, timing each
// phase. With a tracer it also records a run span with one child span
// per phase under parent and counts the run's layer work. A crash is
// recovered into the outcome's error, as core.Runner does.
func simulate(tr *tracer, parent int, j simJob) (o outcome) {
	run := tr.begin(parent, "run", j.id)
	defer tr.end(run)
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("%s: crashed: %v", j.id, r)
		}
	}()
	phase := func(name string, fn func()) int64 {
		id := tr.begin(run, name, "")
		start := time.Now()
		fn()
		d := time.Since(start).Nanoseconds()
		tr.end(id)
		return d
	}
	c := &o.counts
	var (
		a   apps.App
		m   *machine.Machine
		res machine.Result
		err error
	)
	c.genNs = phase("workload.gen", func() { a, err = j.build() })
	if err != nil {
		o.err = fmt.Errorf("%s: %w", j.id, err)
		return o
	}
	c.newNs = phase("machine.new", func() { m = machine.New(j.cfg) })
	var w waitObserver
	if tr != nil {
		m.Eng.SetSpanObserver(w.observe)
	}
	c.setupNs = phase("apps.setup", func() { a.Setup(m, j.mech) })
	c.runNs = phase("machine.run", func() { res = m.Run(a.Body) })
	if j.validate {
		c.validateNs = phase("apps.validate", func() { err = a.Validate() })
		if err != nil {
			o.err = fmt.Errorf("%s: %w", j.id, err)
			return o
		}
	}
	o.rec, o.res, o.m = recordOf(j.id, res), res, m
	if tr != nil {
		c.events = m.Eng.Dispatched()
		c.switches = w.switches
		c.packets = m.Net.PacketsSent()
		c.xpackets, _ = m.Net.CrossTrafficStats()
		c.retry = m.Net.Retries()
		c.ev = res.Events
		c.missWait = m.Clk.ToCycles(w.missWait)
		c.msgWait = m.Clk.ToCycles(w.msgWait)
		if m.Crit != nil {
			c.critEdges = m.Crit.EdgesTotal()
		}
	}
	return o
}

// totalNs is the host time of every phase.
func (c layerCounts) totalNs() int64 {
	return c.genNs + c.newNs + c.setupNs + c.runNs + c.validateNs
}

// pool runs jobs closed-loop on n workers: each job starts when a worker
// frees up. Outcomes come back in job order.
func pool(n int, jobs []simJob, fn func(simJob) outcome) []outcome {
	out := make([]outcome, len(jobs))
	if n > len(jobs) {
		n = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = fn(jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}
