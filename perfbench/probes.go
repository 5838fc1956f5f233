package main

import (
	"fmt"
	"time"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mesh"
	"repro/internal/predict"
	"repro/internal/sim"
)

// Layer probes: small host-cost loops through each layer's public
// functions, the paper's Figure 3 unit costs re-expressed as host time.
// Each probe reports the median over probeReps repetitions of its loop,
// in host nanoseconds (microseconds for the predictor) per unit.

const probeReps = 5

// probeMedian runs fn probeReps times; fn returns the host time of n
// units.
func probeMedian(fn func() (time.Duration, int)) float64 {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		d, n := fn()
		xs = append(xs, float64(d.Nanoseconds())/float64(n))
	}
	return median(xs)
}

// probeEventNs is one Engine.After self-rescheduling event.
func probeEventNs() (time.Duration, int) {
	const n = 1_000_000
	eng := sim.NewEngine()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.After(1, tick)
		}
	}
	eng.After(1, tick)
	start := time.Now()
	eng.Run()
	return time.Since(start), n
}

// probeSwitchNs is one Thread.Sleep round trip: a switch from the engine
// into the thread and back.
func probeSwitchNs() (time.Duration, int) {
	const n = 50_000
	eng := sim.NewEngine()
	eng.Spawn("probe", 0, func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			th.Sleep(1)
		}
	})
	start := time.Now()
	eng.Run()
	return time.Since(start), n
}

// probePacketNs is one 24-byte packet sent from src to dst on a fresh
// 8x4 mesh with accept-all endpoints, spaced so no packet queues behind
// the previous one; it covers routing, link reservation and delivery.
func probePacketNs(src, dst int) func() (time.Duration, int) {
	return func() (time.Duration, int) {
		const n = 50_000
		cfg := machine.DefaultConfig()
		eng := sim.NewEngine()
		net := mesh.New(eng, mesh.Config{Width: cfg.Width, Height: cfg.Height, HopLatency: cfg.HopLatency, PsPerByte: cfg.PsPerByte})
		for i := 0; i < net.Nodes(); i++ {
			net.Attach(i, mesh.AcceptAll{})
		}
		gap := 100 * sim.Nanosecond * sim.Time(net.Hops(src, dst)+24)
		left := n
		var send func()
		send = func() {
			net.Send(&mesh.Packet{Src: src, Dst: dst, Class: mesh.ClassCohReq, HdrBytes: 8, PayloadBytes: 16})
			if left--; left > 0 {
				eng.After(gap, send)
			}
		}
		eng.After(0, send)
		start := time.Now()
		eng.Run()
		return time.Since(start), n
	}
}

// probeRemoteMissNs is one remote clean read from a home four hops away
// (Figure 3: 38-42 cycles), timed inside the reading processor.
func probeRemoteMissNs() (time.Duration, int) {
	const n = 2048 // distinct lines, within one node's 4096-line cache
	const home = 4
	m := machine.New(machine.DefaultConfig())
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = m.Alloc(home, 2)
	}
	var d time.Duration
	m.Run(func(p *machine.Proc) {
		if p.ID != 0 {
			return
		}
		start := time.Now()
		for _, a := range addrs {
			p.Read(a)
		}
		d = time.Since(start)
	})
	return d, n
}

// probeLimitLESSNs is one read of a line whose sharers overflow the
// hardware directory pointers, so the home extends the directory in
// software (Figure 3: 425 cycles). Six other processors share each line
// first; the timed reader is the seventh.
func probeLimitLESSNs() (time.Duration, int) {
	const n = 512
	const home = 4
	m := machine.New(machine.DefaultConfig())
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = m.Alloc(home, 2)
	}
	var d time.Duration
	m.Run(func(p *machine.Proc) {
		switch {
		case p.ID >= 16 && p.ID < 22:
			for _, a := range addrs {
				p.Read(a)
			}
		case p.ID == 0:
			p.Compute(2_000_000) // the sharers are in place by now
			start := time.Now()
			for _, a := range addrs {
				p.Read(a)
			}
			d = time.Since(start)
		}
	})
	return d, n
}

// probeNullMsgNs is one null active message between nodes four hops
// apart under interrupt reception (Figure 3: 102 cycles), from the
// sender's first send to the receiver's last handler.
func probeNullMsgNs() (time.Duration, int) {
	const n = 20_000
	m := machine.New(machine.DefaultConfig())
	handled := 0
	h := m.AM.Register(func(*am.Ctx, []int64, []float64) { handled++ })
	var start time.Time
	var d time.Duration
	m.Run(func(p *machine.Proc) {
		switch p.ID {
		case 0:
			start = time.Now()
			for i := 0; i < n; i++ {
				p.Send(4, h, nil, nil)
			}
		case 4:
			for handled < n {
				p.WaitAndHandle()
			}
			d = time.Since(start)
		}
	})
	return d, n
}

// memoHitProbe returns a probe of one core.Runner.Run served from the
// memo, after the one execution that fills it.
func memoHitProbe(sc core.Scale) (func() (time.Duration, int), error) {
	r := core.NewRunner(1)
	rc := core.RunConfig{App: core.EM3D, Mech: apps.MPPoll, Scale: sc, Machine: machine.DefaultConfig(), SkipValidate: true}
	if _, err := r.Run(rc); err != nil {
		return nil, err
	}
	return func() (time.Duration, int) {
		const n = 100_000
		start := time.Now()
		for i := 0; i < n; i++ {
			r.Run(rc)
		}
		return time.Since(start), n
	}, nil
}

// solveProbe returns a probe of one predict.Solve on latency_predict's
// first base model: em3d under shared memory on the ideal network at the
// grid's first latency.
func solveProbe(sc core.Scale) (func() (time.Duration, int), error) {
	cfg := machine.DefaultConfig()
	cfg.IdealNetOneWayCycles = oneWayLatencies(defaultSeed)[0]
	cfg.CritPath, cfg.CritEdgeCap = true, core.DefaultPredictEdgeCap
	o := simulate(nil, 0, simJob{
		id: "probe", mech: apps.SM, cfg: cfg,
		build: func() (apps.App, error) { return core.NewApp(core.EM3D, sc) },
	})
	if o.err != nil {
		return nil, o.err
	}
	model, err := buildModel(cfg, o)
	if err != nil {
		return nil, err
	}
	return func() (time.Duration, int) {
		const n = 20
		start := time.Now()
		for i := 0; i < n; i++ {
			model.Solve(predict.Point{LatScale: 1 + float64(i)/4, BWScale: 1})
		}
		return time.Since(start), n
	}, nil
}

// runProbes measures every layer probe, one span each.
func runProbes(tr *tracer, sc core.Scale) (map[string]float64, error) {
	solve, err := solveProbe(sc)
	if err != nil {
		return nil, fmt.Errorf("predict probe: %w", err)
	}
	memoHit, err := memoHitProbe(sc)
	if err != nil {
		return nil, fmt.Errorf("memo probe: %w", err)
	}
	cfg := machine.DefaultConfig()
	out := make(map[string]float64)
	probe := func(name string, div float64, fn func() (time.Duration, int)) {
		id := tr.begin(0, "probe", name)
		out[name] = probeMedian(fn) / div
		tr.end(id)
	}
	probe("sim.event_ns", 1, probeEventNs)
	probe("sim.switch_ns", 1, probeSwitchNs)
	probe("mesh.packet_1hop_ns", 1, probePacketNs(0, 1))
	probe("mesh.packet_bisection_ns", 1, probePacketNs(0, cfg.Width-1))
	probe("mem.remote_miss_ns", 1, probeRemoteMissNs)
	probe("mem.limitless_read_ns", 1, probeLimitLESSNs)
	probe("am.null_msg_ns", 1, probeNullMsgNs)
	probe("core.memo_hit_ns", 1, memoHit)
	probe("predict.solve_probe_us", 1000, solve)
	return out, nil
}
