package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("alewife-sim: ")

	appName := flag.String("app", "em3d", "application: em3d, unstruc, iccg, moldyn")
	mechName := flag.String("mech", "sm", "mechanism: sm, sm+pf, mp-int, mp-poll, bulk")
	scaleName := flag.String("scale", "default", "workload scale: tiny, sweep, default, full")
	clock := flag.Float64("clock", 20, "processor clock in MHz (the network is asynchronous)")
	cross := flag.Float64("cross", 0, "cross-traffic rate in bytes/cycle (bisection emulation)")
	xmsg := flag.Int("xmsg", 64, "cross-traffic message size in bytes")
	idealLat := flag.Int64("ideal-lat", 0, "if nonzero, uniform one-way latency in cycles (ideal network)")
	validate := flag.Bool("validate", true, "check the result against the sequential reference")
	traceN := flag.Int("trace", 0, "dump the last N protocol/message events after the run")
	flag.Parse()

	mech, err := parseMech(*mechName)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := core.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := machine.DefaultConfig()
	cfg.ClockMHz = *clock
	cfg.IdealNetOneWayCycles = *idealLat
	cfg.TraceCap = *traceN
	if *cross > 0 {
		cfg.CrossTraffic = mesh.CrossTraffic{MsgBytes: *xmsg, BytesPerCycle: *cross}
	}

	res, err := core.Run(core.RunConfig{
		App: core.AppName(*appName), Mech: mech, Scale: sc,
		Machine: cfg, SkipValidate: !*validate,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s / %s on %d-node machine @ %.0f MHz (scale %s)\n",
		res.App, res.Mech, cfg.Nodes(), cfg.ClockMHz, sc)
	fmt.Printf("runtime: %d processor cycles (%v)\n", res.Cycles, res.Time)
	fmt.Printf("bisection: native %.1f bytes/cycle, emulated %.1f\n",
		res.Bisection, res.EmulatedBisection)

	clk := sim.NewClock(cfg.ClockMHz)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ntime breakdown\tcycles (sum over processors)\tshare")
	bd := res.Breakdown
	for b := stats.BucketSync; b <= stats.BucketCompute; b++ {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\n", b, clk.ToCycles(bd.T[b]), 100*bd.Frac(b))
	}
	v := res.Volume
	fmt.Fprintln(tw, "\ncommunication volume\tbytes\t")
	fmt.Fprintf(tw, "invalidates\t%d\t\n", v.Bytes[stats.VolInvalidates])
	fmt.Fprintf(tw, "requests\t%d\t\n", v.Bytes[stats.VolRequests])
	fmt.Fprintf(tw, "headers\t%d\t\n", v.Bytes[stats.VolHeaders])
	fmt.Fprintf(tw, "data\t%d\t\n", v.Bytes[stats.VolData])
	fmt.Fprintf(tw, "total\t%d\t\n", v.Total())
	ev := res.Events
	fmt.Fprintln(tw, "\nevents\tcount\t")
	fmt.Fprintf(tw, "remote misses (clean/dirty)\t%d/%d\t\n", ev.RemoteMissesCln, ev.RemoteMissesDty)
	fmt.Fprintf(tw, "local misses\t%d\t\n", ev.LocalMisses)
	fmt.Fprintf(tw, "invalidations\t%d\t\n", ev.Invalidations)
	fmt.Fprintf(tw, "LimitLESS traps\t%d\t\n", ev.LimitLESSTraps)
	fmt.Fprintf(tw, "messages sent/received\t%d/%d\t\n", ev.MessagesSent, ev.MessagesRecv)
	fmt.Fprintf(tw, "interrupts / polls (hits)\t%d / %d (%d)\t\n", ev.Interrupts, ev.Polls, ev.PollHits)
	fmt.Fprintf(tw, "bulk transfers (payload bytes)\t%d (%d)\t\n", ev.BulkTransfers, ev.BulkBytes)
	fmt.Fprintf(tw, "prefetches issued/useful/useless\t%d/%d/%d\t\n",
		ev.PrefetchIssued, ev.PrefetchUseful, ev.PrefetchUseless)
	fmt.Fprintf(tw, "lock acquires (spins)\t%d (%d)\t\n", ev.LockAcquires, ev.LockSpins)
	fmt.Fprintf(tw, "barrier arrivals\t%d\t\n", ev.BarrierArrivals)
	tw.Flush()
	if res.Trace != nil {
		fmt.Printf("\nlast %d trace events (of %d recorded):\n",
			len(res.Trace.Events()), res.Trace.Total())
		res.Trace.Dump(os.Stdout, clk)
	}
	if *validate {
		fmt.Println("\nresult validated against sequential reference")
	}
}

func parseMech(s string) (apps.Mechanism, error) {
	switch s {
	case "sm", "shared-memory":
		return apps.SM, nil
	case "sm+pf", "sm-prefetch", "prefetch":
		return apps.SMPrefetch, nil
	case "mp-int", "mp-interrupt", "interrupt":
		return apps.MPInterrupt, nil
	case "mp-poll", "poll":
		return apps.MPPoll, nil
	case "bulk", "bulk-dma", "dma":
		return apps.Bulk, nil
	}
	return 0, fmt.Errorf("unknown mechanism %q", s)
}
