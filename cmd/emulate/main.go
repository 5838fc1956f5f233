package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machines"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emulate: ")
	appName := flag.String("app", "em3d", "application: em3d, unstruc, iccg, moldyn")
	scaleName := flag.String("scale", "sweep", "workload scale")
	flag.Parse()

	sc, err := core.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on emulated Table 1 machines (32 nodes each; runtimes in processor cycles)\n\n", *appName)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\ttopology\tSM\tMP-poll\tSM/MP\tnote")
	for _, m := range machines.EmulatableMachines() {
		cfg, note, err := machines.ConfigFor(m)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t%v\n", m.Name, err)
			continue
		}
		mp, err := core.Run(core.RunConfig{App: core.AppName(*appName), Mech: apps.MPPoll,
			Scale: sc, Machine: cfg, SkipValidate: true})
		if err != nil {
			log.Fatal(err)
		}
		smText := "n/a"
		ratioText := "-"
		if note.SharedMemory {
			sm, err := core.Run(core.RunConfig{App: core.AppName(*appName), Mech: apps.SM,
				Scale: sc, Machine: cfg, SkipValidate: true})
			if err != nil {
				log.Fatal(err)
			}
			smText = fmt.Sprintf("%d", sm.Cycles)
			ratioText = fmt.Sprintf("%.2f", float64(sm.Cycles)/float64(mp.Cycles))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\n",
			m.Name, note.Topology, smText, mp.Cycles, ratioText, note.Comment)
	}
	tw.Flush()
	fmt.Println("\nShared-memory columns are shown only for machines that support it in")
	fmt.Println("Table 1. Topologies are approximated on a 32-node grid with matched")
	fmt.Println("bisection bandwidth and network latency (the paper's two parameters).")
}
