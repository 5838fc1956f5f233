package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
)

// expectedJSON holds the default seed's simulated statistics at sweep
// scale, per workload and simulation id. Regenerate with
// -write-expected after a deliberate change to simulated behaviour.
//
//go:embed expected.json
var expectedJSON []byte

// maxReported bounds how many failure descriptions a run prints.
const maxReported = 20

func loadExpected() (map[string]map[string]record, error) {
	var all map[string]map[string]record
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected statistics: %w", err)
	}
	return all, nil
}

// gate is the correctness check of one invocation. A simulation fails
// when it crashed or failed Validate, when its statistics differ from
// the committed value for its id, or when they differ from the same id
// earlier in the run: every simulation is a pure function of its
// configuration, so repeated, traced and instrumented runs of one
// configuration must agree.
type gate struct {
	want  map[string]record // nil when no committed values apply
	first map[string]record

	attempted, failed int
	failures          []string
}

func (g *gate) fail(msg string) {
	g.failed++
	if len(g.failures) < maxReported {
		g.failures = append(g.failures, msg)
	}
}

// check counts one pass's simulations and their failures.
func (g *gate) check(out passOut) {
	if g.first == nil {
		g.first = make(map[string]record)
	}
	g.attempted += out.sims
	for _, f := range out.failures {
		g.fail(f)
	}
	for _, r := range out.records {
		if w, ok := g.want[r.ID]; ok && w != r {
			g.fail(fmt.Sprintf("%s: %d cycles, %d bytes; committed %d cycles, %d bytes (or events differ)",
				r.ID, r.Cycles, r.Volume.Total(), w.Cycles, w.Volume.Total()))
			continue
		}
		f, ok := g.first[r.ID]
		if !ok {
			g.first[r.ID] = r
			continue
		}
		if f != r {
			g.fail(fmt.Sprintf("%s: %d cycles, %d bytes; earlier in this run %d cycles, %d bytes (or events differ)",
				r.ID, r.Cycles, r.Volume.Total(), f.Cycles, f.Volume.Total()))
		}
	}
}

// expectedFile is where -write-expected writes, relative to the
// repository root run.sh starts from.
const expectedFile = "perfbench/expected.json"

// regenerateExpected runs one pass of every workload at the default seed
// and sweep scale and writes the statistics to expectedFile.
func regenerateExpected(workers int) error {
	all := make(map[string]map[string]record)
	in := inputs{seed: defaultSeed, scale: core.ScaleSweep, workers: workers}
	for name, wl := range workloads {
		out, err := wl.pass(in)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(out.failures) > 0 {
			return fmt.Errorf("%s: %d failed simulations, first: %s", name, len(out.failures), out.failures[0])
		}
		recs := make(map[string]record, len(out.records))
		for _, r := range out.records {
			recs[r.ID] = r
		}
		all[name] = recs
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(b, '\n'), 0o644)
}
