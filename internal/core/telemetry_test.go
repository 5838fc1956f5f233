package core_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/machine"
)

// telemetryConfig is one cheap, instrumentation-heavy run: metrics,
// spans, and protocol trace all enabled.
func telemetryConfig() core.RunConfig {
	cfg := machine.DefaultConfig()
	cfg.Metrics = true
	cfg.SpanCap = 2048
	cfg.TraceCap = 1024
	return core.RunConfig{App: core.EM3D, Mech: apps.MPPoll, Scale: core.ScaleTiny,
		Machine: cfg, SkipValidate: true}
}

// TestTelemetryArtifactsByteIdentical runs the same configuration twice
// on fresh runners writing into fresh directories and requires the
// Perfetto timeline and the metrics snapshot to be byte-identical — the
// observability layer's determinism guarantee. Run under -race via
// `make check` (the runner pool makes the telemetry sinks concurrent).
func TestTelemetryArtifactsByteIdentical(t *testing.T) {
	run := func(dir string) {
		t.Helper()
		r := core.NewRunner(2)
		r.SetTelemetry(&core.Telemetry{TimelineDir: dir})
		if _, err := r.Run(telemetryConfig()); err != nil {
			t.Fatal(err)
		}
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	run(dir1)
	run(dir2)
	names, err := filepath.Glob(filepath.Join(dir1, "*"))
	if err != nil || len(names) != 2 {
		t.Fatalf("expected a timeline and a metrics file in %s, got %v (err %v)", dir1, names, err)
	}
	for _, n := range names {
		a, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, filepath.Base(n)))
		if err != nil {
			t.Fatalf("second run did not produce %s: %v", filepath.Base(n), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between identical runs", filepath.Base(n))
		}
		if len(a) == 0 {
			t.Errorf("%s is empty", filepath.Base(n))
		}
	}
}

// TestRunLogRecordsMemoization drives the same configuration through one
// runner twice and checks the JSONL log: an executed record, then a
// cache-hit record, both naming the same fingerprint.
func TestRunLogRecordsMemoization(t *testing.T) {
	var log bytes.Buffer
	r := core.NewRunner(1)
	r.SetTelemetry(&core.Telemetry{RunLog: &log})
	rc := telemetryConfig()
	for i := 0; i < 2; i++ {
		if _, err := r.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(&log)
	var recs []core.RunRecord
	for dec.More() {
		var rec core.RunRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("run log is not valid JSONL: %v", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Memo != "miss" || recs[1].Memo != "hit" {
		t.Errorf("memo flags = %q, %q; want miss, hit", recs[0].Memo, recs[1].Memo)
	}
	if recs[0].Fingerprint == "" || recs[0].Fingerprint != recs[1].Fingerprint {
		t.Errorf("fingerprints = %q, %q; want equal and nonempty", recs[0].Fingerprint, recs[1].Fingerprint)
	}
	for _, rec := range recs {
		if rec.Outcome != "ok" || rec.App != "em3d" || rec.Mech != "mp-poll" || rec.Scale != "tiny" {
			t.Errorf("bad record %+v", rec)
		}
		if rec.SimCycles <= 0 {
			t.Errorf("record missing sim cycles: %+v", rec)
		}
		if len(rec.HotLinks) == 0 || len(rec.HotLinks) > 3 {
			t.Errorf("hot links = %v, want 1..3 entries", rec.HotLinks)
		}
	}
}

// TestRunLogRecordsStallOutcome checks that a watchdog-stalled run is
// logged as outcome "stall" rather than a bare crash.
func TestRunLogRecordsStallOutcome(t *testing.T) {
	var log bytes.Buffer
	r := core.NewRunner(1)
	r.SetTelemetry(&core.Telemetry{RunLog: &log})
	rc := telemetryConfig()
	// A permanent outage from t=0 on every node starves the run; the
	// liveness watchdog turns that into a structured stall.
	rc.Machine.FaultSpec = "outage:node=*,start=0,dur=1s"
	rc.Machine.FaultSeed = 1
	if _, err := r.Run(rc); err == nil {
		t.Skip("total outage did not stall this workload; nothing to log")
	}
	var rec core.RunRecord
	if err := json.Unmarshal(log.Bytes(), &rec); err != nil {
		t.Fatalf("run log: %v", err)
	}
	if rec.Outcome != "stall" && rec.Outcome != "crash" {
		t.Errorf("outcome = %q, want stall or crash", rec.Outcome)
	}
	if rec.Error == "" {
		t.Error("failed run logged without error detail")
	}
}

// TestInstrumentationIsPassive requires the paper-facing measurements of
// an instrumented run to equal an uninstrumented run's exactly: metrics,
// spans, and tracing observe the simulation without perturbing it, so
// enabling them can never change figure data.
func TestInstrumentationIsPassive(t *testing.T) {
	bare := telemetryConfig()
	bare.Machine.Metrics = false
	bare.Machine.SpanCap = 0
	bare.Machine.TraceCap = 0
	plain, err := core.Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := core.Run(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if instr.Obs == nil || instr.Spans == nil || instr.Trace == nil {
		t.Fatal("instrumented run did not record metrics/spans/trace")
	}
	if !reflect.DeepEqual(plain.Result, instr.Result) {
		t.Errorf("instrumentation perturbed the run:\nplain: %+v\ninstrumented: %+v",
			plain.Result, instr.Result)
	}
}

// TestCritPathNetShareGap pins the Figure S2 finding as a critical-path
// share gap: shared memory's critical path carries substantial network
// round-trip time (the slack that damps an injected delay), while
// message passing's waits are producer synchronization with almost no
// exposed network time, which is why injected delay propagates to MP
// runtime nearly undamped.
func TestCritPathNetShareGap(t *testing.T) {
	netShare := map[apps.Mechanism]float64{}
	for _, mech := range []apps.Mechanism{apps.SM, apps.MPPoll} {
		cfg := machine.DefaultConfig()
		cfg.CritPath = true
		res, err := core.Run(core.RunConfig{App: core.EM3D, Mech: mech, Scale: core.ScaleTiny, Machine: cfg})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		cp := res.CritPath
		if cp == nil {
			t.Fatalf("%s: no critical-path summary", mech)
		}
		if sum := cp.Compute + cp.MemStall + cp.NetLatency + cp.NetBandwidth + cp.Sync; sum != cp.TotalCycles {
			t.Errorf("%s: categories sum to %d of %d total cycles", mech, sum, cp.TotalCycles)
		}
		netShare[mech] = float64(cp.NetLatency+cp.NetBandwidth) / float64(cp.TotalCycles)
	}
	if netShare[apps.SM] <= 2*netShare[apps.MPPoll] {
		t.Errorf("network share of the critical path: SM %.4f vs MP-poll %.4f; expected SM well above MP",
			netShare[apps.SM], netShare[apps.MPPoll])
	}
}
