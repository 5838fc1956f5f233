package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Telemetry is the runner's host-side observability sink: a JSONL run
// log, a throttled progress heartbeat, per-run Perfetto timelines and
// metrics snapshots, and text trace dumps. All fields are optional;
// leave one nil/empty to disable that sink. Attach with
// Runner.SetTelemetry before starting sweeps.
//
// Host/sim split: this file is deliberately outside the simulator-facing
// packages — it observes the host wall clock (run durations, heartbeat
// throttling), which simlint's wallclock check bans inside the
// simulation. Nothing here feeds back into simulated state; the
// simulation-side data it serializes (timelines, metrics snapshots) is a
// deterministic function of the RunConfig, so those files are
// byte-identical across runs. The run log is not (it records wall time).
type Telemetry struct {
	// RunLog receives one JSON line per Runner.Run call (cache hits
	// included, marked memo=hit).
	RunLog io.Writer
	// Heartbeat receives throttled one-line progress reports.
	Heartbeat io.Writer
	// TimelineDir, when nonempty, receives <run>.json Perfetto timelines
	// and <run>.metrics.txt registry snapshots for every executed run
	// that recorded them (see machine.Config.Metrics/SpanCap/TraceCap).
	TimelineDir string
	// TraceOut receives a text dump of every executed run's trace.Buffer
	// (see machine.Config.TraceCap), delimited by header lines.
	TraceOut io.Writer

	mu       sync.Mutex
	enc      *json.Encoder
	done     int
	hits     int
	fails    int
	lastBeat time.Time
}

// RunRecord is one sweep run's log entry, serialized as a JSON line.
type RunRecord struct {
	Fingerprint string  `json:"fingerprint"`          // canonical RunConfig hash
	App         string  `json:"app"`                  // application name
	Mech        string  `json:"mech"`                 // communication mechanism
	Scale       string  `json:"scale"`                // workload scale
	Memo        string  `json:"memo"`                 // "hit" or "miss"
	WallMS      float64 `json:"wall_ms"`              // host time spent (≈0 for hits)
	SimCycles   int64   `json:"sim_cycles,omitempty"` // completion time, processor cycles
	FaultSpec   string  `json:"fault_spec,omitempty"` // canonical fault injection spec
	NoiseSpec   string  `json:"noise_spec,omitempty"` // canonical stochastic noise spec
	NoiseSeed   uint64  `json:"noise_seed,omitempty"` // noise stream seed (meaningful with noise_spec)

	// Per-run noise accounting (omitted when no noise was injected).
	NoiseSamples    int64 `json:"noise_samples,omitempty"`     // stochastic draws that injected time
	NoiseInjectedPs int64 `json:"noise_injected_ps,omitempty"` // total simulated time injected, ps

	Outcome  string   `json:"outcome"`             // "ok", "stall", or "crash"
	Error    string   `json:"error,omitempty"`     // failure detail
	HotLinks []string `json:"hot_links,omitempty"` // top-3 mesh links by bytes (+ machine-wide p99 hop wait when metrics ran)

	// Crit is the critical-path summary (omitted unless the run was
	// profiled with machine.Config.CritPath).
	Crit *CritRecord `json:"crit,omitempty"`
}

// CritRecord is the runlog's critical-path summary: category cycles
// summing to total_cycles, plus the longest recorded causal edges
// rendered "kind src->dst [start,end)cyc lat=N bw=N".
type CritRecord struct {
	Node     int      `json:"node"`
	Total    int64    `json:"total_cycles"`
	Compute  int64    `json:"compute"`
	MemStall int64    `json:"mem_stall"`
	NetLat   int64    `json:"net_latency"`
	NetBW    int64    `json:"net_bandwidth"`
	Sync     int64    `json:"sync"`
	TopEdges []string `json:"top_edges,omitempty"`
}

// FingerprintLabel returns a stable 16-hex-digit hash of rc's canonical
// fingerprint: the same configuration always maps to the same label, and
// it names the run's telemetry files and log records.
func FingerprintLabel(rc RunConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", fingerprint(rc))
	return fmt.Sprintf("%016x", h.Sum64())
}

// runName builds the telemetry file stem for one run.
func runName(rc RunConfig) string {
	return fmt.Sprintf("%s_%s_%s", rc.App, rc.Mech, FingerprintLabel(rc))
}

// observe records one completed Runner.Run call. memo marks cache hits.
func (t *Telemetry) observe(rc RunConfig, res RunResult, err error, wall time.Duration, memo bool) {
	if t == nil {
		return
	}
	if !memo && err == nil {
		t.writeArtifacts(rc, res)
	}
	rec := RunRecord{
		Fingerprint: FingerprintLabel(rc),
		App:         string(rc.App),
		Mech:        rc.Mech.String(),
		Scale:       rc.Scale.String(),
		Memo:        "miss",
		WallMS:      float64(wall.Microseconds()) / 1000,
		FaultSpec:   rc.Machine.FaultSpec,
		NoiseSpec:   rc.Machine.NoiseSpec,
		Outcome:     "ok",
	}
	if rc.Machine.NoiseSpec != "" {
		rec.NoiseSeed = rc.Machine.NoiseSeed
	}
	if memo {
		rec.Memo = "hit"
	}
	switch {
	case err == nil:
		rec.SimCycles = res.Cycles
		rec.NoiseSamples = res.Noise.Samples()
		rec.NoiseInjectedPs = res.Noise.InjectedPs()
		p99 := ""
		if res.Obs != nil {
			if h := res.Obs.FindHistogram("mesh_hop_wait_ps", ""); h != nil {
				p99 = fmt.Sprintf(" p99wait=%dps", h.P99())
			}
		}
		for _, l := range res.Links {
			rec.HotLinks = append(rec.HotLinks,
				fmt.Sprintf("%s(%d<->%d) bytes=%d util=%.3f%s", l.Link, l.A, l.B, l.Bytes, l.Utilization, p99))
		}
		if cp := res.CritPath; cp != nil {
			cr := &CritRecord{
				Node: cp.Node, Total: cp.TotalCycles,
				Compute: cp.Compute, MemStall: cp.MemStall,
				NetLat: cp.NetLatency, NetBW: cp.NetBandwidth, Sync: cp.Sync,
			}
			for _, e := range cp.TopEdges {
				cr.TopEdges = append(cr.TopEdges, fmt.Sprintf("%s %d->%d [%d,%d)cyc lat=%d bw=%d",
					e.Kind, e.Src, e.Dst, e.StartCycles, e.EndCycles, e.LatCycles, e.BWCycles))
			}
			rec.Crit = cr
		}
	default:
		rec.Outcome = "crash"
		rec.Error = err.Error()
		if re, ok := err.(*RunError); ok && re.Stall != nil {
			rec.Outcome = "stall"
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if memo {
		t.hits++
	}
	if err != nil {
		t.fails++
	}
	if t.RunLog != nil {
		if t.enc == nil {
			t.enc = json.NewEncoder(t.RunLog)
		}
		t.enc.Encode(&rec) // best-effort: a full disk must not kill the sweep
	}
	if t.Heartbeat != nil {
		// Throttle to ~2 lines/second so huge sweeps stay readable.
		if now := time.Now(); now.Sub(t.lastBeat) >= 500*time.Millisecond {
			t.lastBeat = now
			fmt.Fprintf(t.Heartbeat, "telemetry: %d runs done (%d cache hits, %d failed), last %s/%s %s\n",
				t.done, t.hits, t.fails, rec.App, rec.Mech, rec.Outcome)
		}
	}
}

// writeArtifacts emits the per-run timeline, metrics snapshot, and trace
// dump for an executed (non-memoized) successful run. Single-flight
// execution guarantees each configuration writes its files exactly once;
// the contents are a deterministic function of the RunConfig.
func (t *Telemetry) writeArtifacts(rc RunConfig, res RunResult) {
	clk := sim.NewClock(rc.Machine.ClockMHz)
	name := runName(rc)
	if t.TimelineDir != "" && (res.Spans != nil || res.Trace != nil || res.Crit != nil) {
		var spans []obs.Span
		var events []trace.Event
		var edges []obs.CritEdge
		if res.Spans != nil {
			spans = res.Spans.Spans()
		}
		if res.Trace != nil {
			events = res.Trace.Events()
		}
		if res.Crit != nil {
			edges = res.Crit.Edges()
		}
		t.toFile(filepath.Join(t.TimelineDir, name+".json"), func(w io.Writer) error {
			return obs.WriteTimeline(w, clk, spans, events, edges)
		})
	}
	if t.TimelineDir != "" && res.Obs != nil {
		t.toFile(filepath.Join(t.TimelineDir, name+".metrics.txt"), func(w io.Writer) error {
			return res.Obs.WriteText(w)
		})
	}
	if t.TraceOut != nil && res.Trace != nil {
		t.mu.Lock()
		fmt.Fprintf(t.TraceOut, "== trace %s (%d events, %d retained) ==\n",
			name, res.Trace.Total(), len(res.Trace.Events()))
		res.Trace.Dump(t.TraceOut, clk)
		t.mu.Unlock()
	}
}

// toFile writes one telemetry artifact, reporting failures to stderr
// rather than failing the sweep (telemetry must never break science).
func (t *Telemetry) toFile(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		return
	}
	werr := fn(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %s: %v\n", path, werr)
	}
}
