package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestHistogramPowerOfTwoBuckets(t *testing.T) {
	var h obs.Histogram
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41},
	}
	for _, c := range cases {
		before := h.Bucket(c.bucket)
		h.Observe(c.v)
		if h.Bucket(c.bucket) != before+1 {
			t.Errorf("Observe(%d) did not land in bucket %d", c.v, c.bucket)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	if h.Max() != 1<<40 {
		t.Errorf("max = %d, want %d", h.Max(), int64(1)<<40)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("x_total", obs.NodeLabel(3))
	b := r.Counter("x_total", obs.NodeLabel(3))
	if a != b {
		t.Error("re-registering the same (name, label) returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("aliased counters diverged")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r := obs.NewRegistry()
	r.Counter("x", "")
	r.Gauge("x", "")
}

func TestWriteTextSortedAndFormatted(t *testing.T) {
	r := obs.NewRegistry()
	// Register deliberately out of name/label order; the snapshot must
	// sort regardless of registration order.
	r.Gauge("z_depth", "").Set(7)
	r.Counter("a_total", obs.NodeLabel(10)).Add(2)
	r.Counter("a_total", obs.NodeLabel(2)).Add(1)
	h := r.Histogram("m_lat", "")
	h.Observe(3)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a_total{node=002} 1\n" +
		"a_total{node=010} 2\n" +
		"m_lat hist count=2 sum=103 max=100 b2=1 b7=1\n" +
		"z_depth 7\n"
	if buf.String() != want {
		t.Errorf("snapshot mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

func TestNodeLabelZeroPadsForSortOrder(t *testing.T) {
	if got := obs.NodeLabel(5); got != "node=005" {
		t.Errorf("NodeLabel(5) = %q", got)
	}
	if obs.NodeLabel(9) > obs.NodeLabel(10) {
		t.Error("lexicographic label order disagrees with numeric node order")
	}
}

func TestSpanBufferWraps(t *testing.T) {
	b := obs.NewSpanBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(obs.Span{Thread: "t", Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	if b.Total() != 5 {
		t.Errorf("total = %d, want 5", b.Total())
	}
	spans := b.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Start != sim.Time(2+i) {
			t.Errorf("retained wrong window: %v", spans)
			break
		}
	}
}

func TestSpanBufferZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpanBuffer(0) did not panic")
		}
	}()
	obs.NewSpanBuffer(0)
}

// timelineInput builds a fixed span/event set exercising every emission
// path: run spans, blocked spans with and without args, and protocol
// instants.
func timelineInput() ([]obs.Span, []trace.Event) {
	spans := []obs.Span{
		{Thread: "proc0", Start: 0, End: 50000},
		{Thread: "proc1", Start: 0, End: 100000, Blocked: true, Reason: "miss-fill", Arg: 42},
		{Thread: "proc0", Start: 50000, End: 150000, Blocked: true, Reason: "await-message"},
	}
	events := []trace.Event{
		{At: 50000, Node: 1, Kind: trace.KMsgSend, A: 0, B: 64},
		{At: 150000, Node: 0, Kind: trace.KMsgRecv, A: 1},
	}
	return spans, events
}

func TestWriteTimelineIsValidTraceEventJSON(t *testing.T) {
	clk := sim.NewClock(20) // 50000 ps per cycle
	spans, events := timelineInput()
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, clk, spans, events, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, slices, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
		case "i":
			instants++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	// 2 process_name + 2 thread_name records, one slice per span, one
	// instant per trace event.
	if meta != 4 || slices != 3 || instants != 2 {
		t.Errorf("event counts (meta=%d, slices=%d, instants=%d), want (4, 3, 2)", meta, slices, instants)
	}
	// Timestamps are cycles: the second span starts at cycle 0 and lasts
	// 100000 ps / 50000 ps-per-cycle = 2 cycles.
	for _, e := range doc.TraceEvents {
		if e.Name == "miss-fill" && (e.Ts != 0 || e.Dur != 2) {
			t.Errorf("miss-fill slice ts=%d dur=%d, want 0/2", e.Ts, e.Dur)
		}
	}
	if !strings.Contains(buf.String(), `"args":{"arg":42}`) {
		t.Error("blocked span arg missing from timeline")
	}
}

func TestWriteTimelineByteIdentical(t *testing.T) {
	clk := sim.NewClock(20)
	spans, events := timelineInput()
	var a, b bytes.Buffer
	if err := obs.WriteTimeline(&a, clk, spans, events, nil); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTimeline(&b, clk, spans, events, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same input differ")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h obs.Histogram
	if h.P50() != 0 || h.P99() != 0 {
		t.Error("empty histogram percentile not 0")
	}
	// 100 samples of 10 and one of 1000: p50 falls in 10's bucket
	// (bit length 4, upper bound 15), p99 likewise, max is exact.
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	h.Observe(1000)
	if got := h.P50(); got != 15 {
		t.Errorf("P50 = %d, want 15 (upper bound of 10's power-of-two bucket)", got)
	}
	if got := h.P99(); got != 15 {
		t.Errorf("P99 = %d, want 15", got)
	}
	if got := h.Percentile(1.0); got != 1000 {
		t.Errorf("Percentile(1.0) = %d, want the exact max 1000", got)
	}
	// All-zero samples stay in bucket 0.
	var z obs.Histogram
	z.Observe(0)
	z.Observe(0)
	if z.P99() != 0 {
		t.Errorf("all-zero P99 = %d, want 0", z.P99())
	}
}

func TestFindHistogramDoesNotRegister(t *testing.T) {
	r := obs.NewRegistry()
	if r.FindHistogram("mesh_hop_wait_ps", "") != nil {
		t.Error("FindHistogram invented an instrument")
	}
	if r.Len() != 0 {
		t.Errorf("FindHistogram registered: len = %d", r.Len())
	}
	h := r.Histogram("mesh_hop_wait_ps", "")
	h.Observe(7)
	got := r.FindHistogram("mesh_hop_wait_ps", "")
	if got != h {
		t.Error("FindHistogram did not return the registered instrument")
	}
	r.Counter("messages", "")
	if r.FindHistogram("messages", "") != nil {
		t.Error("FindHistogram returned a counter as a histogram")
	}
}
