package machine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/am"
)

// pingRing runs a paced neighbor ping-pong under cfg: every processor
// sends msgs messages around the ring and consumes the msgs aimed at it.
func pingRing(t *testing.T, cfg Config, msgs int) *Machine {
	t.Helper()
	m := New(cfg)
	n := cfg.Nodes()
	arrived := make([]int, n)
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		arrived[c.Node]++
	})
	m.Run(func(p *Proc) {
		p.SetRecvMode(RecvPoll)
		for i := 0; i < msgs; i++ {
			p.Send((p.ID+1)%n, h, nil, nil)
			p.Compute(200)
		}
		for arrived[p.ID] < msgs {
			p.WaitAndHandle()
		}
	})
	return m
}

// TestObsOverflowTotals overflows deliberately tiny trace and span rings
// and checks the drop accounting: totals count every record that ever
// hit a ring, not just the survivors, so they match a run whose rings
// are large enough to retain everything, and drops = total - retained.
func TestObsOverflowTotals(t *testing.T) {
	const msgs = 8
	big := DefaultConfig()
	big.TraceCap = 1 << 16
	big.SpanCap = 1 << 16
	full := pingRing(t, big, msgs)
	wantEvents := int64(2 * msgs * big.Nodes()) // one send + one recv per message
	if got := full.Trace.Total(); got != wantEvents || int64(len(full.Trace.Events())) != got {
		t.Fatalf("uncapped trace total/retained = %d/%d, want %d/%d",
			got, len(full.Trace.Events()), wantEvents, wantEvents)
	}
	wantSpans := full.Spans.Total()
	if int64(len(full.Spans.Spans())) != wantSpans {
		t.Fatalf("uncapped span ring retained %d of %d spans", len(full.Spans.Spans()), wantSpans)
	}

	small := DefaultConfig()
	small.TraceCap = 16 // << 2 * msgs * nodes events: the ring overflows
	small.SpanCap = 8   // << spans per run: the ring evicts
	m := pingRing(t, small, msgs)
	if m.Trace.Total() != wantEvents {
		t.Errorf("overflowed trace total = %d, want %d", m.Trace.Total(), wantEvents)
	}
	if kept := len(m.Trace.Events()); kept != small.TraceCap {
		t.Errorf("overflowed trace retained %d events, want the full cap %d", kept, small.TraceCap)
	}
	var dump bytes.Buffer
	m.Trace.Dump(&dump, m.Clk)
	wantDrop := fmt.Sprintf("(%d earlier events dropped)", wantEvents-int64(small.TraceCap))
	if !strings.Contains(dump.String(), wantDrop) {
		t.Errorf("trace dump does not report %q:\n%s", wantDrop, dump.String())
	}
	if m.Spans.Total() != wantSpans {
		t.Errorf("overflowed span total = %d, want %d", m.Spans.Total(), wantSpans)
	}
	if kept := len(m.Spans.Spans()); kept != small.SpanCap {
		t.Errorf("overflowed span ring retained %d spans, want the full cap %d", kept, small.SpanCap)
	}
}

// critChain runs a message pipeline: node 0 computes and sends, every
// other node blocks for its predecessor's message before computing and
// forwarding. Every node past 0 takes a genuine awaited-message stall,
// so the critical path (the last node) is built from send→receive edges.
func critChain(t *testing.T, cfg Config) (*Machine, Result) {
	t.Helper()
	m := New(cfg)
	n := cfg.Nodes()
	arrived := make([]int, n)
	h := m.AM.Register(func(c *am.Ctx, args []int64, vals []float64) {
		arrived[c.Node]++
	})
	res := m.Run(func(p *Proc) {
		p.SetRecvMode(RecvPoll)
		if p.ID > 0 {
			for arrived[p.ID] == 0 {
				p.WaitAndHandle()
			}
		}
		p.Compute(500)
		if p.ID < n-1 {
			p.Send(p.ID+1, h, nil, nil)
		}
	})
	return m, res
}

// TestCritPathExhaustiveAndDeterministic checks the attribution
// invariant — the five categories partition the critical processor's
// cycles exactly, with nothing negative and nothing left over — and
// that profiling the same run twice yields the deep-equal result.
func TestCritPathExhaustiveAndDeterministic(t *testing.T) {
	run := func() (Result, *Machine) {
		cfg := DefaultConfig()
		cfg.CritPath = true
		m, res := critChain(t, cfg)
		return res, m
	}
	res, m := run()
	cp := res.CritPath
	if cp == nil {
		t.Fatal("CritPath config produced no summary")
	}
	if cp.TotalCycles <= 0 {
		t.Fatalf("critical path total = %d cycles", cp.TotalCycles)
	}
	sum := cp.Compute + cp.MemStall + cp.NetLatency + cp.NetBandwidth + cp.Sync
	if sum != cp.TotalCycles {
		t.Errorf("categories sum to %d, total is %d: attribution is not exhaustive", sum, cp.TotalCycles)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{{"compute", cp.Compute}, {"mem_stall", cp.MemStall}, {"net_latency", cp.NetLatency},
		{"net_bandwidth", cp.NetBandwidth}, {"sync", cp.Sync}} {
		if c.v < 0 {
			t.Errorf("category %s = %d, negative", c.name, c.v)
		}
	}
	// The pipeline's last node waited on a real message: the profiler
	// must see network latency on the critical path, and the send→receive
	// edges feeding it.
	if cp.NetLatency == 0 {
		t.Error("pipeline workload shows zero net_latency on the critical path")
	}
	if cp.EdgesTotal == 0 || len(cp.TopEdges) == 0 {
		t.Errorf("no causal edges recorded (total=%d, top=%d)", cp.EdgesTotal, len(cp.TopEdges))
	}
	if m.Crit == nil || len(m.Crit.Edges()) == 0 {
		t.Error("machine exposes no edge stream")
	}

	res2, m2 := run()
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("rerun result not deep-equal:\n1: %+v\n2: %+v", res.CritPath, res2.CritPath)
	}
	if !reflect.DeepEqual(m.Crit.Edges(), m2.Crit.Edges()) {
		t.Error("edge stream not deterministic across identical runs")
	}
}
