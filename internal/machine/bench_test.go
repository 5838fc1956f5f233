package machine_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/machine"
	"repro/internal/workload"
)

// BenchmarkMachineRunEM3D measures one whole tiny em3d shared-memory run
// on the base 32-node machine and reports the host cost of each
// dispatched event: the thread handoff, coherence and mesh work behind a
// simulated event, without the benchmark harness in perfbench/. Machine
// and application setup are excluded from the timing.
func BenchmarkMachineRunEM3D(b *testing.B) {
	b.ReportAllocs()
	p := workload.DefaultEM3DParams().Scaled(320, 2)
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := machine.New(machine.DefaultConfig())
		a := em3d.New(p)
		a.Setup(m, apps.SM)
		b.StartTimer()
		m.Run(a.Body)
		events += m.Eng.Dispatched()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
