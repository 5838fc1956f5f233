package mem_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// BenchmarkRemoteMiss measures the host cost of one remote clean read
// miss (Figure 3's remote miss) through machine.Proc on the base 32-node
// machine: node 0 reads two lines homed at node 4, 4 hops away, that
// share its cache frame, so every read misses.
func BenchmarkRemoteMiss(b *testing.B) {
	b.ReportAllocs()
	m := machine.New(machine.DefaultConfig())
	words := m.Cfg.Mem.CacheLines * m.Cfg.Mem.LineWords
	base := m.Alloc(4, words+m.Cfg.Mem.LineWords)
	lines := [2]mem.Addr{base, base + mem.Addr(words)}
	b.ResetTimer()
	m.Run(func(p *machine.Proc) {
		if p.ID != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			p.Read(lines[i&1])
		}
	})
	b.StopTimer()
	if got := m.Mem.Events().RemoteMissesCln; got != int64(b.N) {
		b.Fatalf("%d remote clean misses, want %d", got, b.N)
	}
}
