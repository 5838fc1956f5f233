// Package fixture is a worker-pool barrier idiom: worker goroutines,
// epoch atomics, and buffered park channels, with atomic methods called
// on sync/atomic-typed receivers (no package name at the call site).
// internal/sim is outside rawconc's scope; the identical code in a
// simulated application would let host interleave leak into results, so
// rawconc must fire there and stay silent in sim.
package fixture

import "sync/atomic"

type windowBarrier struct {
	epoch     atomic.Uint64   //want rawconc
	remaining atomic.Int64    //want rawconc
	wake      []chan struct{} //want rawconc
}

func (b *windowBarrier) open(workers int) {
	b.remaining.Store(int64(workers)) //want rawconc
	b.epoch.Add(1)                    //want rawconc
	for w := 0; w < workers; w++ {
		w := w
		go func() { //want rawconc
			b.runShare(w)
			if b.remaining.Add(-1) == 0 { //want rawconc
				b.wake[workers] <- struct{}{} //want rawconc
			}
		}()
	}
	select { //want rawconc
	case <-b.wake[workers]: //want rawconc
	}
}

func (b *windowBarrier) runShare(w int) {}

// mergeOrder is pure ordering logic — sorting events by (at, seq)
// involves no host concurrency and is fine anywhere.
func mergeOrder(at, seq []uint64) bool {
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] || (at[i] == at[i-1] && seq[i] < seq[i-1]) {
			return false
		}
	}
	return true
}
