// Package model is an analytical (closed-form) version of the paper's
// Section 2 intuition — the conceptual curves of Figures 1 and 2 — with
// parameters fittable from the simulator's own measurements.
//
// Runtime is modeled per processor as
//
//	T = compute + overhead + stall(latency) * contention(bandwidth)
//
// where the stall term reflects each mechanism's structure (round-trip
// blocking for sequentially-consistent shared memory, partially-hidden
// for prefetching, one-way and asynchronous for message passing) and the
// contention factor is an M/M/1-style 1/(1-rho) in the offered bisection
// load. The model exists to explain and sanity-check the measured sweeps,
// not to replace them; its tests assert agreement in shape and
// factor-of-two magnitude with the simulator.
//
// # Two models, two jobs
//
// The repository carries a second, structural model: internal/predict
// replays the retained causal-edge DAG of one instrumented run as a
// longest-path problem, re-solved per (latency, bandwidth) point. The
// division of labor:
//
//   - This package is the paper's *explanation*: a handful of fitted
//     scalars (misses, messages, per-mechanism stall shapes) that say
//     WHY a mechanism is latency-bound or bandwidth-bound, readable by
//     a human, extrapolatable far outside the measured range — at
//     factor-of-two fidelity. Use it for regions and intuition
//     (paperbench -model).
//
//   - internal/predict is the run's *replay*: every recorded dependence
//     at its measured cost, exact at the instrumented point and within
//     a committed error bound nearby, with a per-point confidence that
//     says when to fall back to real simulation. It knows nothing about
//     mechanism structure — whatever slack, overlap, and imbalance the
//     run actually had is what it re-solves. Use it for predicted
//     sweeps and sweep pruning (paperbench -predict).
//
// Both validate against the same simulations through
// predict.ErrorStats, and the figures layer prints them side by side
// (-model -predict): the graph model should beat the closed form
// everywhere it has coverage, and the closed form should still name the
// region correctly when it loses on magnitude.
package model
