// Package mesh simulates the Alewife EMRC-style 2-D mesh interconnect:
// dimension-order (X then Y) cut-through routing, per-link bandwidth and
// occupancy, per-hop router latency, endpoint back-pressure, and the
// paper's bisection-bandwidth emulation via I/O cross-traffic injected
// across both edges of the mesh (Figure 6).
//
// Timing model. A packet's head advances one router per HopLatency; its
// body follows in a pipeline, so an uncongested delivery takes
//
//	(hops+1)*HopLatency + Size*PsPerByte
//
// matching Alewife's ~15 processor cycles for a 24-byte packet at 20 MHz.
// Each directed link is a server that is occupied for Size*PsPerByte per
// packet; when a link is busy the head waits, which is what produces the
// nonlinear congestion of the paper's "Congestion Dominated" region.
// Link reservations are made in send order (a standard fast cut-through
// approximation: one delivery event per packet rather than one per hop).
//
// Ownership. A packet passed to Send belongs to its sender, which may
// reuse it once the packet has been delivered: the network never touches
// it after Deliver returns, and Deliver must not keep p. The record that
// carries a packet through delivery and back-pressure retries is pooled
// by the Network, as are the cross-traffic packets it generates itself.
package mesh
