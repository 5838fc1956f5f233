// Package mem simulates the Alewife memory system: per-node direct-mapped
// caches, a LimitLESS-style directory cache-coherence protocol under
// sequential consistency, software prefetch with a prefetch buffer, and
// the authoritative backing store for shared data.
//
// Timing follows the paper's Figure 3 cost table: an 11-cycle local miss,
// remote clean/dirty misses of roughly 42/63 processor cycles plus 1.6
// cycles per network hop (round trip), and a ~425-cycle software handler
// when a line's sharer count overflows the directory's five hardware
// pointers. Controller and DRAM costs are expressed in processor cycles
// (the CMMU is clocked with the processor); network transit is wall-clock
// time, which is what makes the paper's clock-scaling experiment work.
//
// Steps and transactions. Every in-flight protocol message and deferred
// protocol action is a step, a record pooled on the System whose kind
// says what it does when it runs:
//
//   - request path: stepReqSend (the requester sends after its issue
//     cost), stepDispatch (home's controller), stepProcess (a request
//     queued on a busy directory entry, handed the entry by release);
//   - dirty lines: stepServeHome (dirty in home's own cache, deferred
//     behind home's write fill), stepFetch and stepFetchNow (at the
//     owner), stepFetchDone (the owner's data back at home);
//   - invalidation rounds, one step per sharer: stepInval and
//     stepInvalLate (at the sharer, the latter deferred behind its
//     granted read fill) and stepInvalAck (at home; the ack count lives
//     on the busy entry, the LimitLESS surcharge on the txn);
//   - update rounds, one step per sharer: stepUpdate, stepUpdateAck;
//   - grants: stepReply (DRAM done at home), stepFill (reply at the
//     requester), stepComplete (completeTxn);
//   - stepWriteback (at home) and the effects completeTxn runs once a
//     line is held: stepApply (a waiting store, RMW or Update) and
//     stepRCApply (a buffered release-consistency store);
//   - stepArrive: a message delivered at a node, passing through its
//     controller before it runs as its next kind.
//
// A step lives from the operation that makes it to its last hop: each
// handler either passes it on (schedules it, sends it, or queues it on a
// directory entry or on a transaction's onComplete list) or frees it. A
// txn lives from startTxn to the end of completeTxn, which runs its
// deferred steps in order, wakes its waiters and frees it; its slices
// keep their backing arrays for the next transaction. Nothing holds a
// txn or step pointer past those points, so recycling a record cannot
// change a simulated result.
package mem
