// Command benchsave measures the repository's end-to-end host timings
// and records them as one labelled row of the JSON trajectory file
// BENCH_e2e.json in the working directory:
//
//   - the wall time of `paperbench -all -scale tiny` at -j 1 and at -j 0
//     (all cores), with the SHA-256 of its stdout, which must be the
//     same at both widths;
//   - the wall time of `go test ./...`;
//   - the wall time of `make race`;
//
// together with the Go version, the CPU count and GOMAXPROCS. Both test
// runs pass -count=1 so cached results cannot stand in for a run.
//
// Usage:
//
//	go run ./cmd/benchsave [-label change] [-dir .]
//
// -dir points at the checkout to measure, so a clone of an older commit
// can be measured with this tool on the same host; a row with the same
// label is replaced, any other label is appended. Host times are
// recorded for comparison, never gated.
package main
