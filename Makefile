# Tier-1 verification plus the race-certified concurrency surface.
# `make check` is the gate every PR must pass. `make profile` captures
# host CPU/heap profiles of a tiny figure regeneration (see the bench
# target for simulated-time performance tracking).

GO ?= go

.PHONY: check build test race bench bench-save fuzz lint profile

check: build race test lint
	$(GO) vet ./...

build:
	$(GO) build ./...

# Determinism and simulation-safety analysis (internal/lint), seven
# checks: the per-package wallclock, unseededrand, maporder, rawconc,
# fingerprint, and intmath, plus the call-graph-aware callpath. Zero
# diagnostics — including stale //lint:allow comments — is the bar.
# See DESIGN.md §10.
# The second invocation self-lints the analyzer and its CLI explicitly
# (the pattern set must be import-closed, which these two trees are).
lint:
	$(GO) run ./cmd/simlint ./...
	$(GO) run ./cmd/simlint ./internal/lint ./cmd/simlint

test:
	$(GO) test ./...

# The parallel runner and the event engine are the only concurrent code;
# certify them under the race detector on every check. The suite runs
# real tiny-scale simulations (parallel-vs-serial sweeps, predicted-sweep
# validation batches) and exceeds go test's 10-minute default under -race.
race:
	$(GO) test -race -timeout 25m ./internal/core/... ./internal/sim/...

# Short fixed-budget fuzzing: random op programs against the coherence
# protocol's directory/cache invariant checker, and random strings
# against the fault/noise spec grammar (Parse must never panic, and
# accepted specs must round-trip through their canonical form).
# Deterministic seeds run in `make test`; this explores beyond them.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzProtocolOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)

# Host-side profiling of a figure regeneration: where the simulator
# itself spends CPU and heap. Inspect with `go tool pprof /tmp/paperbench.cpu`.
PROFILE_FIG ?= 4
profile:
	$(GO) run ./cmd/paperbench -fig $(PROFILE_FIG) -scale tiny \
		-cpuprofile /tmp/paperbench.cpu -memprofile /tmp/paperbench.mem > /dev/null
	@echo "profiles written: /tmp/paperbench.cpu /tmp/paperbench.mem"

# Performance tracking: event-engine allocation profile, host ns per
# dispatched event of a whole tiny em3d run, and serial vs parallel
# sweep throughput.
bench:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkThreadHandoff' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench BenchmarkMachineRunEM3D -benchtime 10x -benchmem -run xxx ./internal/machine/
	$(GO) test -bench 'BenchmarkClockSweep|BenchmarkContextSwitchSweepMemoized' -benchtime 3x -run xxx ./internal/core/

# End-to-end host-time trajectory: times `paperbench -all -scale tiny`
# at -j 1 and -j 0, `go test ./...` and `make race`, and records them
# with the Go version, nproc and GOMAXPROCS as the BENCH_LABEL row of
# BENCH_e2e.json. BENCH_DIR measures another checkout (a clone of an
# older commit) on the same host. Recorded, never gated.
BENCH_LABEL ?= change
BENCH_DIR ?= .
bench-save:
	$(GO) run ./cmd/benchsave -label $(BENCH_LABEL) -dir $(BENCH_DIR)
