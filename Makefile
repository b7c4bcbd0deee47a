# Verification targets. `make check` is the full gate: static analysis plus
# the race-enabled test sweep (the campaign engine fans simulations out
# across goroutines, so races are first-class failures here).

GO ?= go

.PHONY: check build vet test race race-short bench bench-compare bench-trajectory alloc-guard trajectory-check golden nmr-golden telemetry-golden trace-golden farm-golden profile-golden farm-soak fuzz-smoke offload-roundtrip

check: vet golden nmr-golden telemetry-golden trace-golden farm-golden profile-golden alloc-guard trajectory-check fuzz-smoke race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sim-heavy comparisons are ~6x slower under the race detector; this is
# the quick pre-push variant (full coverage of the campaign pool included).
race-short:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/campaign ./internal/inject

# Golden byte-identical-output tests: the simulated comparison accounting
# (dirty pages, hashed bytes, experiment tables) is pinned byte for byte;
# host-side comparison optimisations must not move it. Regenerate with
# `go test <pkg> -run Golden -update` after an intentional model change.
golden:
	$(GO) test ./internal/core ./internal/stats ./internal/packet ./internal/checkd -run 'Golden'

# The main+3 NMR demonstration campaign, pinned byte for byte: the clean run
# is unanimous, an injected checker SEU is absorbed in place, and an
# injected main fault is repaired by a forward state copy — all with zero
# rollbacks charged and the program output intact. Regenerate with
# `go test ./internal/stats -run GoldenNMR -update`.
nmr-golden:
	$(GO) test ./internal/stats -run 'GoldenNMR'

# Telemetry must be as deterministic as the simulation it observes: the
# snapshot for one fixed workload is pinned byte for byte, alongside the
# metric/span naming lint. Regenerate with
# `go test ./cmd/parallaft -run TestTelemetryGolden -update`.
telemetry-golden:
	$(GO) test ./cmd/parallaft -run 'TestTelemetryGolden'
	$(GO) test ./internal/telemetry -run 'Lint|Total'

# The merged causal trace of one fixed 3-node farm campaign, projected to
# its deterministic skeleton (wall clock stripped, node assignment collapsed
# to the actor class): every sealed segment must show one complete
# seal→delivery chain under its deterministic trace ID. Regenerate with
# `go test ./cmd/parallaft -run TestTraceGolden -update`.
trace-golden:
	$(GO) test ./cmd/parallaft -run 'TestTraceGolden'

# The check farm's acceptance gate: the whole workload suite's packets,
# sharded over three checkd nodes with one killed and one joined
# mid-campaign, must match the in-process checker byte for byte with every
# shared chunk crossing each node's wire at most once. Runs without -race
# (the full-suite double replay carries a !race build tag); the race-enabled
# soak below covers the same failover machinery at race-detector size.
# Regenerate with `go test ./internal/checkfarm -run Golden -update`.
farm-golden:
	$(GO) test ./internal/checkfarm -run 'TestGoldenFarmParity'

# The sampling profiler's folded stacks and the overhead-attribution ledger
# for one fixed workload, pinned byte for byte (host wall-clock stages zeroed
# to their deterministic skeleton), plus the exact reconciliation invariant:
# per-activity sums must equal the machine's sim-time and energy books bit
# for bit. Regenerate the goldens with
# `go test ./cmd/parallaft -run TestProfileGolden -update`.
profile-golden:
	$(GO) test ./cmd/parallaft -run 'TestProfileGolden'
	$(GO) test ./internal/core ./internal/stats -run 'Reconcile' -short

# Race-enabled kill/restart soak of the farm dispatcher: repeated node
# crashes and rejoins mid-campaign with exactly-once, in-order verdicts.
farm-soak:
	$(GO) test -race ./internal/checkfarm -run 'TestFarmSoak' -count 5

# Short fuzz of the check-packet codec: Decode must never panic, and every
# accepted input must re-encode byte-identically (canonical wire format).
# Then the same for the pagestore file: ReadFrom never panics and refuses
# with ErrBadStore, and a store survives WriteTo → ReadFrom intact.
fuzz-smoke:
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzPacketRoundTrip -fuzztime 5s
	$(GO) test ./internal/pagestore -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 5s

# End-to-end offload pipeline through the real binaries: export packets from
# a protected run, then re-check them with the daemon CLI.
offload-roundtrip:
	rm -rf /tmp/paft-packets && \
	$(GO) run ./cmd/parallaft -workload 458.sjeng -scale 0.05 -export-packets /tmp/paft-packets >/dev/null && \
	$(GO) run ./cmd/paftcheckd -verify /tmp/paft-packets -quiet

bench:
	$(GO) test -bench=. -benchmem ./...

# Comparison-subsystem microbenchmark (ns/op, B/op, allocs/op of the
# segment-compare path under dirty tracking and the full-memory ablation).
bench-compare:
	$(GO) test -run '^$$' -bench BenchmarkCompareSegment -benchmem -benchtime 2x .

# Zero-allocation pins for the hot paths (interpreter dispatch, the
# steady-state comparator, and tracing's disabled path), plus the packet
# codec's shape: one allocation per Encode, Decode constant in the event
# count. The byte bounds pin page-buffer reuse: a warm fork → COW → release
# cycle recycles its page buffers, and a pagestore serializes in one
# allocation of its exact size. Run without -race: the detector's own
# instrumentation allocates, so the guard tests carry a !race build tag.
alloc-guard:
	$(GO) test ./internal/proc ./internal/compare ./internal/telemetry ./internal/telemetry/profile ./internal/packet -run 'AllocFree' -v
	$(GO) test ./internal/mem ./internal/pagestore -run 'AllocBound' -v

# Validate the pinned benchmark-trajectory files: every BENCH_NNN.json must
# exist, parse against the parallaft-bench-trajectory/v1 schema, contain the
# headline fullmem benchmark on both sides, and back its PR's claim — the
# recorded speedup for PR 6, within-noise parity (observability is free) for
# PR 10.
trajectory-check:
	$(GO) test -run TestBenchTrajectory .

# Refresh the "current" side of the benchmark trajectory. Baselines are
# captured once per PR from the pre-PR tree under interleaved paired
# conditions (see cmd/benchtrend's doc comment) and are not overwritten
# here; pipe a pre-PR run through `benchtrend -set baseline` to redo one.
bench-trajectory:
	($(GO) test -run '^$$' -bench BenchmarkCompareSegment -benchmem -benchtime 3x . && \
	 $(GO) test -run '^$$' -bench BenchmarkInterpreterDispatch -benchmem -benchtime 200x .) \
	| $(GO) run ./cmd/benchtrend -json BENCH_010.json -pr 10 -set current

# Cross-PR view of every pinned trajectory file: current ns/op per PR with
# each file's own paired baseline speedup.
bench-trend:
	$(GO) run ./cmd/benchtrend -trend 'BENCH_*.json'
