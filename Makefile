GO ?= go

.PHONY: check vet build lint test race cover fuzz bench-smoke bench bench-parallel bench-hier bench-serve bench-scenario bench-gate serve-gate sampling-gate scenario-smoke scenario-gate scenario soak-smoke soak clean

# Tier-1 gate: everything CI needs to pass, plus a short instrumented
# bench run that leaves a machine-readable metrics snapshot behind, a
# short leak-checked soak, the adversarial scenario matrix (smoke +
# regression gate), and the perf- and serving-regression gates against
# the committed BENCH_hier.json / BENCH_serve.json / BENCH_scenario.json
# baselines. The test suite runs once, under -race, and that run's
# coverage profile feeds the coverage gate.
check: vet build lint race cover bench-smoke soak-smoke scenario-smoke bench-gate serve-gate sampling-gate scenario-gate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Domain-specific static analysis (see DESIGN.md "Static analysis"):
# determinism, panic-policy, error-style and telemetry-nil invariants.
# Exits non-zero on any diagnostic, so check fails on violations.
lint:
	$(GO) run ./cmd/hdlint ./...

test:
	$(GO) test ./...

# The race-enabled suite also writes the coverage profile that the
# cover gate reads, so `make check` runs the tests once.
race:
	$(GO) test -race -timeout 20m -coverprofile=cover.out ./...

# Coverage gate over the profile `make race` wrote: the deterministic
# parallel engine must stay ≥90% covered, the serving front end ≥80%,
# and the tree must not regress below its 80% baseline.
cover:
	$(GO) run ./cmd/covergate -profile cover.out -total 80.0 \
		-require edgehd/internal/parallel=90 \
		-require edgehd/internal/serve=80 \
		-require edgehd/internal/scenario=80

# Short fuzz passes over the wire codec, the hypervector algebra and
# the chunked-reduction determinism property. Each target runs for 10s;
# failures land reproducer files in testdata.
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzWireRoundTrip -fuzztime 10s
	$(GO) test ./internal/hdc -fuzz FuzzBipolarOps -fuzztime 10s
	$(GO) test ./internal/parallel -fuzz FuzzChunkedReduce -fuzztime 10s
	$(GO) test ./internal/scenario -fuzz FuzzFaultConn -fuzztime 10s

# A quick instrumented run of the routed-inference pipeline; the
# telemetry snapshot (counters, histograms, spans) lands in
# BENCH_smoke.json via the -metrics-out flag.
bench-smoke:
	$(GO) run ./cmd/edgehd -dataset PDP -dim 1500 -train 200 -test 80 \
		-epochs 3 -metrics-out BENCH_smoke.json

# Full benchmark suite (one bench per table/figure plus kernels).
bench: bench-parallel bench-hier bench-serve bench-scenario
	$(GO) test -bench=. -benchmem -run=XXX .

# Parallel-engine speedup report: batch encode and hierarchy training
# at workers=1 vs GOMAXPROCS, written to BENCH_parallel.json together
# with the host's core count (≈1.0x is expected on one core).
bench-parallel:
	$(GO) run ./cmd/benchpar

# Refresh the committed perf baseline: routed inference at D=4096 over
# star/tree/depth-3 topologies (wall, bytes/query, allocs/op, p95).
bench-hier:
	$(GO) run ./cmd/benchdiff -emit

# Refresh the committed serving baseline: 12k verified queries from 4
# connections against the in-process serve front end (cmd/loadgen).
bench-serve:
	$(GO) run ./cmd/loadgen -out BENCH_serve.json

# Refresh the committed adversarial-scenario baseline: run the full
# fault matrix (internal/scenario) and write BENCH_scenario.json. A
# failing matrix is never written.
bench-scenario:
	$(GO) run ./cmd/benchdiff -scenario -emit -out BENCH_scenario.json

# Short leak-checked soak (~10s): cycles federated rounds and routed
# inferences, reconciles every cycle's traced wire bytes, and fails on
# any goroutine or heap drift between the baseline and recent sample
# windows. The telemetry snapshot lands in BENCH_soak.json.
soak-smoke:
	$(GO) run ./cmd/soak -duration 8s -train 120 -dim 1000 -infer 8 \
		-metrics-out BENCH_soak.json

# Full soak: paper-sized workload per cycle for 30s (lengthen with
# `make soak SOAK_DURATION=10m` for an overnight leak hunt).
SOAK_DURATION ?= 30s
soak:
	$(GO) run ./cmd/soak -duration $(SOAK_DURATION) -metrics-out BENCH_soak.json

# Scenario smoke: one soak cycle through the whole fault matrix — every
# scenario must pass all four assertion families (accuracy floors, wire
# byte reconciliation, bounded recovery, leak-free) and, via the soak
# loop's byte-identity check, prove seed determinism.
scenario-smoke:
	$(GO) run ./cmd/soak -matrix -cycles 1

# Scenario regression gate: rerun the matrix fresh at the committed
# baseline's shape and diff against BENCH_scenario.json. Any failed
# scenario fails outright; the metrics are deterministic, so drift
# gates at the raw warn/fail thresholds with no noise allowance.
scenario-gate:
	$(GO) run ./cmd/benchdiff -scenario -check

# Full scenario soak: cycle the matrix repeatedly as a determinism
# burn-in plus cross-cycle leak hunt (`make scenario SCENARIO_CYCLES=20`
# for a longer run). Each cycle's canonical report must be byte-
# identical to the first.
SCENARIO_CYCLES ?= 5
scenario:
	$(GO) run ./cmd/soak -matrix -cycles $(SCENARIO_CYCLES)

# Perf-regression gate: re-bench and diff against the committed
# baseline. Warns above 5% (soft), fails the build above 15% (hard);
# timing metrics carry a 4x noise allowance — see cmd/benchdiff.
bench-gate:
	$(GO) run ./cmd/benchdiff -check

# Sampling-overhead gate: re-bench the routed-inference pipeline with
# head/tail trace sampling attached and diff against the unsampled
# committed baseline. The usual warn/fail bands (with the 4x wall-clock
# noise allowance) thereby bound how much the sampler itself may cost.
sampling-gate:
	$(GO) run ./cmd/benchdiff -check -sampler

# Serving perf gate: replay the loadgen workload and diff the latency
# family against the committed BENCH_serve.json with the same warn/fail
# bands (and the 4x wall-clock noise allowance). A candidate with reply
# mismatches or a leak verdict fails outright.
serve-gate:
	$(GO) run ./cmd/loadgen -out BENCH_serve.cand.json
	$(GO) run ./cmd/benchdiff -serve -baseline BENCH_serve.json -candidate BENCH_serve.cand.json
	rm -f BENCH_serve.cand.json

clean:
	rm -f BENCH_smoke.json BENCH_soak.json BENCH_serve.cand.json cover.out
