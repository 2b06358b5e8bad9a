GO ?= go

.PHONY: check vet build lint test race cover fuzz bench-smoke scenario soak-smoke soak clean

# Tier-1 gate: everything CI needs to pass, plus a short instrumented
# bench run that leaves a machine-readable metrics snapshot behind and
# a short leak-checked soak. The test suite runs once, under -race, and
# that run's coverage profile feeds the coverage gate; it includes the
# adversarial scenario matrix and its exact golden snapshot
# (internal/scenario). Timing lives in the benchmark harness:
# `go run ./bench` (see bench/README.md).
check: vet build lint race cover bench-smoke soak-smoke

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

# Full scenario soak: cycle the matrix repeatedly as a determinism
# burn-in plus cross-cycle leak hunt (`make scenario SCENARIO_CYCLES=20`
# for a longer run). Each cycle's report must be byte-identical to the
# first.
SCENARIO_CYCLES ?= 5
scenario:
	$(GO) run ./cmd/soak -matrix -cycles $(SCENARIO_CYCLES)

clean:
	rm -f BENCH_smoke.json BENCH_soak.json cover.out
