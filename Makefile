GO ?= go
SHADOW := $(shell command -v shadow 2>/dev/null)

.PHONY: build test race vet vet-shadow fmt-check lint lint-one parity chaos chaos-mesh fuzz golden bench-smoke determinism scale ablation ablation-smoke perfbench-test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file in the tree is not gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# vet-shadow runs the variable-shadowing analyzer when the shadow vettool
# is installed; otherwise it falls back to a stricter flag subset of the
# stock vet (still useful, and always available offline; the flag set is
# verified against go1.24, which accepts all three).
vet-shadow:
ifdef SHADOW
	$(GO) vet -vettool=$(SHADOW) ./...
else
	$(GO) vet -unreachable -unusedresult -lostcancel ./...
endif

# The linter is built once into bin/bsublint and shared by lint and
# lint-one; the binary rebuilds only when its sources change, so
# repeated lint invocations skip the `go run` build step.
BSUBLINT := bin/bsublint
LINT_SRC := $(wildcard cmd/bsublint/*.go internal/lint/*.go) go.mod

$(BSUBLINT): $(LINT_SRC)
	$(GO) build -o $@ ./cmd/bsublint

# lint runs the repo-specific analyzers (cmd/bsublint): claims settled on
# every path, allocation-free //bsub:hotpath functions, deterministic
# core, no blocking I/O under locks, no dropped wire errors, goroutines
# tied to shutdown paths, //bsub:lockrank ordering, and wire-tainted
# lengths validated before use. See DESIGN.md §9 for the invariant
# table.
lint: $(BSUBLINT)
	$(BSUBLINT) ./...

# lint-one runs a single analyzer, e.g. `make lint-one ANALYZER=lockio`.
lint-one: $(BSUBLINT)
	$(BSUBLINT) -analyzers $(ANALYZER) ./...

# parity replays one deterministic contact sequence through the simulator
# adapter and through live TCP-framed nodes under the race detector and
# asserts byte-identical protocol state after every contact.
parity:
	$(GO) test -race -count=1 -run TestSimLiveParity ./internal/livenode

# chaos runs the fault-injection suite (faultnet wrappers over live
# contact sessions) under the race detector: copies conserved, no
# duplicate deliveries, nodes recover after severed contacts.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Sever|TimedOut|Corrupt|Faultnet|Truncation|Fabric' ./internal/livenode ./internal/faultnet

# chaos-mesh runs the churn controller: a 100+ node in-process mesh under
# the race detector with partitions, kills, and restarts, asserting
# exactly-once delivery per incarnation, copy conservation, zero goroutine
# leaks, and eventual delivery to rejoined peers. Takes a few minutes.
chaos-mesh:
	$(GO) test -race -count=1 -timeout 20m -run TestMeshChurn ./internal/mesh

# fuzz gives each wire-format fuzzer a short smoke budget; go only
# accepts one -fuzz target per invocation.
fuzz:
	$(GO) test ./internal/livenode -run '^$$' -fuzz FuzzReadFrame -fuzztime 5s
	$(GO) test ./internal/livenode -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 5s
	$(GO) test ./internal/livenode -run '^$$' -fuzz FuzzDecodeHello -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzSessionSteps -fuzztime 5s
	$(GO) test ./internal/tcbf -run '^$$' -fuzz FuzzTCBFModel -fuzztime 5s
	$(GO) test ./internal/filtertest -run '^$$' -fuzz FuzzFilterModel -fuzztime 5s
	$(GO) test ./internal/faultnet -run '^$$' -fuzz FuzzFabricHealDuringHandshake -fuzztime 5s

# golden regenerates the quick-mode experiment CSVs (seed 1) and compares
# them byte-for-byte against the committed goldens: the figure series in
# cmd/experiments/testdata, pinning the zero-allocation contact path to
# the exact results of the straightforward implementation it replaced,
# and the filter-backend ablation grid in internal/experiments/testdata,
# pinning the filter seam itself.
golden:
	$(GO) test -count=1 -run TestGoldenCSVs ./cmd/experiments
	$(GO) test -count=1 -run TestBackendAblationGolden ./internal/experiments

# bench-smoke runs the contact benchmarks — the engine session and the
# simulator adapter's broker-broker contact on top of it — and the relay
# filter codec benchmarks (one warm filter each way, and a round-robin
# over a few thousand cold relay filters) a handful of iterations, so a
# PR that breaks the benchmark harness (or its zero-alloc assumptions,
# see TestContactAllocationFree, TestAdapterContactAllocationFree and
# TestFilterOpsAllocationFree) fails the gate without a full bench run.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkEngineContact -benchtime 10x ./internal/engine
	$(GO) test -run '^$$' -bench BenchmarkAdapterContact -benchtime 10x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeTo$$|BenchmarkDecodeInto$$|BenchmarkPopulationCodec$$' -benchtime 10x ./internal/tcbf

# determinism is the quick-mode sharded-runner gate: the same seeded scale
# config must produce byte-identical reports at workers=1 and workers=8,
# across epoch widths, and streamed vs materialized, for B-SUB and the
# PUSH/PULL baselines (DESIGN.md §11).
determinism:
	$(GO) test -count=1 -short -run 'TestShardedDeterminism|TestStreamedMatchesMaterialized|TestScaleRunDeterministicAcrossWorkers|TestBaselinesShardedDeterminism' \
		./internal/sim ./internal/experiments ./internal/protocol

# scale runs the full ROADMAP population sweep (10k / 100k / 1M nodes,
# takes minutes and a few GB of RAM) and leaves scale.csv in artifacts/.
scale:
	$(GO) run ./cmd/experiments -run scale -csv artifacts

# ablation runs the full ablation battery — including the filter-backend
# matrix over the fig7/fig9 traces and the 10k-node streamed population —
# leaving the CSV grids in artifacts/ and printing the population leg.
# Takes minutes.
ablation:
	$(GO) run ./cmd/experiments -run ablation -csv artifacts

# ablation-smoke is the quick-mode backend-matrix gate: the conformance
# subjects build, every backend survives a full trace replay and the
# streamed-population leg, and the quick grid matches its golden.
ablation-smoke:
	$(GO) test -count=1 -run 'TestFilterBackendsMatrix|TestBackendAblationGolden|TestBackendScaleSweepQuick' ./internal/experiments

# perfbench-test vets the benchmark module and runs its own tests (about
# 5 s): the tracing decorators must stay transparent to the simulator's
# reports and the loopback mesh must deliver exactly once, so an engine
# change that breaks either fails the gate, not the benchmark run. The
# module is nested, so `make vet` does not reach it.
perfbench-test:
	cd perfbench && GOFLAGS=-mod=mod $(GO) vet ./...
	cd perfbench && GOFLAGS=-mod=mod $(GO) test ./...

# check is the PR gate: gofmt cleanliness, vet (plus the shadow pass),
# the repo-specific analyzers, the quick sharded-determinism gate, and
# the full suite under the race detector, then sim/live parity, the
# chaos suite, the mesh churn controller, a fuzz smoke pass over the
# wire decoders, the engine state machine, the TCBF differential model,
# and the cross-backend filter conformance suite, the golden-CSV
# comparisons, the filter-backend ablation smoke, a benchmark smoke
# run, and the benchmark module's vet and tests. The livenode
# session adapter and the mesh daemon are concurrent; never ship them
# unraced.
check: fmt-check vet vet-shadow lint determinism race parity chaos chaos-mesh fuzz golden ablation-smoke bench-smoke perfbench-test

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
