GO ?= go
SHADOW := $(shell command -v shadow 2>/dev/null)

.PHONY: build test race allocs vet vet-shadow fmt-check lint lint-one parity chaos chaos-mesh fuzz golden bench-smoke determinism artifacts perfbench-test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector with the bsubdebug
# tag, which makes engine.Session.Release panic whenever it has to
# refund a claim its caller never committed or aborted: the copy-limit
# accounting is checked on every contact the suite runs. The suite
# includes the parity and chaos tests; the mesh churn controller, which
# takes minutes, runs once, in chaos-mesh.
race:
	$(GO) test -race -count=1 -tags bsubdebug -skip TestMeshChurn ./...

# allocs runs the zero-allocation guards of the contact path, the
# message store and the TCBF. They are excluded under -race (the race
# runtime allocates), so race does not run them.
allocs:
	$(GO) test -count=1 -run 'AllocationFree$$' ./...

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

# lint runs the repo-specific analyzers (cmd/bsublint): allocation-free
# //bsub:hotpath functions, deterministic core, no blocking operation
# under a mutex and //bsub:lockrank ordering, goroutines tied to
# shutdown paths, and no dropped wire errors. See DESIGN.md §9 for the
# invariant table and the planted bugs that priced each analyzer.
lint: $(BSUBLINT)
	$(BSUBLINT) ./...

# lint-one runs a single analyzer, e.g. `make lint-one ANALYZER=locks`.
lint-one: $(BSUBLINT)
	$(BSUBLINT) -analyzers $(ANALYZER) ./...

# parity replays one deterministic contact sequence through the simulator
# adapter and through live TCP-framed nodes under the race detector and
# asserts byte-identical protocol state after every contact. race runs it
# too, so check does not repeat it; the target is for single runs.
parity:
	$(GO) test -race -count=1 -run TestSimLiveParity ./internal/livenode

# chaos runs the fault-injection suite (faultnet wrappers over live
# contact sessions) under the race detector: copies conserved, no
# duplicate deliveries, nodes recover after severed contacts. race runs
# it too, so check does not repeat it; the target is for single runs.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Sever|TimedOut|Corrupt|Faultnet|Truncation|Fabric' ./internal/livenode ./internal/faultnet

# chaos-mesh runs the churn controller: a 100+ node in-process mesh under
# the race detector with partitions, kills, and restarts, asserting
# exactly-once delivery per incarnation, copy conservation, zero goroutine
# leaks, and eventual delivery to rejoined peers. Takes a few minutes. The
# bsubdebug tag keeps race's claim-leak panics on, since race skips it.
chaos-mesh:
	$(GO) test -race -count=1 -tags bsubdebug -timeout 20m -run TestMeshChurn ./internal/mesh

# fuzz gives each fuzzer a short smoke budget: the three livenode wire
# decoders, then three model and state fuzzers — engine session step
# orders, the TCBF lockstep tape (bare and partitioned filters), and
# faultnet partition/heal flips raced against dials. go only accepts one
# -fuzz target per invocation.
fuzz:
	$(GO) test ./internal/livenode -run '^$$' -fuzz FuzzReadFrame -fuzztime 5s
	$(GO) test ./internal/livenode -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 5s
	$(GO) test ./internal/livenode -run '^$$' -fuzz FuzzDecodeHello -fuzztime 5s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzSessionSteps -fuzztime 5s
	$(GO) test ./internal/tcbf -run '^$$' -fuzz FuzzTCBFModel -fuzztime 5s
	$(GO) test ./internal/faultnet -run '^$$' -fuzz FuzzFabricHealDuringHandshake -fuzztime 5s

# golden rebuilds the quick-mode experiment tables (seed 1) and compares
# their CSVs byte-for-byte against the committed goldens in
# cmd/experiments/testdata: the fig7/fig9 series and the seven ablation
# grids on the small fixture, and a three-point Fig. 9 DF grid on the
# full Haggle and MIT fixtures.
golden:
	$(GO) test -count=1 -run TestGoldenCSVs ./cmd/experiments

# bench-smoke runs the contact benchmarks — a contact's message-store
# work, its election-window work, the engine session and the simulator
# adapter's contacts on top of it — the relay filter codec benchmarks (one
# warm filter each way, and a round-robin over a few thousand cold relay
# filters, with the advert encoded or only sized) and the contact
# stream's Next on a 50k-node population, a handful of iterations, so a
# PR that breaks the benchmark harness fails the gate without a full
# bench run. Every case prints 0 allocs/op; the allocs target is what
# enforces it.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkStoreContact -benchtime 10x ./internal/msgstore
	$(GO) test -run '^$$' -bench 'BenchmarkEngineContact|BenchmarkElectionWindow' -benchtime 10x ./internal/engine
	$(GO) test -run '^$$' -bench BenchmarkAdapterContact -benchtime 10x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkEncodeTo$$|BenchmarkDecodeInto$$|BenchmarkPopulationCodec$$|BenchmarkPopulationWireSize$$' -benchtime 10x ./internal/tcbf
	$(GO) test -run '^$$' -bench 'BenchmarkStreamNext$$' -benchtime 10x ./internal/tracegen

# determinism is the quick-mode sharded-runner gate: the same seeded scale
# config must produce byte-identical reports at workers=1 and workers=8
# (bsub-sim -nodes included), across epoch widths, and streamed vs
# materialized, for B-SUB and the PUSH/PULL baselines (DESIGN.md §11).
determinism:
	$(GO) test -count=1 -short -run 'TestShardedDeterminism|TestStreamedMatchesMaterialized|TestNodesDeterministicAcrossWorkers|TestBaselinesShardedDeterminism' \
		./internal/sim ./cmd/bsub-sim ./internal/protocol

# artifacts regenerates every checked-in result of the evaluation — Tables
# I-II, Figs. 7-9, the memory, analysis and allocation tables and the
# seven ablation grids — as one CSV per table in artifacts/ (seed 1, full
# fixtures; about a minute on 2 vCPUs). EXPERIMENTS.md quotes these files
# and nothing else.
artifacts:
	$(GO) run ./cmd/experiments -csv artifacts

# perfbench-test vets the benchmark module and runs its own tests (about
# 5 s): the tracing decorators must stay transparent to the simulator's
# reports and the loopback mesh must deliver exactly once, so an engine
# change that breaks either fails the gate, not the benchmark run. The
# module is nested, so `make vet` does not reach it.
perfbench-test:
	cd perfbench && GOFLAGS=-mod=mod $(GO) vet ./...
	cd perfbench && GOFLAGS=-mod=mod $(GO) test ./...

# check is the PR gate: gofmt cleanliness, vet (plus the shadow pass),
# the repo-specific analyzers, the quick sharded-determinism gate, the
# full suite under the race detector with claim-leak panics on (sim/live
# parity and the chaos suite included), the allocation guards, then the
# mesh churn controller, a fuzz smoke pass over the wire decoders, the
# engine state machine, the TCBF differential model (bare and
# partitioned) and the fabric, the golden-CSV comparisons, a
# benchmark smoke run, and the benchmark module's vet and tests. The
# livenode session adapter and the mesh daemon are concurrent; never
# ship them unraced.
check: fmt-check vet vet-shadow lint determinism race allocs chaos-mesh fuzz golden bench-smoke perfbench-test

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
