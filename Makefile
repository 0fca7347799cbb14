# Developer and CI entry points. `make verify` is the tier-1 gate;
# `make check` adds vet, lint, formatting, and the race detector (on the
# concurrency-sensitive subset) on top. CI splits verify / race /
# fuzz-smoke into parallel jobs (.github/workflows/ci.yml).

GO ?= go

# Packages exercising concurrency-sensitive code under the race
# detector: the server guard stack and e2e chaos test, the metrics
# registry (including span trees and sliding-window rotation), the
# fault-injection hooks, the cancellation paths of the core retriever
# and the scan baselines, the sharded execution engine and its kernels,
# and the open-loop load generator's concurrent senders, plus the query
# planner (EWMA calibration under the server's concurrent searches) and
# the method registry its candidates come from. `make race` runs
# everything.
RACE_PKGS = ./internal/server/... ./internal/obs/... ./internal/faults/... ./internal/core/... ./internal/scan/... ./internal/engine/... ./internal/load/... ./internal/snap/... ./internal/plan/... ./internal/method/...

# Packages and tests the flake sweep repeats: the snapshot round trips,
# cancellation and deadline suites, and the concurrent-reader tests —
# the ones whose outcome could depend on scheduling. `make flake` runs
# each 50 times; any failure is a determinism bug, not noise.
FLAKE_PKGS = ./internal/core ./internal/lemp ./internal/balltree ./internal/covertree ./internal/server
FLAKE_RUN = Snapshot|Cancel|Deadline|ConcurrentSearches|Readers

# Per-target budget for the fuzz smoke (`go test -fuzz` accepts exactly
# one target per invocation).
FUZZTIME ?= 10s

.PHONY: all verify build test check vet lint lint-race perf-gate perf-facts fmt-check precommit race race-subset flake fuzz-smoke bench bench-shard load-smoke

all: check

## verify: the tier-1 gate — build everything, run every test.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## check: verify + static analysis + formatting + race detector on the
## concurrency-sensitive subset (fast enough for a local loop; CI also
## runs the full `make race`).
check: verify vet lint perf-gate fmt-check race-subset

vet:
	$(GO) vet ./...

## lint: project-specific static analysis. fexlint enforces FEXIPRO's
## exactness, concurrency, and telemetry invariants (float comparisons,
## stage-counter discipline, RNG seeding, discarded errors, cancellable
## scan loops, kernel threshold contracts, bound-to-threshold dataflow,
## lock-hold discipline, //fex:hot allocation freedom, lock-order
## deadlock candidates, goroutine join edges, //fex:guard field
## enforcement). Exits 0 clean / 1 findings / 2 load error. The only
## suppression is an inline `//lint:ignore <analyzer> reason`; one that
## names an unregistered analyzer or gives no reason is itself a
## finding. See DESIGN.md §12.
lint:
	$(GO) run ./cmd/fexlint ./...

## lint-race: the lint driver's own tests under the race detector — the
## parallel loader (single-flight import cache, serialized stdlib
## importer) and the parallel per-unit analysis phase are themselves
## concurrency-sensitive code.
lint-race:
	$(GO) test -race ./internal/lint/...

## perf-gate: compiler-fact perf contracts (DESIGN.md §14). Runs the
## real compiler with `-gcflags='-m -d=ssa/check_bce'` and checks the
## diagnostics against the committed .fexperf-facts.json: //fex:hot
## loops must stay free of heap escapes, their bounds-check counts may
## only ratchet down, and //fex:inline kernels must stay inlinable.
## Skips (exit 0, with a reason) on toolchain skew; regenerate the
## manifest with `make perf-facts` after an intentional change.
perf-gate:
	$(GO) run ./cmd/fexlint -perf ./...

## perf-facts: regenerate .fexperf-facts.json from the current tree and
## toolchain. Commit the result; CI diffs against it.
perf-facts:
	$(GO) run ./cmd/fexlint -write-perf-facts ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## precommit: the fast pre-push gate — formatting, vet, and fexlint,
## failing at the first broken step. Run this before every commit.
precommit: fmt-check vet lint

## race: full test suite under the race detector.
race:
	$(GO) test -race ./...

## race-subset: the race detector on the packages where it earns its
## keep (see RACE_PKGS above); what `make check` runs locally.
race-subset:
	$(GO) test -race $(RACE_PKGS)

## flake: repeat the scheduling-sensitive tests 50 times
## (tier-1 must be deterministic; see FLAKE_RUN above).
flake:
	$(GO) test -count=50 -run '$(FLAKE_RUN)' $(FLAKE_PKGS)

## fuzz-smoke: run each fuzz target for FUZZTIME on top of the committed
## regression corpus (internal/data/testdata/fuzz). New crashers found
## here should be committed as corpus seeds.
fuzz-smoke:
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadMatrixBinary -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/data -run='^$$' -fuzz=FuzzReadMatrixCSV -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/engine -run='^$$' -fuzz=FuzzPartitionRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snap -run='^$$' -fuzz=FuzzSnapshotLoad -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/snap -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME)

## load-smoke: fexload in self-contained mode — it starts an in-process
## fexserve over a synthetic catalog, offers a short open-loop workload
## with interleaved mutations, and must produce a well-formed fexload/v1
## -slojson report (fexload itself validates the report and exits
## non-zero otherwise; the grep pins the schema tag on disk).
load-smoke:
	$(GO) run ./cmd/fexload -items 500 -dim 8 -rate 300 -duration 2s \
		-mutate-every 10 -burst-every 1s -burst-dur 250ms -burst-factor 2 \
		-slojson fexload-smoke.json
	@grep -q '"schema": "fexload/v1"' fexload-smoke.json || \
		{ echo "load-smoke: report missing fexload/v1 schema tag"; exit 1; }
	@rm -f fexload-smoke.json

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

## bench-shard: the sharded execution engine benchmark (sequential
## retriever vs engine at several shard counts), then a sharded
## -statsjson dump whose per-stage counters can be diffed field by field
## against a sequential run of the same workload.
bench-shard:
	$(GO) test -bench=BenchmarkShardedSearch -benchtime=1x -run='^$$' .
	$(GO) run ./cmd/fexbench -statsjson -profiles movielens -items 5000 -queries 20 -k 10 -methods F-SIR -shards 8 -workers 4
