# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short check chaos bench golden-paper golden-multicore golden-adaptive train experiments tools clean

all: build vet test

# PR gate: vet + full build + race-checked tests for the concurrent
# runner, the simulation service, the tiered result store, the fleet
# client, the multi-core system (parallel per-quantum core loop), the
# machine shell pool (its pristine shells are shared across goroutines)
# and their callers, plus the chaos fault-injection e2e suite. An
# adts-sweep pass shares one checkpoint and one Record path across every
# experiment's concurrent runs, so the experiments' resume, checkpoint
# and plan tests run under -race too (the whole package is too slow).
# check_fma.sh cross-compiles for arm64, ppc64le, s390x and riscv64 and
# fails on any fused multiply-add (DESIGN.md §6).
check:
	$(GO) vet ./...
	$(GO) build ./...
	./scripts/check_fma.sh
	$(GO) test -race ./internal/runner ./internal/stats ./internal/simrun ./internal/resultstore ./internal/simserver ./internal/fleet ./internal/multicore ./internal/pipeline ./internal/core
	$(GO) test -race -run 'Resume|Checkpoint|Plan' ./internal/experiments
	$(MAKE) chaos

# Chaos suite: deterministic fault injection end to end (docs/chaos.md).
# Build-tagged so `go test ./...` stays fast.
chaos:
	$(GO) test -race -tags chaos ./internal/chaos/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Reduced-scale regeneration of every table/figure plus ablations and
# microbenchmarks (minutes). Full-scale runs: see `experiments`.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate (or, in CI, verify — see .github/workflows/ci.yml) the
# committed golden paper result: Table 1, Figures 7 and 8 and the oracle
# bound (ADTS Types 1–4 vs fixed ICOUNT over every mix) at quick scale,
# byte-identical on every machine. No -workers: the JSON echoes it.
golden-paper: tools
	./bin/adts-sweep -table1 -fig7 -fig8 -oracle -quanta 8 -intervals 1 -json > docs/results/paper-golden.json

# Regenerate (or, in CI, verify — see .github/workflows/ci.yml) the
# committed golden multi-core experiment: a quick 2-core allocation
# comparison whose JSON must be byte-identical on every machine.
golden-multicore: tools
	./bin/adts-sweep -multicore -cores 2 -mixes kitchen-sink,int-memory,mixed-lowipc -quanta 8 -intervals 1 -json > docs/results/multicore-golden.json

# Regenerate (or, in CI, verify) the committed golden adaptive-selector
# experiment: a quick bandit/UCB/learned-vs-static comparison whose JSON
# must be byte-identical on every machine (docs/adaptive.md).
golden-adaptive: tools
	./bin/adts-sweep -adaptive -adaptive-threads 4 -adaptive-cores 1,2 -mixes kitchen-sink,int-memory,mixed-lowipc -quanta 8 -intervals 1 -json > docs/results/adaptive-golden.json

# Retrain the committed learned-selector table from a fixed-policy sweep
# (docs/adaptive.md). Deterministic: same flags, byte-identical table.
train: tools
	./bin/adts-train -out internal/adaptive/learned_table.json

# Full-scale experiment suite (tens of minutes single-core); writes the
# tables EXPERIMENTS.md is based on to stdout.
experiments: tools
	./bin/adts-sweep -all -quanta 64 -intervals 3

tools:
	mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
