GO ?= go

.PHONY: all build test race vet lint check bench-json scaling clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...

# lint runs the project's own analyzer suite (see DESIGN.md, "Checked
# invariants"). CI fails on any diagnostic; suppress a justified finding
# with `//lint:ignore gpflint/<name> reason`.
lint:
	$(GO) run ./cmd/gpflint ./...

check: build vet lint test

# bench-json emits the benchmark archive for the current PR (see
# EXPERIMENTS.md): the pipelined-shuffle WGS run + I/O-model micro +
# projection pushdown + the planner's declared-vs-undeclared decode/wire
# comparison + per-column codec micro + the per-kernel reference-vs-optimized
# pairs + the multi-process shuffle transport, as machine-readable test2json
# events. Override BENCH_N to write a different archive generation.
BENCH_N ?= 10
BENCH_FILE = BENCH_$(BENCH_N).json

bench-json:
	$(GO) test -json -run '^$$' -bench 'BenchmarkAblationPipelinedShuffle|BenchmarkShuffleMicro|BenchmarkProjectionPushdown|BenchmarkProjectionPlanner' -benchtime 3x . > $(BENCH_FILE)
	$(GO) test -json -run '^$$' -bench 'BenchmarkColumnar' -benchtime 100x ./internal/colfmt >> $(BENCH_FILE)
	$(GO) test -json -run '^$$' -bench 'BenchmarkKernel' -benchmem -benchtime 1s ./internal/caller ./internal/cleaner ./internal/align ./internal/genome ./internal/compress >> $(BENCH_FILE)
	$(GO) test -json -run '^$$' -bench 'BenchmarkShuffleTransport' -benchtime 3x ./internal/engine/exec/mproc >> $(BENCH_FILE)

# scaling regenerates the measured-vs-predicted multi-process curve quoted in
# EXPERIMENTS.md (W = 1, 2, 4, 8 worker processes over the TCP transport next
# to the simulator oracle's prediction).
scaling:
	$(GO) run ./cmd/gpf-bench -exp scaling

clean:
	$(GO) clean ./...
