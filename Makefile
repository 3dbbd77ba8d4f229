GO ?= go

.PHONY: build fmt test vet staticcheck race check bench bench-module layer-bench-smoke fuzz examples serve-smoke runner-smoke flow-equiv

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; local
# environments without it skip rather than fail).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Race-detect the whole module: sweep's parallel Engine drives
# concurrent simulations and tlsimd serves jobs from worker goroutines,
# so nothing is exempt.
race:
	$(GO) test -race -timeout 45m ./...

# examples builds every example and smoke-runs quickstart, so doc code
# paths can't rot silently.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart

# serve-smoke boots a real tlsimd, submits a tiny experiment with
# tlctl, checks dedup + metrics, and SIGTERM-drains it.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# runner-smoke drives every front end of the sweep package's scenario
# runner at smoke scale through the real CLIs: churn's pinned arrivals,
# the fault-recovery grid, the scheduler and open-world online trials,
# and faults on a mixed PS plus collective run. Each experiment also
# writes its CSV through -csvdir; a missing or empty file fails. A
# traced TLs-RR tlsim run must write a non-empty event trace that
# records tc configurations and no rejected tc command. An open-world
# run with -util must be refused: online trials do not sample
# utilization.
runner-smoke:
	d=$$(mktemp -d) || exit 1; \
	for e in churn faultrec scheduler openworld; do \
		$(GO) run ./cmd/experiments -steps 300 -only $$e -parallel 4 -csvdir $$d || exit 1; \
		test -s $$d/$$e.csv || { echo "runner-smoke: $$d/$$e.csv missing or empty"; exit 1; }; \
	done; \
	$(GO) run ./cmd/tlsim -steps 300 -policy rr -trace $$d/trace.csv || exit 1; \
	test -s $$d/trace.csv || { echo "runner-smoke: $$d/trace.csv missing or empty"; exit 1; }; \
	grep -q ',tc_config,' $$d/trace.csv || { echo "runner-smoke: no tc_config row in $$d/trace.csv"; exit 1; }; \
	! grep -q ',tc_error,' $$d/trace.csv || { echo "runner-smoke: tc_error row in $$d/trace.csv"; exit 1; }; \
	rm -rf $$d
	$(GO) run ./cmd/tlsim -steps 300 -workload mixed -fault-crash 0:3:2,1000:1:2 -fault-flap-ps
	! $(GO) run ./cmd/tlsim -arrivals poisson -util -steps 300

# flow-equiv runs the golden equivalence harness: every golden config is
# simulated on both the chunk fabric and the analytic flow fabric and the
# per-job JCTs must agree within the documented tolerance (DESIGN.md §13).
flow-equiv:
	$(GO) test ./internal/sweep -run '^TestFlowEquiv' -count=1 -v

# bench-module vets and tests the benchmark/ module. It is a separate Go
# module, so the root `go build ./...` never compiles it; without this
# target a removed or renamed API it calls would break it silently.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# layer-bench-smoke runs every qdisc and flownet microbenchmark, the
# kernel's benchmarks and the trial and chunk-fabric benchmarks once
# each with -benchmem, so the layer benchmarks keep compiling and
# running and the allocation counts they report stay in view.
layer-bench-smoke:
	$(GO) test ./internal/qdisc ./internal/flownet -run '^$$' -bench . -benchtime 1x -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench . -benchtime 1x -benchmem
	$(GO) test ./internal/sweep -run '^$$' -bench 'BenchmarkTrial$$|BenchmarkFabricChunk' -benchtime 1x -benchmem

check: build fmt vet staticcheck test race bench-module layer-bench-smoke examples serve-smoke runner-smoke flow-equiv

# bench writes BENCH_sweep.json: trials/sec through the sequential and
# parallel Engine paths, plus ns/event and allocs/event in the kernel.
# To compare the working tree with an earlier commit on workloads of
# the benchmark/ module, run alternating pairs and their compare with
#   bash scripts/bench_pairs.sh REV WORKLOAD[,WORKLOAD...] [PAIRS [SEED]]
# (default 10 pairs on seed 1; one compare per workload).
bench:
	$(GO) run ./cmd/bench -steps 600 -trials 8 -parallel 4 -out BENCH_sweep.json

# fuzz smoke-runs each fuzz target briefly (go permits one -fuzz
# pattern per invocation). The committed seed corpora always run as part
# of plain `go test`; this shoves randomized inputs on top.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/qdisc -run '^$$' -fuzz '^FuzzClassifier$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qdisc -run '^$$' -fuzz '^FuzzHTBDequeue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/policy -run '^$$' -fuzz '^FuzzPolicyRank$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flownet -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flownet -run '^$$' -fuzz '^FuzzEngineOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzKernelOrder$$' -fuzztime $(FUZZTIME)
