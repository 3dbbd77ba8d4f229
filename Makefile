GO ?= go

.PHONY: build test vet staticcheck race check bench bench-module fuzz examples serve-smoke scheduler-smoke openworld-smoke flow-equiv

build:
	$(GO) build ./...

test:
	$(GO) test ./...

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

# Race-detect the whole module: psrpc runs real goroutines and sockets,
# and sweep's parallel Engine drives concurrent simulations (now
# including the collective workload), so nothing is exempt.
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

# scheduler-smoke runs the online cluster-scheduler sweep at smoke
# scale through the real experiments CLI, so the placement x end-host
# policy grid can't rot between releases.
scheduler-smoke:
	$(GO) run ./cmd/experiments -steps 300 -only scheduler -parallel 4

# openworld-smoke runs the open-world sweep at smoke scale through the
# real experiments CLI: arrival process x host heterogeneity x end-host
# policy over one unified PS+collective arrival stream.
openworld-smoke:
	$(GO) run ./cmd/experiments -steps 300 -only openworld -parallel 4

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

check: build vet staticcheck test race bench-module examples serve-smoke scheduler-smoke openworld-smoke flow-equiv

# bench writes BENCH_sweep.json: trials/sec through the sequential and
# parallel Engine paths, plus ns/event and allocs/event in the kernel.
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
