# Developer entry points. `make ci` is what the repository considers a
# green build: vet + race-enabled tests + a short fuzz pass + one pass
# over every benchmark + the vitdynd daemon and fleet smoke tests + vet
# and tests of the nested vitbench module + a short checked run of its
# cold workload.

GO ?= go
# bench-json pipes `go test` through tee; pipefail keeps a crashed
# benchmark run from exiting 0 and sneaking past the regression gate.
SHELL := /bin/bash
# Commit id stamped into the bench artifact name (bench-json target).
SHA ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo local)
# Previous artifact to diff against (missing file = no delta, not an error).
BENCH_BASELINE ?= .benchcache/BENCH_latest.json
# Bench-regression gate: fail bench-json when any benchmark regresses
# more than this percent vs the baseline (warn-only when no baseline).
BENCH_GATE ?= 25
# Allocation gate: fail bench-json when any benchmark's allocs/op grows
# more than this percent — or at all on a zero-alloc benchmark. Alloc
# counts are deterministic, so this gate has no noise floor.
BENCH_GATE_ALLOCS ?= 25
# Samples per benchmark for the gated run; benchjson keeps the fastest,
# so min-of-N absorbs one-off scheduler noise on shared CI runners.
BENCH_COUNT ?= 3
# Serving-latency harness (load / bench-json targets): open-loop arrival
# rate and measured duration for tools/loadgen.
LOAD_RATE ?= 200
LOAD_DURATION ?= 2s
# Pinned static-analysis tool versions (lint target). Pinning keeps CI
# reproducible: a new staticcheck release cannot break the build until
# the pin moves.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race fuzz bench bench-json vet lint smoke fleet-smoke vitbench vitbench-smoke load load-profile cover ci clean clean-store

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A short fuzz pass over catalog-spec canonicalization: every spec a
# request can carry must fold idempotently, keep a negative step (which
# Seq rejects), and name the same candidates as every spec folding to the
# same form. New failing inputs land in internal/core/testdata/fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpecCanonical$$' -fuzztime 10s ./internal/core

# One iteration per benchmark: regenerates every paper table/figure via
# the root harness and exercises the sequential-vs-parallel sweep
# comparison in internal/engine. -benchmem everywhere: B/op and
# allocs/op ride along into benchjson artifacts, so the alloc gate can
# hold the warm serving paths at zero.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Persist the bench run as BENCH_<sha>.json, print a delta against
# $(BENCH_BASELINE) when that file exists (CI caches it between runs),
# and fail when any benchmark regressed more than $(BENCH_GATE)%.
# $(BENCH_COUNT) samples per benchmark, min-of-N at parse time: the
# gate compares best-case timings, not one noisy sample.
bench-json:
	set -o pipefail; $(GO) test -run '^$$' -bench=. -benchtime=1x -benchmem -count=$(BENCH_COUNT) ./... | tee bench.txt
	set -o pipefail; $(GO) run ./tools/loadgen -bench -rate $(LOAD_RATE) -duration $(LOAD_DURATION) | tee -a bench.txt
	$(GO) run ./tools/benchjson -in bench.txt -out BENCH_$(SHA).json -baseline $(BENCH_BASELINE) -gate $(BENCH_GATE) -gate-allocs $(BENCH_GATE_ALLOCS)

# Static checks: go vet plus gofmt drift (a non-empty gofmt -l listing
# fails the build).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Deep static analysis, beyond vet: staticcheck (correctness + style
# classes SA/S/ST) and govulncheck (known-vulnerable call paths in the
# dependency graph — trivially green here while the module has no
# third-party deps, but the gate is in place before any arrive). Both
# run via `go run` at pinned versions, so the lane needs no toolchain
# preinstall; network access to proxy.golang.org is required, which is
# why lint is its own CI job rather than part of `make ci`.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Daemon smoke tests: boot vitdynd on a random port, hit /healthz, one
# /v1/profile and a /v1/replay round trip, shut it down gracefully —
# then restart it against the same -store-path and assert the cost
# store warm-boots (loaded entries in /statsz, first catalog request
# all hits, zero backend evaluations).
smoke:
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestDaemonWarmBoot' ./cmd/vitdynd

# Fleet smoke test, pinned under -race: boot three in-process daemons
# wired with -peers (A durable, B pulling from A, C only from B), price
# a catalog on A, assert B and C serve it with zero backend
# evaluations, kill A and assert it is quarantined while the survivors
# keep converging, then restart A and assert the quarantine lifts.
fleet-smoke:
	$(GO) test -race -count=1 -timeout 300s -run 'TestFleet' ./cmd/vitdynd

# Serving-latency check: boot an in-process server, offer an open-loop
# catalog/replay/batch mix at $(LOAD_RATE)/s for $(LOAD_DURATION), print
# p50/p99/p999 per kind. -scrape also parses /metrics before and after
# the run — exit 1 on an invalid exposition — so every load run doubles
# as an exposition-format smoke test. bench-json runs the same harness
# with -bench so the percentiles land in BENCH_<sha>.json under the
# regression gate.
load:
	$(GO) run ./tools/loadgen -rate $(LOAD_RATE) -duration $(LOAD_DURATION) -scrape

# Allocation profile under load: boot vitdynd with its pprof listener,
# drive the standard mix against it while loadgen captures a delta
# allocs profile spanning the run from -debug-addr, then shut the
# daemon down. Inspect with `go tool pprof $(LOAD_PROFILE_OUT)` — the
# warm serving paths should be absent (they allocate nothing); what
# remains is cold builds and HTTP plumbing.
LOAD_HOST ?= 127.0.0.1
LOAD_PORT ?= 8321
LOAD_DEBUG_PORT ?= 8322
LOAD_PROFILE_OUT ?= allocs.pprof
load-profile:
	$(GO) build -o bin/vitdynd ./cmd/vitdynd
	./bin/vitdynd -addr $(LOAD_HOST):$(LOAD_PORT) -debug-addr $(LOAD_HOST):$(LOAD_DEBUG_PORT) -quiet & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		(exec 3<>/dev/tcp/$(LOAD_HOST)/$(LOAD_PORT)) 2>/dev/null && break; sleep 0.1; \
	done; \
	$(GO) run ./tools/loadgen -addr $(LOAD_HOST):$(LOAD_PORT) -rate $(LOAD_RATE) -duration $(LOAD_DURATION) \
		-profile http://$(LOAD_HOST):$(LOAD_DEBUG_PORT) -profile-out $(LOAD_PROFILE_OUT)

# Test coverage: atomic-mode profile over every package plus the
# per-function summary; cover.out feeds `go tool cover -html` locally.
# tools/ (the loadgen and benchjson CLIs) is excluded: those are CI
# harnesses exercised by the load and bench-json targets themselves, and
# counting their untested main funcs misstates library coverage.
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out $$($(GO) list ./... | grep -v '^vitdyn/tools')
	$(GO) tool cover -func=cover.out | tail -n 1

# The benchmark harness is a nested module (vitbench/go.mod), so
# `./...` never reaches it. It compiles against serve, engine and costdb
# APIs; vetting and testing it here keeps a refactor of those packages
# from breaking the benchmark while every other target stays green.
vitbench:
	$(GO) -C vitbench vet ./...
	$(GO) -C vitbench test ./...

# End-to-end correctness gate for cold builds: two seconds of the
# benchmark's cold workload against a real vitdynd. Every response is
# checked — including the post-timing re-read through the response
# cache and an in-process rebuild compared byte for byte — and the run
# exits 1 if any check fails.
vitbench-smoke:
	bash vitbench/run.sh --workload cold --seed 1 --seconds 2

ci: vet race fuzz bench smoke fleet-smoke vitbench vitbench-smoke

clean:
	$(GO) clean ./...

# Local hygiene: remove the durable cost-store directories the README
# examples use for vitdynd -store-path / rddsim -cache-path.
clean-store:
	rm -rf .vitdyn-store
