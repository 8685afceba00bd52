# CacheMind build/CI entry points. CI (.github/workflows/ci.yml) runs
# exactly these targets, so a green `make ci` locally means a green PR.

GO ?= go

.PHONY: all build test race servebench-test bench fuzz fmt vet lint lint-smoke staticcheck govulncheck loadgen loadgen-sweep loadgen-prefetch loadgen-cluster profile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# servebench (the repo benchmark) is a nested module, so `go test ./...`
# at the root never reaches it; it compiles against engine.Config,
# engine.Request, Stats and CustomRetriever, so an engine API change
# must keep it building and its tests passing.
servebench-test:
	cd servebench && $(GO) vet ./... && $(GO) test ./...

# One pass over every benchmark: the reproduction record plus the
# serial/parallel build and evaluate pairs, and the semantic-tier scan
# kernel at 64, 128 and 256 resident entries.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .
	$(GO) test -bench=BenchmarkIndexBestVec -benchtime=1x -run='^$$' ./internal/embed

# fmt fails (listing the offending files) when anything is not
# gofmt-clean, matching the CI check.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet runs twice: once plainly, and once with the `race` build tag so
# files the race job compiles (go test -race implies -tags race) are
# vetted under the same tag set — vet/race parity.
vet:
	$(GO) vet ./...
	$(GO) vet -tags race ./...

# lint builds cachemindlint (internal/lint: three invariant-enforcing
# analysis passes — determinism, ctxflow, lockscope; see
# ARCHITECTURE.md "Enforced invariants")
# and runs it through go vet's -vettool protocol over every package,
# twice for vet/race parity exactly like the stock `vet` target.
lint:
	$(GO) build -o bin/cachemindlint ./cmd/cachemindlint
	$(GO) vet -vettool=bin/cachemindlint ./...
	$(GO) vet -vettool=bin/cachemindlint -tags race ./...

# lint-smoke proves the CI wiring can fail: it runs the vettool against
# a known-bad scratch module and asserts the nonzero exit. A silently
# pass-through -vettool (wrong path, protocol drift) fails here, not in
# production.
lint-smoke:
	bash scripts/lint_smoke.sh

# staticcheck/govulncheck run when the binaries are installed (CI
# installs pinned versions; the hermetic local container has no module
# network, so absence skips with a notice rather than failing the run).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs it pinned)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs it pinned)"; \
	fi

# Short coverage-guided fuzz of the semantic parser (the surface
# cachemindd exposes to untrusted HTTP input), and of the semantic
# scan's bit-identity with the Cosine loop. FUZZTIME is overridable for
# longer local campaigns.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/nlu
	$(GO) test -run='^$$' -fuzz=FuzzBestVecMatchesCosine -fuzztime=$(FUZZTIME) ./internal/embed

# The CI perf gate: a short fixed-seed closed-loop load against an
# in-process engine. Writes BENCH_loadgen.json (throughput, p50/p95/p99
# latency, cache hit rate split by tier, canceled count); -strict fails
# the target on any request error, zero throughput, or a run with zero
# answered questions. -request-timeout runs every ask under a real
# context deadline — generous enough that nothing should cancel (the
# artifact's "canceled" field is expected to be 0), so the gate
# exercises the cancellation plumbing without tripping itself. The
# paraphrase-group mix against a 0.85 semantic threshold keeps the
# semantic tier under load (the artifact's semantic_hit_rate should be
# nonzero). Knobs overridable for longer local runs.
#
# The run warms the cache first (-warmup, discarded from every measured
# number) and then enforces thresholds, not just records them: a
# throughput floor, a p99 ceiling, and an allocs/op budget on the cached
# exact-hit ask. The levels carry ~2x headroom over a healthy run on the
# CI runners — loose enough to ride out shared-runner noise, tight
# enough that a real regression (a lost zero-alloc path, a serialized
# shard) fails the gate instead of drifting into the trend line.
LOADGEN_N ?= 2000
LOADGEN_C ?= 8
LOADGEN_TIMEOUT ?= 10s
LOADGEN_WARMUP ?= 256
LOADGEN_MIN_QPS ?= 2000
LOADGEN_MAX_P99_MS ?= 10
LOADGEN_MAX_ALLOCS ?= 2
loadgen:
	$(GO) run ./cmd/loadgen -n $(LOADGEN_N) -c $(LOADGEN_C) -seed 42 -repeat 0.5 \
		-paraphrase 0.3 -semantic-threshold 0.85 -warmup $(LOADGEN_WARMUP) \
		-min-qps $(LOADGEN_MIN_QPS) -max-p99-ms $(LOADGEN_MAX_P99_MS) -max-allocs $(LOADGEN_MAX_ALLOCS) \
		-accesses 4000 -request-timeout $(LOADGEN_TIMEOUT) -strict -out BENCH_loadgen.json

# The policy sweep: the same fixed-seed mix replayed under every
# registered answer-cache eviction policy (the serving-side analogue of
# the paper's policy-comparison figures). A smaller question count than
# the main gate — the sweep multiplies it by the policy count. -strict
# fails on any request error, and on any policy row with errors or zero
# answered questions; the run itself fails if any policy's answers
# diverge byte-wise from the others. Deliberately exact-only: a live
# semantic tier serves residency-dependent neighbor answers, which
# would make the cross-policy digest check diverge by design (loadgen
# rejects the combination).
SWEEP_N ?= 500
loadgen-sweep:
	$(GO) run ./cmd/loadgen -policy-sweep -n $(SWEEP_N) -c $(LOADGEN_C) -seed 42 -repeat 0.5 \
		-cache 64 -accesses 4000 -request-timeout $(LOADGEN_TIMEOUT) -strict -out BENCH_loadgen_sweep.json

# The prefetch gate: scripted follow-up sessions (-session-replay)
# against a deliberately small cache with the predictive prefetcher on.
# Interleaved sessions leave a many-ask window between one session's
# turns, which the background prefetcher fills; the small cache forces
# the evictions that make coverage observable (a prefetched entry
# re-warming a line demand traffic pushed out). The gate holds the same
# qps/p99/allocs bar as the main run — prefetching must not tax the
# foreground path — plus a covered_miss_rate floor, set well below a
# healthy run's rate so it catches a dead predictor, not workload noise.
PREFETCH_SESSIONS ?= 64
PREFETCH_TURNS ?= 8
PREFETCH_MIN_COVERED ?= 0.005
loadgen-prefetch:
	$(GO) run ./cmd/loadgen -session-replay -prefetch -sessions $(PREFETCH_SESSIONS) \
		-session-turns $(PREFETCH_TURNS) -follow 0.9 -c $(LOADGEN_C) -seed 42 \
		-n $$(( $(PREFETCH_SESSIONS) * $(PREFETCH_TURNS) * 4 )) -cache 48 -warmup 512 \
		-min-covered-rate $(PREFETCH_MIN_COVERED) \
		-min-qps $(LOADGEN_MIN_QPS) -max-p99-ms $(LOADGEN_MAX_P99_MS) -max-allocs $(LOADGEN_MAX_ALLOCS) \
		-accesses 4000 -request-timeout $(LOADGEN_TIMEOUT) -strict -out BENCH_loadgen_prefetch.json

# The cluster gate: a 3-node consistent-hash cluster (fixed ports
# 18081-18083, durable 2s checkpoints) driven by multi-target loadgen.
# The script asserts the three cluster contracts — the 3-node run's
# answer digest matches a 1-node run byte for byte, a kill -9 of one
# node mid-run completes with zero question errors (client failover +
# server-side local fallback), and the killed node restarts from its
# checkpoint serving identical session views. Writes
# BENCH_loadgen_cluster.json (and _kill.json), uploaded by CI.
loadgen-cluster:
	bash scripts/loadgen_cluster.sh

# Profiles of the perf-gate workload: the same warmed fixed-seed run as
# `make loadgen` with pprof capture on. Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`; CI uploads both
# as artifacts so a gate failure comes with its own profile attached.
profile:
	$(GO) run ./cmd/loadgen -n $(LOADGEN_N) -c $(LOADGEN_C) -seed 42 -repeat 0.5 \
		-paraphrase 0.3 -semantic-threshold 0.85 -warmup $(LOADGEN_WARMUP) \
		-accesses 4000 -request-timeout $(LOADGEN_TIMEOUT) \
		-cpuprofile cpu.pprof -memprofile mem.pprof -out BENCH_loadgen_profile.json

ci: build fmt vet lint lint-smoke race servebench-test bench fuzz loadgen loadgen-sweep loadgen-prefetch loadgen-cluster
