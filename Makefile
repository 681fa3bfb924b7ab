# Convenience targets for the YAP repository. Everything is plain `go`
# underneath; the targets just bundle the common invocations.

GO ?= go

.PHONY: all build vet lint test test-race chaos dist jobs stream ha layout cache bench cover figures report serve clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (see internal/lint): determinism,
# unit-safety, ctx-propagation, err-wrap and no-naked-panic rules.
# Suppress a legitimate site with `//yaplint:allow <rule> [reason]`.
lint:
	$(GO) run ./cmd/yaplint ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Chaos drill: the fault-injection and resilience tests under the race
# detector, with an aggressive YAP_FAULTS plan steering the chaos suite
# (tests that build their own injectors are unaffected), then a load
# drill against an in-process server armed with the same plan, which must
# end with every invariant held. See internal/faultinject for the spec
# grammar.
CHAOS_FAULTS ?= seed=7,service.cache.get=0.15:error,service.cache.put=0.15:error,service.pool.admit=0.05:error,sim.w2w.wafer=0.03:error,sim.w2w.wafer=0.03:delay:200us,sim.d2w.die=0.02:error,sim.d2w.die=0.01:panic
chaos:
	YAP_FAULTS='$(CHAOS_FAULTS)' $(GO) test -race -run 'Chaos|Fault' ./...
	$(GO) run ./cmd/yapload -n 300 -c 12 -faults '$(CHAOS_FAULTS)'

# Distributed-simulation drill: the shard-plan/merge determinism tests
# under the race detector, then the true multi-process topology via
# `yapload -dist` — three `yapserve -worker` processes (each a `yapload
# serve` child running yapserve's own wiring, internal/daemon.Run), one
# SIGKILLed mid-drill, coordinator-side dispatch faults (DIST_FAULTS) and
# worker-side sim faults (DIST_WORKER_FAULTS, inherited by the workers
# through the environment) — asserting bit-identical merges throughout. The tests
# run under the worker-side plan too: injected failures surface as shard
# reassignments that must not perturb the merged result by a single bit.
DIST_FAULTS ?= seed=5,dist.dispatch=0.1:error
DIST_WORKER_FAULTS ?= seed=11,sim.w2w.wafer=0.02:error,sim.d2w.die=0.01:error
dist:
	YAP_FAULTS='$(DIST_WORKER_FAULTS)' $(GO) test -race -run 'Merge|Plan|Coordinator|Registry|Shard|FirstSample|Distributor' ./internal/dist/ ./internal/sim/ ./internal/service/
	YAP_FAULTS='$(DIST_WORKER_FAULTS)' $(GO) run -race ./cmd/yapload -dist -dist-workers 3 -dist-faults '$(DIST_FAULTS)'

# Durable-jobs drill: the WAL/manager/service/client jobs tests under
# the race detector, then the true crash-recovery exercise via
# `yapload -jobs` — a `yapload serve -jobs-dir` daemon (yapserve's own
# wiring) SIGKILLed after its job has
# durably checkpointed, restarted over the same store, and required to
# finish with a result bit-identical to an uninterrupted run.
jobs:
	$(GO) test -race -run 'Job|WAL|Wal|Checkpoint|Crash|Resume|Recover' ./internal/jobs/ ./internal/service/ ./internal/client/
	$(GO) run -race ./cmd/yapload -jobs

# Streaming drill: the convergence/early-stop/SSE tests under the race
# detector, then the live watch exercise via `yapload -stream` — a paced
# job on a `yapload serve -jobs-dir` daemon (yapserve's own wiring)
# watched over SSE, the connection dropped mid-run and resumed from
# the last event ID, plus an epsilon-armed job that must stop early with
# the stop visible on /metrics.
stream:
	$(GO) test -race -run 'Stream|EarlyStop|Converge|Estimate|Rule|Subscribe' ./internal/converge/ ./internal/sim/ ./internal/jobs/ ./internal/service/ ./internal/client/
	$(GO) run -race ./cmd/yapload -stream

# High-availability drill: the replication/election tests under the race
# detector, then the true failover exercise via `yapload -ha` — a
# three-member cluster of `yapload serve -peers` daemons (yapserve's own
# wiring, so the members share a fleet cache) with replica-ship faults
# armed, the leader SIGKILLed mid-job, a follower required to win the
# election, resume the job from its replicated WAL and finish with a
# result bit-identical to an uninterrupted run, and a quorumless cluster
# required to refuse submissions rather than accept them.
ha:
	$(GO) test -race -run 'Replica|Election|Leader|Quorum|Failover|Sweep|Priority' ./internal/replica/ ./internal/jobs/ ./internal/service/ ./internal/client/
	$(GO) run -race ./cmd/yapload -ha

# Pad-layout drill: the YAP+ heterogeneous-region tests under the race
# detector — the layout validation/canonicalization unit tests, the
# bit-identity pins of the one evaluation path, where the uniform die is
# the one-region layout (the analytic golden tables and the Monte-Carlo
# golden replays, across shard counts and worker counts), and the
# end-to-end layout acceptance on the evaluate/simulate/jobs endpoints
# including crash-resume.
layout:
	$(GO) test -race -run 'Layout|Region|Uniform|PadArrayIn|CanonicalHash|ParamsEqual|Golden' ./internal/layout/ ./internal/wafer/ ./internal/overlay/ ./internal/core/ ./internal/sim/ ./internal/dist/ ./internal/service/

# Fleet-cache drill: the singleflight/rendezvous/peer-fetch/batch tests
# under the race detector, then the true multi-process dedup exercise via
# `yapload -cache` — a three-member fleet of `yapload serve -cache-peers`
# daemons (yapserve's own wiring) with peer-exchange delay faults armed, the same point set swept through
# /v1/evaluate/batch on every member, one member SIGKILLed mid-drill, and
# the fleet-wide engine-computation total (summed /metrics counters)
# required to stay ≈ the number of DISTINCT points, not members × points.
cache:
	$(GO) test -race -run 'Fleet|Flight|Batch|Cache|Herd|Rendezvous|Owner|LRU|Evaluate' ./internal/fleetcache/ ./internal/service/ ./internal/client/ ./internal/jobs/
	$(GO) run -race ./cmd/yapload -cache

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark record for the jobs durability layer
# (checkpoint append + WAL replay), one JSON event per line.
BENCH_jobs.json:
	$(GO) test -json -run '^$$' -bench 'BenchmarkJobs' -benchmem ./internal/jobs/ > $@

# Machine-readable benchmark record for the convergence layer (tally ->
# estimate/CI, stop-rule evaluation, checkpoint-ladder step), one JSON
# event per line. Committed so estimate-path perf
# regressions show up in review diffs.
BENCH_converge.json:
	$(GO) test -json -run '^$$' -bench '.' -benchmem ./internal/converge/ > $@

# Machine-readable benchmark record for the pad-layout kernels: one full
# W2W wafer / 1000 D2W dies at 1 region (the uniform-grid degenerate case)
# vs 8 heterogeneous regions. Committed so the per-region loop's overhead
# shows up in review diffs.
BENCH_layout.json:
	$(GO) test -json -run '^$$' -bench 'BenchmarkLayout' -benchmem ./internal/sim/ > $@

# Machine-readable benchmark record for the fleet cache: the local-hit
# fast path, a full verified peer fetch, and the batch endpoint end to
# end (256 points). Committed so cache-path perf regressions show up in
# review diffs.
BENCH_cache.json:
	$(GO) test -json -run '^$$' -bench 'BenchmarkEvaluateLocalHit|BenchmarkFleetFetch' -benchmem ./internal/fleetcache/ > $@
	$(GO) test -json -run '^$$' -bench 'BenchmarkBatchEvaluate' -benchmem ./internal/service/ >> $@

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper at paper scale
# (~20-30 min; results/ gets CSVs and PNGs).
figures:
	$(GO) run ./cmd/yapvalidate -exp all -sets 300 -wafers 200 -dies 5000 -out results
	$(GO) run ./cmd/yapcases -png results -csv results
	$(GO) run ./cmd/yapviz -out results/fig6_voidmap.png
	$(GO) run ./cmd/yapdesign -target 0.85 -window-png results/process_window.png

# Quick self-contained markdown report (reduced validation scale).
report:
	$(GO) run ./cmd/yapreport -out report

# Run the yield-as-a-service HTTP daemon on :8080.
serve:
	$(GO) run ./cmd/yapserve

clean:
	rm -rf results report test_output.txt bench_output.txt BENCH_jobs.json
