# Developer entry points; `make check` is the CI gate.

.PHONY: check build test race lint lockgraph fuzz benchgate microbench crash chaos shardchaos replchaos explain traceguard perfguard runtimemetrics fmt

check:
	./check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -shuffle=on ./...

lint:
	go run ./cmd/histlint ./...

# Regenerate the committed project-wide lock-acquisition graph
# (lockorder analyzer) as Graphviz DOT. Render with:
# dot -Tsvg lockgraph.dot -o lockgraph.svg
lockgraph:
	go run ./cmd/histlint -lockgraph lockgraph.dot ./...
	@echo "wrote lockgraph.dot"

fuzz:
	go test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/wal/
	go test -run='^$$' -fuzz=FuzzCSVWorkload -fuzztime=10s ./internal/workload/
	go test -run='^$$' -fuzz=FuzzShardMapParse -fuzztime=10s ./internal/shard/
	go test -run='^$$' -fuzz=FuzzSpanJSON -fuzztime=10s ./internal/trace/
	go test -run='^$$' -fuzz=FuzzRecLine -fuzztime=10s ./cmd/histserve/
	go test -run='^$$' -fuzz=FuzzDispatchLine -fuzztime=10s ./cmd/histserve/

# The load harness's oracle gate (same step as check.sh): each of the
# four BENCHMARK.json workloads for 3 s on the real binaries; run.sh
# exits non-zero when any answer disagrees with the oracle. Full runs
# and comparisons: see benchmark/README.md.
benchgate:
	benchmark/run.sh --workload read_converged --seed 1 --seconds 3
	benchmark/run.sh --workload mixed_live --seed 1 --seconds 3
	benchmark/run.sh --workload durable_ingest --seed 1 --seconds 3
	benchmark/run.sh --workload fleet_mixed --seed 1 --seconds 3

microbench:
	go test -bench=. -benchmem ./...

crash:
	go test -race -count=1 -v -run 'TestCrashRecoveryNoAcknowledgedLoss|TestCrashBetweenStageAndGroupFsync|TestFollowerKilledBetweenStageAndCommit' ./cmd/histserve/

chaos:
	go test -race -count=1 -v -run 'TestChaos' ./cmd/histserve/

# Multi-shard chaos: SIGKILL a historic shard behind a live histproxy
# mid-workload; answers must degrade to exact PARTIALs and recover to
# complete once the shard rejoins, without a proxy restart.
shardchaos:
	go test -race -count=1 -v -run TestShardChaosPartialAnswersAndRejoin ./cmd/histproxy/

# Replication chaos: SIGKILL a semi-sync primary under live proxy load
# pipelined at depth 4 (three INS and a QRY per window, so the kill
# lands in a mixed unit); every line of the killed unit gets one reply,
# no acked write may be lost, reads must stay exact and complete via the
# WAL-shipped replica, and the promoted replica must take writes within
# the prober's failover interval. With it, the fake-shard test that
# breaks a mixed unit at a chosen line (mutations never re-sent, legs
# re-sent once to the replica, one failover).
replchaos:
	go test -race -count=1 -v -run 'TestReplChaosPrimaryKillUnderLoad|TestBrokenMixedUnitAnswersEveryLineAndFailsOver' ./cmd/histproxy/

explain:
	go test -race -count=1 -v -run TestExplainSmokeRealBinary ./cmd/histserve/

traceguard:
	go test -count=1 -v -run TestDisabledTracerOverhead ./internal/trace/

perfguard:
	go test -count=1 -v -run TestRecorderOverhead ./internal/perf/

# Smoke the runtime/contention collector: every histcube_runtime_* and
# histcube_lock_* series must render from a live registry.
runtimemetrics:
	go test -race -count=1 -v -run 'TestRuntimeMetrics|TestMutexContentionEvents' ./internal/obs/

fmt:
	gofmt -w .
