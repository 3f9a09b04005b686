# Developer entry points; `make check` is the CI gate.

.PHONY: check build test race bench bench-smoke shardbench replbench microbench fmt crash lint lockgraph fuzz explain traceguard perfguard chaos shardchaos replchaos runtimemetrics

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

# Full load run against the real server: writes the next
# BENCH_<seq>.json trajectory point plus pprof profiles. Compare two
# points with: go run ./cmd/histperf -compare old.json new.json
bench:
	go build -o bin/histserve ./cmd/histserve
	go run ./cmd/histperf -serve-bin bin/histserve \
	    -mixes read,write,mixed,convergence \
	    -conns 4 -duration 5s -warmup 1s \
	    -profile-dir bench-profiles -out auto

# The CI smoke variant: short run, gated against the committed
# baseline with a generous cross-machine tolerance (same step as
# check.sh).
bench-smoke:
	go build -o bin/histserve ./cmd/histserve
	go run ./cmd/histperf -serve-bin bin/histserve \
	    -mixes read,write,mixed,convergence \
	    -conns 2 -duration 2s -warmup 500ms -quiet -out BENCH_smoke.json
	go run ./cmd/histperf -compare -tolerance 0.9 BENCH_0001.json BENCH_smoke.json

# Scatter-gather scaling: the same read mix against a single node and
# against a 4-shard histproxy topology, as two consecutive
# BENCH_<seq>.json trajectory points. On >= 4 cores the topology run
# should show >= 2x the single-node ops/sec.
shardbench:
	go build -o bin/histserve ./cmd/histserve
	go build -o bin/histproxy ./cmd/histproxy
	go run ./cmd/histperf -serve-bin bin/histserve \
	    -mixes read -conns 4 -duration 5s -warmup 1s -out auto
	go run ./cmd/histperf -serve-bin bin/histserve -proxy-bin bin/histproxy \
	    -shard-count 4 -mixes read -conns 4 -duration 5s -warmup 1s -out auto

# Replicated-topology load: the same read mix against a 2-shard
# topology with one WAL-shipping follower per shard — hedged reads fan
# across the replica sets. Written as the next BENCH_<seq>.json
# trajectory point.
replbench:
	go build -o bin/histserve ./cmd/histserve
	go build -o bin/histproxy ./cmd/histproxy
	go run ./cmd/histperf -serve-bin bin/histserve -proxy-bin bin/histproxy \
	    -shard-count 2 -replicas 1 -mixes read,mixed -conns 4 -duration 5s -warmup 1s -out auto

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

# Replication chaos: SIGKILL a semi-sync primary mid-run under live
# proxy write load pipelined at depth 4; every line of the killed run
# gets one reply, no acked write may be lost, reads must stay exact
# and complete via the WAL-shipped replica, and the promoted replica
# must take writes within the prober's failover interval.
replchaos:
	go test -race -count=1 -v -run TestReplChaosPrimaryKillUnderLoad ./cmd/histproxy/

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
