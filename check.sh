#!/bin/sh
# Tier-1 verification gate: the exact checks CI runs (see
# .github/workflows/ci.yml), runnable locally as `./check.sh` or
# `make check`.
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== histlint ./... (with lock-graph export) =="
# Project-specific invariants (see DESIGN.md "Static analysis"):
# lock discipline (guarded fields, release-on-all-paths, read-path
# purity, acquisition-order cycles, atomic all-or-nothing, ctx
# polling), log-before-apply, metric naming, guarded narrowing, error
# wrapping, float equality. The lock-acquisition graph lands in the
# committed lockgraph.dot (CI also uploads it as an artifact); a cycle
# is a finding and fails this step, and so does the one edge group
# commit exists to remove: the server mutex must never wait on the
# WAL's fsync queue (DESIGN.md "Durability", lock order) — on a primary
# releasing a batch of replies or on a follower committing a batch of
# shipped records.
go run ./cmd/histlint -lockgraph lockgraph.dot ./...
if grep -F '"main.server.mu" -> "wal.Log.syncMu"' lockgraph.dot; then
    echo "lockgraph.dot: main.server.mu is held across wal.Log.Commit" >&2
    exit 1
fi

echo "== go test -race -shuffle=on ./... =="
go test -race -shuffle=on ./...

echo "== benchmark module (vet + short tests) =="
# benchmark/ is its own module importing this one's internal/*, so the
# root ./... patterns above neither compile nor test it.
(cd benchmark && go vet ./... && go test -short ./...)

echo "== fuzz smoke (10s per target) =="
go test -run='^$' -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/wal/
go test -run='^$' -fuzz=FuzzCSVWorkload -fuzztime=10s ./internal/workload/
go test -run='^$' -fuzz=FuzzShardMapParse -fuzztime=10s ./internal/shard/
go test -run='^$' -fuzz=FuzzSpanJSON -fuzztime=10s ./internal/trace/
go test -run='^$' -fuzz=FuzzRecLine -fuzztime=10s ./cmd/histserve/

echo "== crash-injection durability tests =="
# Run inside the suite above too; re-run by name so a durability
# regression is impossible to miss in the gate output: SIGKILL
# mid-append, SIGKILL between a group's stage and its fsync, and
# SIGKILL of a follower between a shipped batch's stage and its commit.
go test -race -count=1 -run 'TestCrashRecoveryNoAcknowledgedLoss|TestCrashBetweenStageAndGroupFsync|TestFollowerKilledBetweenStageAndCommit' ./cmd/histserve/

echo "== seeded chaos suite (fault injection) =="
# Deterministic fixed seeds plus one randomized seed (logged for
# repro): no acknowledged write lost, no panic escapes, the server
# always answers or cleanly rejects.
go test -race -count=1 -run 'TestChaos' ./cmd/histserve/

echo "== multi-shard chaos (histproxy scatter-gather degradation) =="
# SIGKILL one historic shard behind a live proxy mid-workload: every
# answer over the dead range must be an exact PARTIAL (never a wrong
# total presented as complete, never a hang), and the shard rejoining
# on the same port restores complete answers without a proxy restart.
go test -race -count=1 -run TestShardChaosPartialAnswersAndRejoin ./cmd/histproxy/

echo "== replication chaos (primary SIGKILL, failover, zero acked-write loss) =="
# SIGKILL a semi-sync primary mid-run under live proxy write load
# pipelined at depth 4: every line of the killed run gets exactly one
# reply, the final sum contains every acked write (and nothing phantom),
# reads must keep answering exact non-PARTIAL totals via the WAL-
# shipped replica, and the promoted replica must accept writes within
# the prober's failover interval.
go test -race -count=1 -run TestReplChaosPrimaryKillUnderLoad ./cmd/histproxy/

echo "== disabled-tracer overhead guard (<= 5 ns/op) =="
# Without -race on purpose: the guard benchmarks the nil-span hot path
# and race instrumentation distorts timings (the test self-skips under
# -race, so the suite above does not cover it).
go test -count=1 -run TestDisabledTracerOverhead ./internal/trace/

echo "== perf-recorder overhead guard (nil <= 5 ns, enabled <= 150 ns, 0 allocs) =="
# Same regime as the tracer guard: un-instrumented timings only.
go test -count=1 -run TestRecorderOverhead ./internal/perf/

echo "== EXPLAIN smoke (real binary) =="
go test -race -count=1 -run TestExplainSmokeRealBinary ./cmd/histserve/

echo "== bench smoke (histperf vs committed baseline) =="
# A short real-binary load run producing BENCH_smoke.json, gated
# against the committed BENCH_0001.json baseline with a generous
# tolerance: ops/sec and p99 vary across machines, but a large
# throughput collapse, an error storm, or a convergence probe that
# stopped converging (the paper-unit DDC->PS drop, which is
# hardware-independent) fails the gate.
go build -o /tmp/histserve.bench ./cmd/histserve
go run ./cmd/histperf -serve-bin /tmp/histserve.bench \
    -mixes read,write,mixed,convergence \
    -conns 2 -duration 2s -warmup 500ms -quiet -out BENCH_smoke.json
go run ./cmd/histperf -compare -tolerance 0.9 BENCH_0001.json BENCH_smoke.json

echo "== ok =="
