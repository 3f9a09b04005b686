#!/bin/sh
# Tier-1 verification gate, and the one place each gate is defined:
# `./check.sh` (= `make check`) runs every step below in order,
# `./check.sh <step>` runs one. The Makefile's targets and the jobs of
# .github/workflows/ci.yml only call this script by step name, so a test
# joins or leaves a gate by an edit here and nowhere else.
set -eu

steps="fmt build vet histlint race benchmod fuzz crash chaos shardchaos replchaos traceguard perfguard explain benchgate tree"
is_step() { case " $steps " in *" $1 "*) return 0 ;; esac; return 1; }

# What git sees of the working tree, minus the lock graph the histlint
# step regenerates; the tree step compares it with what it was when the
# script started, so a step that rewrites a tracked file or leaves an
# unignored one behind fails the gate.
tree_state() { git status --porcelain 2>/dev/null | grep -v ' lockgraph\.dot$' || true; }
tree_before=$(tree_state)

# require_tests <pkg> <name>|<name>... [<test binary>]: fails the step
# unless every name in the list (a -run alternative: a whole name or a
# prefix) matches a test, fuzz target or benchmark of pkg, as the given
# test binary of pkg lists them or, without one, as go test -list does.
# A -run that matches nothing passes with "[no tests to run]", so
# without this a renamed or moved test would leave its gate silently
# empty. A -race binary sleeps 1 s at exit so that late race reports
# are printed; a listing starts no goroutine, so it skips the sleep.
require_tests() {
    if [ $# -gt 2 ]; then
        listed=$(cd "$1" && GORACE="${GORACE:+$GORACE }atexit_sleep_ms=0" "$3" -test.list .)
    else
        listed=$(go test -list . "$1")
    fi
    for name in $(echo "$2" | tr '|' ' '); do
        if ! printf '%s\n' "$listed" | grep -Eq "^($name)"; then
            echo "check.sh: $1 has no test matching $name" >&2
            exit 1
        fi
    done
}

# run_named <pkg> <names> [-race]: builds pkg's test binary once (with
# -race when given), lists its tests through require_tests, then runs
# -run <names> from it in pkg's directory, as go test would.
testbins=$(mktemp -d)
trap 'rm -rf "$testbins"' EXIT
run_named() {
    pkg=$1 names=$2
    shift 2
    bin="$testbins/$(echo "$pkg" | tr -c 'a-zA-Z0-9\n' '_').test"
    go test -c -o "$bin" "$@" "$pkg"
    require_tests "$pkg" "$names" "$bin"
    echo "$pkg -run '$names'"
    (cd "$pkg" && "$bin" -test.run "$names" -test.timeout 10m)
}

step_fmt() {
    echo "== gofmt =="
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

step_build() {
    echo "== go build ./... =="
    go build ./...
}

step_vet() {
    echo "== go vet ./... =="
    go vet ./...
}

step_histlint() {
    echo "== histlint ./... (with lock-graph export) =="
    # Project-specific invariants (see DESIGN.md "Static analysis"):
    # lock discipline (guarded fields, release-on-all-paths,
    # acquisition-order cycles), log-before-apply, the import fence
    # around internal/paper, metric naming and readers, guarded
    # narrowing, error wrapping, float equality. The lock-acquisition
    # graph lands in the committed lockgraph.dot (CI also uploads it as
    # an artifact); a cycle is a finding and fails this step, and so
    # does the one edge group commit exists to remove: the server mutex
    # must never wait on the WAL's fsync queue (DESIGN.md "Durability",
    # lock order) — on a primary releasing a batch of replies or on a
    # follower committing a batch of shipped records.
    go run ./cmd/histlint -lockgraph lockgraph.dot ./...
    if grep -F '"histserve.Server.mu" -> "wal.Log.syncMu"' lockgraph.dot; then
        echo "lockgraph.dot: histserve.Server.mu is held across wal.Log.Commit" >&2
        exit 1
    fi
}

step_race() {
    echo "== go test -race -shuffle=on ./... =="
    go test -race -shuffle=on ./...
}

step_benchmod() {
    echo "== benchmark module (vet + short tests) =="
    # benchmark/ is its own module importing this one's internal/*, so
    # the root ./... patterns above neither compile nor test it.
    (cd benchmark && go vet ./... && go test -short ./...)
}

step_fuzz() {
    echo "== fuzz smoke (10s per target) =="
    # The serving core's tokeniser against strings.Fields, the split it
    # stands in for.
    require_tests ./internal/lineserver/ FuzzFields
    go test -run='^$' -fuzz=FuzzFields -fuzztime=10s ./internal/lineserver/
    require_tests ./internal/wal/ FuzzRecordDecode
    go test -run='^$' -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/wal/
    require_tests ./internal/shard/ FuzzShardMapParse
    go test -run='^$' -fuzz=FuzzShardMapParse -fuzztime=10s ./internal/shard/
    require_tests ./internal/trace/ FuzzSpanJSON
    go test -run='^$' -fuzz=FuzzSpanJSON -fuzztime=10s ./internal/trace/
    require_tests ./internal/histserve/ FuzzRecLine
    go test -run='^$' -fuzz=FuzzRecLine -fuzztime=10s ./internal/histserve/
    require_tests ./cmd/histserve/ FuzzDispatchLine
    go test -run='^$' -fuzz=FuzzDispatchLine -fuzztime=10s ./cmd/histserve/
    # A new snapshot-sized input would otherwise spend the whole smoke
    # being minimised (default 60 s) instead of fuzzed.
    require_tests ./internal/core/ FuzzSnapshotLoad
    go test -run='^$' -fuzz=FuzzSnapshotLoad -fuzztime=10s -fuzzminimizetime=1s ./internal/core/
}

step_crash() {
    echo "== crash-injection durability tests =="
    # Run inside the race step too; re-run by name so a durability
    # regression is impossible to miss in the gate output: SIGKILL
    # mid-append, SIGKILL between a group's stage and its fsync (with a
    # query that counted the group parked behind it, unanswered), a query
    # that counts another connection's insert answering only once that
    # insert is durable, and SIGKILL of a follower between a shipped
    # batch's stage and its commit. Then a follower rebasing its log onto a shipped snapshot:
    # the directory as every step of the rebase leaves it recovers, and a
    # rebase that failed part-way is retried from the top. Then a failed
    # or torn segment write: written once, latched, then repaired. Then
    # wal.Log.Apply's two failures: a staging failure logs and applies
    # nothing, an op the cube rejects is logged, and replay skips it.
    # Then a commit of a record already durable does not queue behind a
    # leader's fsync of later ones. Last, the end of a segment created
    # at its full size: its zero tail is a clean end after Close and
    # after a crash, a torn record is cut, a zero run before a valid
    # frame is corruption, a segment cut to its records recovers and is
    # extended in place, and a catch-up stream reading the active
    # segment beside a live commit delivers every shipped LSN.
    # The SIGKILL drills run the histserve binary; the query parked
    # behind a commit runs in process. Then the transcript checker
    # (internal/linetest): one script at depth 1 and pipelined in
    # byte-cut windows must answer the same bytes, every QRY equal to the
    # oracle over the acked mutations — on one durable member, and on a
    # durable -ooo member that checkpoints and restarts mid-script.
    run_named ./cmd/histserve/ 'TestCrashRecoveryNoAcknowledgedLoss|TestCrashBetweenStageAndGroupFsync|TestFollowerKilledBetweenStageAndCommit' -race
    run_named ./internal/histserve/ 'TestQueryWaitsForTheCommitItRead|TestPipelinedRepliesMatchDepthOne' -race
    run_named ./internal/fleettest/ 'TestTranscriptThroughCheckpointAndRestart' -race
    run_named ./internal/wal/ 'TestRebaseCrashPointsRecover|TestRebaseRetriesAfterFailure|TestInstallCheckpointResetsSegments|TestFailedWriteIsRepairedNotRetried|TestApplyKeepsFailuresApart|TestCommitOfADurableRecordDoesNotQueue|TestRecoveryFindsTheSegmentEnd|TestTornFinalRecordTruncated|TestStreamCatchUpBesideALiveCommit' -race
}

step_chaos() {
    echo "== seeded chaos suite (fault injection) =="
    # Deterministic fixed seeds plus one randomized seed (logged for
    # repro): no acknowledged write lost, no panic escapes, the server
    # always answers or cleanly rejects. The cases that read the server's
    # own state are in internal/histserve; the binary's
    # degrade-kill-recover drill and the cases that need no more than
    # main does are in cmd/histserve.
    run_named ./internal/histserve/ 'TestChaos' -race
    run_named ./cmd/histserve/ 'TestChaos' -race
}

step_shardchaos() {
    echo "== multi-shard chaos (histproxy scatter-gather degradation) =="
    # SIGKILL one historic shard behind a live proxy mid-workload: every
    # answer over the dead range must be an exact PARTIAL (never a wrong
    # total presented as complete, never a hang), and the shard
    # rejoining on the same port restores complete answers without a
    # proxy restart. Then the two traps of reading a unit's shards in
    # turn: replies that reached a shard's connection while a slower shard
    # was read are still that shard's answers, past its deadline, and a
    # read batch past its hedge point with every reply buffered is not
    # hedged. And the one rejoin path: a member that comes back has its
    # breaker closed by the member-state loop's ROLE within one
    # -probe-every, with no client traffic. Last, the binary's graceful
    # exit: SIGTERM with one member live and one dead exits 0 within one
    # -shard-timeout plus one -probe-every, leaving no process behind.
    run_named ./cmd/histproxy/ 'TestShardChaosPartialAnswersAndRejoin|TestProxySigtermExitsCleanly|TestUnitReadsRepliesBufferedBehindASlowShard|TestUnitDoesNotHedgeBufferedReadBatch|TestMemberRejoinsWithinOneProbeInterval' -race
}

step_replchaos() {
    echo "== replication chaos (primary SIGKILL, failover, zero acked-write loss) =="
    # SIGKILL a semi-sync primary under live proxy load pipelined at
    # depth 4 — three INS and a QRY per window, so the kill lands in a
    # mixed unit: every line of the killed unit gets exactly one reply,
    # its QRY a plain number, the final sum contains every acked write
    # (and nothing phantom), reads must keep answering exact non-PARTIAL
    # totals via the WAL-shipped replica, and the promoted replica must
    # accept writes within the member-state loop's interval. The
    # in-process test beside it breaks a mixed unit at a chosen line (a
    # relay cuts the primary's link): answered lines stand, later
    # mutations get one ERR each and are never re-sent, later legs are
    # re-sent once and answered exactly by the follower, one failover. Last, a fresh follower bootstraps while
    # its primary checkpoints every 50 records under concurrent inserts,
    # so the checkpoint it is sent can be pruned before it re-subscribes,
    # and must answer bit-identically to the primary, before and after a
    # restart over its own directory. And one seeded stream with ops the
    # cube rejects, through a primary and its semi-sync follower, both
    # applying through wal.Log.Apply: the same logs, the same SAVE bytes.
    # Then the read barrier's ack rule: a replica's query waits for no
    # ack, nor does a promoted one's for the log it inherited; a
    # semi-sync primary's query of an empty log needs none, and a record
    # acked by a follower that then left stays committed. Then the read
    # rule: behind a real primary with two followers and -repl-min-acks 1,
    # a pipelined load leaves both followers' QRY count at 0, and in
    # process every leg and hedge stays on a primary whose min_acks is
    # below its followers and reaches them once it covers them, and off
    # a follower whose ROLE says synced=0 until it says synced=1, a
    # rejoining one included before its round has seen it; a follower
    # says synced=1 only at the end its primary reported, not after a
    # SNAP or part of the tail; a
    # restarted semi-sync primary's recovered tail commits only once a
    # follower holds it. Last, a
    # follower's applied_lsn is its commit frontier after a SNAP install,
    # a catch-up and a reconnect. And two failovers the breaker alone
    # would delay: a primary that hangs (ROLE unanswered) is replaced
    # within a few -probe-every while another shard's member still
    # rejoins within one, and a write that breaks on a dead primary
    # promotes its follower on the next ROLE it misses. Last, the
    # transcript checker through replicated and sharded targets: a
    # 2-shard semi-sync fleet behind the proxy, two-member -op count and
    # -op avg fleets, and a semi-sync primary stopped mid-script whose
    # promoted follower answers the rest.
    run_named ./cmd/histproxy/ 'TestReplChaosPrimaryKillUnderLoad|TestBrokenMixedUnitAnswersEveryLineAndFailsOver|TestReplChaosReadsSkipFollowersOutsideTheAckQuorum|TestBrokenWriteFailsOverBeforeTheBreakerOpens|TestReadRuleFollowsPrimaryMinAcks|TestReadRuleSkipsASyncingFollower|TestRejoiningFollowerServesNoReadBeforeItsRound|TestHungPrimaryFailsOverAndOthersStillRejoin|TestRunConformanceThroughSemiSyncFleet|TestProxyFleetsAnswerLikeOneScan' -race
    run_named ./internal/histserve/ 'TestReplicaBootstrapsUnderCheckpointLoad|TestPrimaryAndFollowerApplyOneStream|TestReplicaBarrierIsItsLocalCommit|TestSemiSyncReadOutlivesItsFollower|TestRestartedSemiSyncPrimaryCommitsItsTailOnceHeld|TestReplicaAppliedLSNIsItsCommitFrontier|TestReplicaSyncedOnlyAtThePrimarysEnd' -race
    run_named ./internal/fleettest/ 'TestTranscriptThroughPromotion' -race
}

step_traceguard() {
    echo "== disabled-tracer overhead guard (<= 5 ns/op) =="
    # Without -race on purpose: the guard benchmarks the nil-span hot
    # path and race instrumentation distorts timings (the test
    # self-skips under -race, so the race step does not cover it).
    run_named ./internal/trace/ TestDisabledTracerOverhead
}

step_perfguard() {
    echo "== serving-path overhead guards (Histogram.Observe <= 150 ns, 0 allocs; served QRY <= 4 allocs, <= 608 B; served INS/DEL <= 5 allocs, <= 624 B; converged core query 0 allocs; proxied window <= 85 allocs; one write per group commit, no segment growth; segment read allocates by records; Save streams in < 1 MiB) =="
    # What every served request pays to be timed, once per request and
    # once per stage, and what one served QRY allocates in all: its
    # request (which holds its fields), its pending op (which holds the
    # parsed box and the request's context: no timer, and it carries the
    # span) and its reply. A served INS or DEL: its request, its pending
    # op and coordinates and the cube's update sets. Neither allocates
    # for its span tree: it is built on a slab the trace ring recycled.
    # Below them, a converged historic query with a span-less context
    # allocates nothing. Same regime as the tracer guard: un-instrumented
    # runs only.
    run_named ./internal/obs/ TestHistogramObserveOverhead
    run_named ./cmd/histserve/ 'TestServedQueryAllocs|TestServedInsertAllocs'
    run_named ./internal/core/ TestConvergedQueryAllocs
    # One four-line window through histproxy to two loopback shards,
    # counted process-wide: its fan-out starts no goroutine and makes no
    # channel, cancel context or timer unless a hedge is due.
    run_named ./cmd/histproxy/ TestProxiedWindowAllocs
    # N records committed together cost one write(2) and one fsync and
    # leave the active segment's size unchanged; reading a segment
    # created at 64 MiB with 1000 records allocates for the records,
    # not for the file.
    run_named ./internal/wal/ 'TestCommitWritesOnce|TestReadSegmentAllocatesByRecords'
    # A checkpoint streams the cube slice by slice: Save of a 150-slice
    # 64x64 cube allocates O(one slice), never the whole snapshot.
    run_named ./internal/core/ TestSaveStreams
}

step_explain() {
    echo "== EXPLAIN smoke (real binary) =="
    run_named ./cmd/histserve/ TestExplainSmokeRealBinary -race
}

step_benchgate() {
    echo "== load harness oracle gate (benchmark/run.sh, four workloads x 3 s) =="
    # The one load generator (benchmark/, see its README) run briefly on
    # the real binaries, once per workload of BENCHMARK.json. run.sh
    # checks every answer against the naive oracle (after SIGKILL +
    # restart in durable_ingest, through the semi-sync fleet in
    # fleet_mixed) and exits non-zero when a single operation failed, so
    # this step gates the correctness of the measured system; it
    # compares no timing. It costs 30-35 s where the timing-tolerance
    # smoke it replaced cost 12-13 s (both measured on one 2-vCPU host);
    # the ~20 s are accepted because a wrong answer under load is a
    # failure someone would act on and a 2 s throughput within 90 % of
    # another machine's was not. Builds, data directories and results
    # stay under the ignored .bench_build/ and benchmark/out/.
    for w in read_converged mixed_live durable_ingest fleet_mixed; do
        benchmark/run.sh --workload "$w" --seed 1 --seconds 3
    done
    # No process the runs started may outlive them: after a grace of up
    # to 2 s for servers still exiting, any process whose executable
    # lies under this checkout's .bench_build/bin/ fails the step.
    for _ in 1 2 3 4 5 6 7 8 9 10; do
        left=$(bench_leftovers)
        [ -z "$left" ] && return 0
        sleep 0.2
    done
    echo "benchmark processes outlived their runs (pid executable):" >&2
    echo "$left" >&2
    exit 1
}

# bench_leftovers prints "<pid> <executable>" for every running process
# whose executable lies under this checkout's .bench_build/bin/.
bench_leftovers() {
    bin="$(pwd -P)/.bench_build/bin/"
    for exe in /proc/[0-9]*/exe; do
        target=$(readlink "$exe" 2>/dev/null) || continue
        case "$target" in
        "$bin"*) pid=${exe#/proc/} && echo "${pid%/exe} $target" ;;
        esac
    done
}

step_tree() {
    echo "== every gate named by make or CI exists; nothing tracked rewritten, nothing unignored left behind =="
    # The Makefile and ci.yml may only name steps of this script, and
    # ci.yml only make targets that exist.
    for s in $(sed -n 's|.*\./check\.sh \([a-z][a-z]*\).*|\1|p' Makefile .github/workflows/ci.yml); do
        if ! is_step "$s"; then
            echo "Makefile or ci.yml calls ./check.sh $s, which is not a step of check.sh" >&2
            exit 1
        fi
    done
    for target in $(sed -n 's|^ *run: make \([a-z][a-z]*\)$|\1|p' .github/workflows/ci.yml); do
        if ! grep -q "^$target:" Makefile; then
            echo "ci.yml runs make $target, which the Makefile does not define" >&2
            exit 1
        fi
    done
    if [ "$(tree_state)" != "$tree_before" ]; then
        echo "check.sh changed the working tree:" >&2
        tree_state >&2
        exit 1
    fi
}

if [ $# -eq 0 ]; then
    set -- $steps
fi
for s in "$@"; do
    if ! is_step "$s"; then
        echo "check.sh: unknown step '$s' (steps: $steps)" >&2
        exit 2
    fi
    "step_$s"
done
echo "== ok =="
