package main

// The benchmark's fixed vocabulary: four workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with
// the module each belongs to and the end-to-end number it should move.
// BENCHMARK.json at the repository root is generated from these tables
// (`run.sh --spec`) and spec_test.go keeps the two identical.

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

type topoKind int

const (
	topoMemory  topoKind = iota // one in-memory histserve
	topoDurable                 // one histserve -data-dir -fsync always
	topoFleet                   // histproxy -> 2 shards x (semi-sync primary + follower)
)

type queryKind int

const (
	queryPool   queryKind = iota // fixed pool of historic queries
	queryRecent                  // time range inside the newest slices, fresh box
	querySpan                    // starts in shard 0's range, ends in shard 1's
)

type workloadSpec struct {
	Name string
	Why  string

	Topo       topoKind
	SeedSlices int // slices written during set-up, cellsPerSlice upserts each
	TickMS     int // a new slice every TickMS of timed phase; 0 stops the clock
	InsPct     int // share of INS in the op stream; the rest are QRY
	Depth      int // lines sent per connection before their replies are read
	Query      queryKind
	WarmupOps  int // unrecorded ops per connection at the end of set-up
}

// Run lengths. Issue 11 asked for 5 s of warm-up and one 30 s phase.
// The driver allows 92 runs in 3420 s (~35 s each, set-up included),
// and on this 2-vCPU VM one server set can run 10-20% faster or slower
// than the next for reasons outside the program. So a run measures
// three fresh server sets for 8 s each and reports medians over the
// three, and warm-up is a fixed op count (which also makes setup_s
// measure work instead of a constant).
const (
	sessionsPerRun = 3
	defaultSeconds = 8 * sessionsPerRun
	smokeSeconds   = 3 * sessionsPerRun // one session of 3 s
	poolSize       = 256
	checkQueries   = 256
	// epilogueIns depth-1 inserts follow read_converged's read-only
	// timed phase so ins_p50_us/ins_p99_us exist on every workload.
	epilogueIns = 20000
	// restartTail acked inserts separate the explicit CHECKPOINT from
	// the SIGKILL on durable_ingest, so every restart replays the same
	// tail length (it stays under -checkpoint-every 10000).
	restartTail = 5000
)

var workloads = []workloadSpec{
	{
		Name: "read_converged",
		Why:  "100% pooled historic QRY on one in-memory histserve, all cells PS: socket+parse+lock+trace+flush dominate; wal/proxy/shard idle",
		Topo: topoMemory, SeedSlices: 512, TickMS: 0, InsPct: 0, Depth: 1, Query: queryPool, WarmupOps: 10000,
	},
	{
		Name: "mixed_live",
		Why:  "50/50 INS/QRY on the same server with a live clock: queries convert fresh DDC slices while inserts pay lazy copy; same core layer, other use",
		Topo: topoMemory, SeedSlices: 128, TickMS: 15, InsPct: 50, Depth: 1, Query: queryRecent, WarmupOps: 5000,
	},
	{
		Name: "durable_ingest",
		Why:  "95% INS at window depth 16 on histserve -fsync always, then SIGKILL+restart: wal append, fsync under the lock and checkpoints dominate; ecube idle",
		Topo: topoDurable, SeedSlices: 64, TickMS: 150, InsPct: 95, Depth: 16, Query: queryRecent, WarmupOps: 2000,
	},
	{
		Name: "fleet_mixed",
		Why:  "50/50 through histproxy to 2 semi-sync replicated shards, every QRY 2 legs, depth 4: proxy hop, pool checkout, merge and ACK wait dominate; core is noise",
		Topo: topoFleet, SeedSlices: 64, TickMS: 150, InsPct: 50, Depth: 4, Query: querySpan, WarmupOps: 500,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the module the number is about
	Moves  string  // per-layer only: the end-to-end metric @ workload it should move
}

// endToEnd is what a user of the system sees, measured with tracing
// off; every workload reports every one of them and none is ever 0.
//
// Issue 11 named eleven and fixed 10% (15% for p99, 25% for set-up) on
// the strength of a pre-measurement that repeated within 1%. On this
// shared VM ten runs of one commit spread 3-6% in a quiet half-hour and
// 15-40% in a noisy one (distance between quartiles over the median),
// because the machine's speed drifts with its neighbours. So the five
// metrics that follow the machine's speed are reported at
// reference-machine speed (calib.go; ten-run spread 3-9% in the noisy
// hour, README.md has the table) and, because the driver wants a spread
// below a third of the bound with bounds capped at 25%, carry the cap;
// rss_mb does not depend on speed and carries 15%. What was measured
// before calibration is in the per-layer list as raw.*. The other five
// of the eleven are reported elsewhere: fail_share is the result line's
// failed/attempted (0 at the seed commit), and informational (below)
// keeps four under the issue's names in the per-layer list — the p99s
// because their spread reached 18% (the demotion the issue foresaw),
// wal_bytes_per_ins and restart_s because the driver wants every
// end-to-end metric defined and non-zero on every workload.
var endToEnd = []metricSpec{
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "qry_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ins_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_kop", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// informational metrics are measured in every run, traced or not, and
// printed next to the end-to-end ones. wal_bytes_per_ins is 0 without a
// WAL; restart_s without a data directory is a bare process start.
var informational = []metricSpec{
	{Name: "qry_p99_us", Unit: "us", Better: "lower", Layer: "end to end", Moves: "itself; observed spread 5-18%"},
	{Name: "ins_p99_us", Unit: "us", Better: "lower", Layer: "end to end", Moves: "itself; observed spread 5-16%"},
	{Name: "wal_bytes_per_ins", Unit: "B", Better: "lower", Layer: "wal", Moves: "ops_s @ durable_ingest, fleet_mixed"},
	{Name: "restart_s", Unit: "s", Better: "lower", Layer: "wal", Moves: "operator cost @ durable_ingest"},
}

// uncalibrated is what the calibrated end-to-end metrics were before
// calibration (median over sessions of whole timed phases) and the
// calibration bursts themselves (median over a session's bursts);
// measured in every run and printed under the end-to-end numbers.
var uncalibrated = []metricSpec{
	{Name: "raw.ops_s", Unit: "1/s", Better: "higher", Layer: "end to end", Moves: "ops_s before calibration; follows the machine's speed"},
	{Name: "raw.qry_p50_us", Unit: "us", Better: "lower", Layer: "end to end", Moves: "qry_p50_us before calibration"},
	{Name: "raw.ins_p50_us", Unit: "us", Better: "lower", Layer: "end to end", Moves: "ins_p50_us before calibration"},
	{Name: "raw.cpu_s_per_kop", Unit: "s", Better: "lower", Layer: "end to end", Moves: "cpu_s_per_kop before calibration"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower", Layer: "end to end", Moves: "setup_s before calibration"},
	{Name: "machine.speed_index", Unit: "share", Better: "lower", Layer: "benchmark", Moves: "none: 1 = reference machine, 1.3 = the run's machine was 30% slower"},
	{Name: "machine.spin_ms", Unit: "ms", Better: "lower", Layer: "benchmark", Moves: "none: the burst's compute loop"},
	{Name: "machine.echo_us", Unit: "us", Better: "lower", Layer: "benchmark", Moves: "none: loopback round trip to an echo goroutine"},
	{Name: "machine.far_echo_us", Unit: "us", Better: "lower", Layer: "benchmark", Moves: "none: loopback round trip to an echo process"},
}

var perLayer = slices.Concat(informational, uncalibrated, []metricSpec{
	// Ladder: one seeded converged-QRY stream and one INS stream, one
	// connection, depth 1, fixed op counts, each rung one hop longer.
	{Name: "ladder.qry.core_p50_us", Unit: "us", Better: "lower", Layer: "core", Moves: "qry_p50_us @ read_converged"},
	{Name: "ladder.qry.serve_p50_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "qry_p50_us @ read_converged"},
	{Name: "ladder.qry.proxy1_p50_us", Unit: "us", Better: "lower", Layer: "histproxy", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "ladder.qry.proxy2_p50_us", Unit: "us", Better: "lower", Layer: "histproxy", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "ladder.qry.repl_p50_us", Unit: "us", Better: "lower", Layer: "shardclient", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "ladder.ins.core_p50_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ins_p50_us @ mixed_live"},
	{Name: "ladder.ins.serve_p50_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "ins_p50_us @ mixed_live"},
	{Name: "ladder.ins.wal_never_p50_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us @ durable_ingest"},
	{Name: "ladder.ins.wal_always_p50_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us @ durable_ingest"},
	{Name: "ladder.ins.proxy2_p50_us", Unit: "us", Better: "lower", Layer: "histproxy", Moves: "ins_p50_us @ fleet_mixed"},
	{Name: "ladder.ins.repl_async_p50_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "ins_p50_us @ fleet_mixed"},
	{Name: "ladder.ins.repl_semisync_p50_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "ins_p50_us @ fleet_mixed"},
	// Differences of neighbouring rungs: the budget table.
	{Name: "histserve.wire_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "qry_p50_us @ read_converged"},
	{Name: "histproxy.hop_us", Unit: "us", Better: "lower", Layer: "histproxy", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "histproxy.fanout_us", Unit: "us", Better: "lower", Layer: "histproxy", Moves: "qry_p99_us @ fleet_mixed"},
	{Name: "wal.inline_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us @ durable_ingest"},
	{Name: "wal.fsync_inline_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us, ops_s @ durable_ingest"},
	{Name: "repl.ack_wait_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "ins_p50_us @ fleet_mixed"},

	// core, called in process with fixed op counts.
	{Name: "core.insert_us", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_s @ mixed_live"},
	{Name: "core.query_cold_us", Unit: "us", Better: "lower", Layer: "core", Moves: "qry_p50_us @ mixed_live"},
	{Name: "core.query_conv_us", Unit: "us", Better: "lower", Layer: "core", Moves: "qry_p50_us @ read_converged"},
	{Name: "core.cells_per_qry_cold", Unit: "count", Better: "lower", Layer: "core", Moves: "qry_p50_us @ mixed_live"},
	{Name: "core.cells_per_qry_conv", Unit: "count", Better: "lower", Layer: "core", Moves: "qry_p50_us @ read_converged"},
	{Name: "core.conversions_per_qry_cold", Unit: "count", Better: "lower", Layer: "core", Moves: "qry_p50_us @ mixed_live"},
	{Name: "core.copy_cells_per_ins", Unit: "count", Better: "lower", Layer: "core", Moves: "ins_p50_us @ mixed_live"},
	{Name: "core.cache_cells_per_ins", Unit: "count", Better: "lower", Layer: "core", Moves: "ins_p50_us @ mixed_live"},
	{Name: "core.save_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "ins_p99_us @ durable_ingest"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "restart_s @ durable_ingest"},
	{Name: "core.snapshot_bytes_per_slice", Unit: "B", Better: "lower", Layer: "core", Moves: "restart_s @ durable_ingest"},
	// core, from the servers' histcube_* counters around the traced phase.
	{Name: "core.run_cells_per_qry", Unit: "count", Better: "lower", Layer: "core", Moves: "qry_p50_us @ mixed_live"},
	{Name: "core.run_conversions_per_qry", Unit: "count", Better: "lower", Layer: "core", Moves: "qry_p50_us @ mixed_live"},
	{Name: "core.run_copy_cells_per_ins", Unit: "count", Better: "lower", Layer: "core", Moves: "ins_p50_us @ mixed_live"},
	{Name: "core.run_ooo_share", Unit: "share", Better: "lower", Layer: "core", Moves: "qry_p50_us @ mixed_live (must stay < 0.01)"},

	// wal, called in process against a temp dir.
	{Name: "wal.append_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us @ durable_ingest"},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us @ durable_ingest"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ops_s @ durable_ingest"},
	{Name: "wal.bytes_per_rec", Unit: "B", Better: "lower", Layer: "wal", Moves: "wal_bytes_per_ins @ durable_ingest"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "ins_p99_us @ durable_ingest"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "restart_s @ durable_ingest"},
	{Name: "wal.stream_rec_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "ins_p50_us @ fleet_mixed"},
	// wal, from histcube_wal_* around the traced phase.
	{Name: "wal.fsyncs_per_ins", Unit: "count", Better: "lower", Layer: "wal", Moves: "ops_s @ durable_ingest (group commit: < 1 there only)"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower", Layer: "wal", Moves: "ins_p99_us @ durable_ingest"},
	{Name: "wal.checkpoint_stall_share", Unit: "share", Better: "lower", Layer: "wal", Moves: "ins_p99_us @ durable_ingest"},
	{Name: "wal.segments", Unit: "count", Better: "lower", Layer: "wal", Moves: "restart_s @ durable_ingest"},

	{Name: "histserve.rtt_us", Unit: "us", Better: "lower", Layer: "histserve", Moves: "qry_p50_us @ read_converged"},
	{Name: "histserve.lock_wait_share", Unit: "share", Better: "lower", Layer: "histserve", Moves: "ops_s @ read_converged"},
	{Name: "histserve.cpu_s_per_kop", Unit: "s", Better: "lower", Layer: "histserve", Moves: "cpu_s_per_kop @ every workload"},
	{Name: "histserve.gc_cycles", Unit: "count", Better: "lower", Layer: "histserve", Moves: "qry_p99_us @ read_converged"},
	{Name: "histserve.heap_mb", Unit: "MiB", Better: "lower", Layer: "histserve", Moves: "rss_mb @ every workload"},
	{Name: "histserve.flushes_per_op", Unit: "count", Better: "lower", Layer: "histserve", Moves: "ops_s @ durable_ingest (flush-when-idle: < 1 at depth 16 only)"},

	{Name: "histproxy.cpu_share", Unit: "share", Better: "lower", Layer: "histproxy", Moves: "cpu_s_per_kop @ fleet_mixed"},
	{Name: "histproxy.legs_per_qry", Unit: "count", Better: "lower", Layer: "histproxy", Moves: "qry_p50_us @ fleet_mixed (must be 2)"},
	{Name: "histproxy.hedged_share", Unit: "share", Better: "lower", Layer: "shardclient", Moves: "cpu_s_per_kop @ fleet_mixed"},
	{Name: "histproxy.partials", Unit: "count", Better: "lower", Layer: "histproxy", Moves: "failed @ fleet_mixed (must be 0)"},
	{Name: "histproxy.failovers", Unit: "count", Better: "lower", Layer: "histproxy", Moves: "failed @ fleet_mixed (must be 0)"},
	{Name: "shard.route_ns", Unit: "ns", Better: "lower", Layer: "shard", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "shard.merge_ns", Unit: "ns", Better: "lower", Layer: "shard", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "shardclient.do_us", Unit: "us", Better: "lower", Layer: "shardclient", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "shardclient.group_read_us", Unit: "us", Better: "lower", Layer: "shardclient", Moves: "qry_p50_us @ fleet_mixed"},
	{Name: "repl.lag_lsn_max", Unit: "count", Better: "lower", Layer: "histserve", Moves: "ins_p50_us @ fleet_mixed"},

	{Name: "trace.span_ns", Unit: "ns", Better: "lower", Layer: "trace", Moves: "qry_p50_us @ read_converged"},
	{Name: "perf.record_ns", Unit: "ns", Better: "lower", Layer: "perf", Moves: "qry_p50_us @ read_converged"},

	// Generator health and the traced phase's own throughput (the full
	// run derives trace_overhead_share = 1 - traced.ops_s/ops_s).
	{Name: "client.cpu_s_per_kop", Unit: "s", Better: "lower", Layer: "benchmark", Moves: "none: generator cost"},
	{Name: "client.cpu_share", Unit: "share", Better: "lower", Layer: "benchmark", Moves: "none: run invalid above 0.6"},
	{Name: "traced.ops_s", Unit: "1/s", Better: "higher", Layer: "benchmark", Moves: "ops_s @ every workload"},
})

// writeSpec renders BENCHMARK.json. The driver fixes the key set, so
// Layer and Moves stay in this file and in README.md.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, s := range workloads {
		doc.Workloads = append(doc.Workloads, wl{s.Name, s.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
