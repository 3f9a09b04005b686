// Package histserve is the histserve server: a histcube exposed over
// TCP with a line-oriented text protocol, turning the append-only cube
// into a tiny aggregation service for streaming sources (the
// data-warehouse loading scenario of the paper's introduction). The
// command cmd/histserve parses its flags into a Config and runs it:
//
//	histserve -addr :7070 -dims 16,16 -op sum [-ooo] [-metrics :9090]
//
// Protocol (one request per line, one response per line unless noted):
//
//	INS <time> <c1> ... <cd> <value>   -> OK | ERR <msg>
//	DEL <time> <c1> ... <cd> <value>   -> OK | ERR <msg>
//	QRY <tlo> <thi> <l1> ... <ld> <u1> ... <ud> -> <number> | ERR <msg>
//	EXPLAIN QRY <args>                 -> OK result=<number>, span tree,
//	                                      totals line, END | ERR <msg>
//	EXPLAIN JSON QRY <args>            -> OK {"result":...,"trace":{...}}
//	                                      (single line; the structured
//	                                      span tree histproxy grafts)
//	SLOWLOG                            -> OK n=<n> ..., one line per
//	                                      retained trace, END
//	VERSION                            -> OK histserve rev=<git-rev> go=<ver>
//	SEAL [<time>]                      -> OK sealed_through=<t> | ERR <msg>
//	ROLE                               -> OK role=primary last_lsn=<n> followers=<n> min_acks=<n> op=<op>
//	                                      | OK role=replica applied_lsn=<n> lag_lsn=<n> primary=<addr> synced=<0|1> op=<op>
//	PROMOTE [<min_lsn>]                -> OK role=primary ... | ERR promotion fenced ...
//	REPLICATE FROM <lsn>               -> hijacks the connection for WAL
//	                                      shipping (see repl.go)
//	STATS                              -> slices=<n> incomplete=<n> pending=<n> appended=<n> ...
//	SAVE <path>                        -> OK | ERR <msg> (cube snapshot)
//	CHECKPOINT                         -> OK <lsn> | ERR <msg> (durable mode only)
//	QUIT                               -> BYE (closes the connection)
//
// STATS carries the full counter set (see README's Observability
// section): out-of-order totals, eCube conversion progress, lazy-copy
// work and access counts, degraded state and read-only rejections; sealed_through,
// the replica positions and git_rev follow where they apply. Latency is
// not a STATS field: it is histserve_request_seconds{cmd} and
// histserve_stage_seconds{stage} on /metrics, where any window is the
// difference of two scrapes.
//
// Every request is traced (internal/trace): EXPLAIN renders the span
// tree with the paper's per-query cost counters, SLOWLOG returns the
// worst traces at or above -slow-query-threshold (bounded by
// -slowlog-size), and the metrics listener serves them as JSON.
// Distributed tracing: any request line may carry a leading
// "TID=<16 hex>" token (histproxy stamps one on every shard leg); the
// request's root span adopts that trace ID, so one identifier
// correlates the query across proxy and shard slog lines, SLOWLOG
// entries and both /debug/trace/recent feeds. After it, a QRY or
// EXPLAIN line may carry a "PAIR " token: the reply is then the (sum,
// count) pair the operator finalises, "<sum> <count>" (EXPLAIN JSON:
// result and count), which is how histproxy merges AVG legs exactly.
//
// Start with -load <path> to resume from a snapshot written by SAVE
// (the -dims and -op flags must match the snapshot's configuration).
//
// With -data-dir the server is durable: every mutation is logged to a
// write-ahead log (internal/wal) under the given directory, then applied
// (wal.Log.Apply), and acknowledged only once committed. -fsync selects
// the always/never fsync policy, and -checkpoint-every N writes a cube
// snapshot and truncates the log every N records (CHECKPOINT forces one
// on demand). On boot the
// server recovers from the latest valid checkpoint plus the log tail,
// truncating a torn final record. SIGINT/SIGTERM trigger a graceful
// shutdown: stop accepting connections, write a final checkpoint,
// flush and fsync the log, exit 0.
//
// The connection loop, its governance (-max-conns, -read-timeout,
// -max-line-bytes, -request-timeout, "ERR server busy", "ERR line too
// long"), the panic barrier ("ERR internal"; panics under the cube
// mutex release it by defer on their way there, rather than poison it)
// and the -metrics listener (/metrics, /healthz, /readyz,
// /debug/slowlog, /debug/trace/recent, /debug/pprof/*) are
// internal/lineserver's; this package adds the command table and what
// stands behind it. -request-timeout bounds every
// INS/DEL/QRY/EXPLAIN: long-running eCube evaluations poll the context
// cooperatively and abandon the request with "ERR timeout". /readyz
// answers "ok" only once WAL recovery has finished (503 while
// replaying).
//
// Pipelining and group commit: a client may send further requests
// before reading replies. INS, DEL, QRY and EXPLAIN join the unit in
// progress (see commands), so the loop answers every such line it finds
// already buffered and releases those replies together — one pass under
// the cube mutex, one WAL commit (under -fsync=always one fsync, shared
// with whichever other connections are committing), with -repl-min-acks
// one cumulative ack wait, one flush — so an OK still implies durable
// (and replicated) while a window of N inserts costs one fsync, not N. A
// reply reflects only committed writes: a query waits for the commit of
// every write it counted, except in degraded mode (below), where it may
// count any write whose outcome is indeterminate: one answered ERR, or
// the recovery probe still in its commit.
//
// Graceful degradation: when the durable layer fails — a WAL write or
// fsync that failed (and latched the log until its repair), or
// out-of-space anywhere on the checkpoint path — the server flips to
// read-only. Mutations
// are rejected with "ERR read-only: ..." while queries keep serving
// the historic data (the paper's historic slices are immutable, so
// reads need no healthy write path). Every -degraded-probe-every, one
// mutation is let through as a recovery probe; the first success
// clears the flag. /readyz answers 503 and STATS reports degraded=1
// while the state lasts.
//
// The hidden -fault-spec / -fault-seed flags arm the deterministic
// fault injector (internal/fault) on the WAL segment files ("wal.*")
// and the core's "serve.dispatch" site for chaos runs; see that package
// for the spec grammar.
//
// Replication: start with -follow <primary> (plus -data-dir) to run
// as a replica — the server tails the primary's WAL over a REPLICATE
// connection, applies every acked record to its own log and cube
// (answers are bit-identical to the primary's, since cube state is a
// deterministic function of the op stream), rejects client mutations,
// and reports its positions via ROLE, STATS (replica=1,
// replica_applied_lsn, replica_lag_lsn) and /readyz. A follower whose
// position fell behind the primary's checkpoint retention is
// bootstrapped automatically from the primary's newest checkpoint.
// PROMOTE turns a follower into a primary during failover;
// -repl-min-acks N makes a primary hold each mutation's OK until N
// followers acknowledged it (semi-synchronous), so failover loses no
// acked write. A primary's ROLE reports N as min_acks.
//
// Sharding support: SEAL <t> (or bare SEAL for everything) makes all
// times at or below t read-only — mutations into the sealed range get
// "ERR sealed: ..." while queries keep serving. A sharding proxy
// (internal/histproxy) demotes a historic shard by sealing the time range
// it owns, so a misrouted or replayed mutation cannot silently land in
// history that other shards now answer for. The seal boundary only
// ever rises, is reported by STATS as sealed_through, and is a runtime
// state, not a durable one: pass -seal-through on restart (the shard
// map, not the shard, is the source of truth for ownership). VERSION
// lets clients and probes verify which build they reached; STATS
// carries the same revision as git_rev.
package histserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/dims"
	"histcube/internal/lineserver"
	"histcube/internal/obs"
	"histcube/internal/perf"
	"histcube/internal/trace"
	"histcube/internal/wal"
)

// The stages of histserve_stage_seconds{stage}: where a served request's
// time went below the serving core's request_seconds. The cube stages
// are read off the span the core opens for the call; the commit stages
// time the two halves of the commit barrier, once per released unit whose
// barrier had to wait for them.
const (
	stageCubeInsert = iota
	stageCubeDelete
	stageCubeQuery
	stageCommitWait
	stageReplAckWait
	numStages
)

var stageNames = [numStages]string{"cube_insert", "cube_delete", "cube_query", "commit_wait", "repl_ack_wait"}

// errWALAppend marks a WAL failure on a mutation's path. From staging
// (wal.Log.Apply refused the op) it was never logged or applied; from
// the commit barrier (the write or fsync failed) it was applied and
// keeps its LSN, and its outcome is indeterminate. isStorageFailure keys off it to flip
// the server read-only.
var errWALAppend = errors.New("wal append failed")

// server is one histserve instance.
//
// Locking contract: mu guards the cube, and nothing else — every cube
// call, including queries. Queries mutate shared state (the eCube
// conversion rewrites historic DDC cells to PS form, and the read path
// bumps cost counters), so a plain RWMutex read lock would race; the
// single mutex is load-bearing, not an oversight. wal is fixed before
// serving and carries its own lock. The metrics registry is not
// guarded by mu: metric primitives are atomic, and the state-derived
// callbacks registered in newServer take mu themselves at scrape time.
type Server struct {
	// Server is the serving core (internal/lineserver): connection loop,
	// governance, panic barrier, accounting, trace retention (Slow and
	// Recent carry their own locks, so both are outside the mu contract —
	// they run after mu is released) and the metrics listener.
	lineserver.Server

	mu   sync.Mutex
	cube *core.Cube // guarded by mu
	dims int

	// stage is histserve_stage_seconds, indexed by the stage constants.
	// It hangs off the server, not the cube, so a cube swap (recovery,
	// snapshot install, -load) leaves it in place.
	stage [numStages]*obs.Histogram

	// wal, when non-nil, makes the server durable: settle stages every
	// mutation in the log before the cube applies it (wal.Log.Apply;
	// under -fsync=always the commit barrier fsyncs it before the reply
	// leaves), and checkpointEvery drives automatic snapshots. wal is
	// set once, by enableDurability; a follower adopting a shipped
	// snapshot rebases it in place.
	wal             *wal.Log
	checkpointEvery int64 // guarded by mu

	// cfg is what New was given, fixed before serving: Start and Run
	// read it, and so do the replication and recovery-probe knobs.
	cfg Config

	// Replication (see repl.go): repl is non-nil in follower mode
	// (-follow) and set before the listener starts, and link is the
	// serving core its sessions run on; hub aggregates follower
	// acknowledgements on the primary side so mutations can wait for
	// -repl-min-acks replicas before answering OK.
	repl *replState
	link lineserver.Server
	hub  *replHub

	// ready flips to true once startup (snapshot load, WAL recovery) has
	// finished; /readyz answers 503 until then while /healthz stays a
	// pure liveness probe.
	ready atomic.Bool

	// shape is the cube's per-dimension domain, frozen at startup (the
	// protocol's arity and domains cannot change while serving); used to
	// reject out-of-range coordinates at the boundary.
	shape []int
	// operator is the cube's agg.Operator, which ROLE reports without
	// mu: a snapshot loaded or shipped in brings its own.
	operator atomic.Int32

	// sealedThrough is the seal boundary: mutations with time at or
	// below it are rejected (historic-shard demotion). math.MinInt64
	// means nothing is sealed; the value only ever rises (SEAL and
	// -seal-through), never falls.
	sealedThrough atomic.Int64

	// meta self-describes the running build (git revision); VERSION
	// and the STATS git_rev field report it so benchmark records can
	// verify the binary they actually hit.
	meta perf.RunMeta

	// Degradation state machine: degraded flips on persistent storage
	// failure and back off when a probe mutation succeeds. degradedMsg
	// holds the cause (a string); lastProbeNano serialises probe slots
	// via CAS so the reject fast path never takes mu.
	degraded      atomic.Bool
	degradedMsg   atomic.Value
	lastProbeNano atomic.Int64

	readonlyRejects *obs.Counter
	degradedFlips   *obs.Counter
}

// Config is histserve's command line: one field per flag of
// cmd/histserve beyond the serving core's shared ones (lineserver.Flags),
// each holding that flag's value.
type Config struct {
	Dims               string        // -dims: comma-separated non-time dimension sizes
	Op                 string        // -op: sum, count or avg
	OOO                bool          // -ooo: buffer out-of-order updates
	Load               string        // -load: snapshot to resume from
	DataDir            string        // -data-dir: durable data directory; empty disables durability
	Fsync              string        // -fsync: always or never (with DataDir)
	CheckpointEvery    int64         // -checkpoint-every: WAL records per checkpoint; 0 = on demand
	DegradedProbeEvery time.Duration // -degraded-probe-every: recovery-probe interval while read-only
	SealThrough        string        // -seal-through: initial seal boundary; empty seals nothing
	Follow             string        // -follow: the primary to replicate (requires DataDir)
	ReplMinAcks        int           // -repl-min-acks: follower acks before a mutation's OK
	ReplAckTimeout     time.Duration // -repl-ack-timeout: how long a mutation waits for them
}

// New validates cfg and builds the server it describes, not yet serving:
// Start loads or recovers its state once the serving core is configured.
func New(cfg Config) (*Server, error) {
	if cfg.Load != "" && cfg.DataDir != "" {
		return nil, errors.New("-load and -data-dir are mutually exclusive (the data directory has its own checkpoints)")
	}
	if cfg.Follow != "" && cfg.DataDir == "" {
		return nil, errors.New("-follow requires -data-dir (the replica keeps its own durable log)")
	}
	if cfg.DegradedProbeEvery <= 0 {
		return nil, fmt.Errorf("-degraded-probe-every must be > 0, got %v", cfg.DegradedProbeEvery)
	}
	if cfg.DataDir != "" {
		if _, err := wal.ParseSyncPolicy(cfg.Fsync); err != nil {
			return nil, fmt.Errorf("bad -fsync flag: %w", err)
		}
	}
	sealed := int64(math.MinInt64)
	if cfg.SealThrough != "" {
		t, err := strconv.ParseInt(cfg.SealThrough, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seal-through %q: want an integer time: %w", cfg.SealThrough, err)
		}
		sealed = t
	}
	var ds []core.Dim
	for i, part := range strings.Split(cfg.Dims, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q: %w", part, err)
		}
		ds = append(ds, core.Dim{Name: fmt.Sprintf("d%d", i), Size: n})
	}
	var op agg.Operator
	switch cfg.Op {
	case "sum":
		op = agg.Sum
	case "count":
		op = agg.Count
	case "avg":
		op = agg.Average
	default:
		return nil, fmt.Errorf("unknown operator %q", cfg.Op)
	}
	cube, err := core.New(core.Config{Dims: ds, Operator: op, BufferOutOfOrder: cfg.OOO})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		dims: len(ds),
		hub:  newReplHub(),
		meta: perf.CollectMeta("histserve"),
	}
	s.attachCubeLocked(cube) // nothing else holds s yet
	s.sealedThrough.Store(sealed)
	s.Ready = s.readiness
	s.Init(s.settle, s.commands()...)
	s.link.Init(s.settleShipped, s.linkCommands()...)
	s.link.MaxLineLen, s.link.ReadTimeout = 2*snapChunk, replReadTimeout
	core.RegisterStatsMetrics(s.Reg, s.statsSnapshot)
	s.Connections = s.Reg.NewGauge("histserve_connections", "Open client connections.")
	s.ConnTotal = s.Reg.NewCounter("histserve_connections_total", "Client connections accepted since start.")
	s.Inflight = s.Reg.NewGauge("histserve_inflight_requests", "Requests currently being dispatched.")
	// The link's verbs join the label set; a verb both tables know has one series.
	for _, cmd := range slices.Concat(s.Labels(), s.link.Labels()) {
		if s.Latency[cmd] != nil {
			continue
		}
		s.Errors[cmd] = s.Reg.NewCounter("histserve_errors_total",
			"Requests answered with ERR, by protocol command.", obs.Label{Key: "cmd", Value: cmd})
		s.Latency[cmd] = s.Reg.NewHistogram("histserve_request_seconds",
			"Time from serving a request line to its reply being final (commit wait included), by protocol command.",
			nil, obs.Label{Key: "cmd", Value: cmd})
	}
	for i, name := range stageNames {
		s.stage[i] = s.Reg.NewHistogram("histserve_stage_seconds",
			"Time served requests spent in one stage: the cube call, or the commit barrier's WAL commit and follower-ack wait per released unit.",
			nil, obs.Label{Key: "stage", Value: name})
	}
	s.readonlyRejects = s.Reg.NewCounter("histserve_readonly_rejections_total",
		"Mutations rejected while the server was in degraded read-only mode.")
	s.Panics = s.Reg.NewCounter("histserve_panics_recovered_total",
		"Request panics recovered into ERR internal responses.")
	s.ConnRejects = s.Reg.NewCounter("histserve_connections_rejected_total",
		"Connections rejected at the -max-conns cap.")
	s.degradedFlips = s.Reg.NewCounter("histserve_degraded_transitions_total",
		"Transitions into degraded read-only mode.")
	s.link.Metrics = s.Metrics
	s.Reg.NewGaugeFunc("histcube_degraded",
		"1 while the server is in degraded read-only mode, 0 when healthy.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	return s, nil
}

// Start brings the server to its serving state: the -load snapshot or
// the -data-dir recovery, then -follow, then ready. It runs once the
// serving core is configured (lineserver.Flags.Apply), so the metrics
// listener is already up: /healthz answers during a long WAL replay and
// /readyz answers 503 until Start returns. Failures are logged and
// returned.
func (s *Server) Start() error {
	if t := s.sealedThrough.Load(); t != math.MinInt64 {
		s.Log.Info("sealed", "through", t)
	}
	if path := s.cfg.Load; path != "" {
		began := time.Now()
		if err := s.loadSnapshot(path); err != nil {
			s.Log.Error("loading snapshot failed", "path", path, "err", err)
			return err
		}
		s.Log.Info("resumed from snapshot", "path", path, "dur", time.Since(began))
	}
	if dir := s.cfg.DataDir; dir != "" {
		policy, _ := wal.ParseSyncPolicy(s.cfg.Fsync) // New checked it
		res, err := s.enableDurability(dir, wal.Options{Sync: policy}, s.cfg.CheckpointEvery)
		if err != nil {
			s.Log.Error("recovery failed", "dir", dir, "err", err)
			return err
		}
		s.Log.Info("recovered",
			"dir", dir, "fsync", policy.String(),
			"checkpoint_lsn", res.CheckpointLSN, "replayed", res.Replayed,
			"skipped_ops", res.SkippedOps, "torn_tail", res.TornTail,
			"checkpoints_skipped", res.CheckpointsSkipped)
	}
	if primary := s.cfg.Follow; primary != "" {
		s.startFollower(primary)
		s.Log.Info("follower mode", "primary", primary)
	}
	s.markReady()
	return nil
}

// Run serves addr until SIGINT or SIGTERM (lineserver.Server.Run), its
// listening line naming the cube's shape. The caller runs Close after
// it, so a graceful shutdown ends strictly after the final checkpoint.
func (s *Server) Run(addr string) error {
	return s.Server.Run(addr, "dims", s.dims, "op", s.cfg.Op)
}

// enableDurability recovers the cube from dir and attaches the WAL:
// the recovered (or fresh) cube replaces the server's, mutations go
// through the log from then on, and WAL metrics join the registry. The
// recovered cube's dimensions must match the -dims flag, which fixes
// the protocol's coordinate arity.
func (s *Server) enableDurability(dir string, opts wal.Options, checkpointEvery int64) (wal.RecoverResult, error) {
	opts.Metrics = wal.NewMetrics(s.Reg)
	if inj := s.Inj; inj != nil {
		// fault.File is a structural copy of wal.SegmentFile, so the
		// interface values convert both ways without an adapter.
		opts.WrapSegment = func(f wal.SegmentFile) wal.SegmentFile {
			return inj.WrapFile("wal", f)
		}
	}
	s.mu.Lock()
	fresh := s.cube // still untouched; captured under mu so Recover's callback needs no lock
	s.checkpointEvery = checkpointEvery
	s.mu.Unlock()
	// Recovery runs without mu so the metrics listener stays live during
	// a long replay (its state callbacks take mu at scrape time).
	cube, log, res, err := wal.Recover(dir, opts, func() (*core.Cube, error) {
		return fresh, nil
	})
	if err != nil {
		return res, err
	}
	if err := s.checkDims("recovered cube", cube); err != nil {
		_ = log.Close() // the dimension mismatch is the actionable error
		return res, err
	}
	wal.RegisterStateMetrics(s.Reg, log)
	s.wal = log
	s.mu.Lock()
	s.attachCubeLocked(cube)
	s.mu.Unlock()
	return res, nil
}

// checkDims enforces -dims, which fixes the protocol's coordinate
// arity, on a cube the server did not build.
func (s *Server) checkDims(what string, cube *core.Cube) error {
	if n := len(cube.Shape()); n != s.dims {
		return fmt.Errorf("%s has %d dimensions, -dims specifies %d", what, n, s.dims)
	}
	return nil
}

// attachCubeLocked makes cube the one the server serves. The caller
// holds mu.
func (s *Server) attachCubeLocked(cube *core.Cube) {
	s.cube = cube
	s.shape = cube.Shape()
	s.operator.Store(int32(cube.Operator()))
}

// Close ends the server's state: a follower stops following, then a
// final checkpoint is written and the WAL and cube are closed. It holds
// mu throughout, so in-flight requests finish first and later ones fail
// cleanly on the closed log. Closing the listener is Run's (or the
// caller of Serve's).
func (s *Server) Close() {
	if r := s.repl; r != nil {
		r.stopOnce.Do(func() { close(r.stop) })
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if lsn, err := s.wal.Checkpoint(s.cube.Save); err != nil {
			s.Log.Error("final checkpoint failed", "err", err)
		} else {
			s.Log.Info("final checkpoint written", "lsn", lsn)
		}
		if err := s.wal.Close(); err != nil {
			s.Log.Error("closing WAL failed", "err", err)
		}
	}
	if err := s.cube.Close(); err != nil {
		s.Log.Error("closing cube failed", "err", err)
	}
}

// maybeCheckpointLocked runs the every-N-records checkpoint policy;
// the caller holds mu. Checkpoint failures are logged, not fatal: the
// log keeps growing, so durability degrades to slower recovery rather
// than data loss — unless the failure is out-of-space, which means
// appends are about to fail too, so the server degrades to read-only
// proactively.
func (s *Server) maybeCheckpointLocked() {
	if s.wal == nil {
		return
	}
	ran, err := s.wal.MaybeCheckpoint(s.checkpointEvery, s.cube.Save)
	if err != nil {
		s.Log.Error("checkpoint failed", "err", err)
		if isStorageFailure(err) {
			s.setDegraded(err)
		}
	} else if ran {
		s.Log.Info("checkpoint written", "lsn", s.wal.LastLSN())
	}
}

// readiness answers /readyz: during WAL replay the process is alive but
// must not receive traffic yet, and in degraded read-only mode a load
// balancer should route mutating traffic elsewhere.
func (s *Server) readiness() (ok bool, msg string) {
	if !s.ready.Load() {
		return false, "recovering"
	}
	if s.degraded.Load() {
		cause, _ := s.degradedMsg.Load().(string)
		return false, "degraded: " + cause
	}
	// A replica is ready once it has caught up to its primary's
	// frontier at least once; until then routing reads to it would
	// serve answers from before the bootstrap finished.
	if s.isReplica() {
		r := s.repl
		if !r.synced.Load() {
			return false, fmt.Sprintf("replica syncing: applied_lsn=%d replica_lag_lsn=%d", r.applied(), r.lag())
		}
		return true, fmt.Sprintf("ok replica_lag_lsn=%d", r.lag())
	}
	return true, "ok"
}

// commands is histserve's command table. INS, DEL, QRY and EXPLAIN join
// the unit in progress: their handlers only parse, and settle runs the
// unit against the cube under one mu, one commit barrier and one flush;
// VERSION reads nothing a unit changes. STATS, ROLE, CHECKPOINT, SAVE,
// SEAL and PROMOTE read or change state a unit's pending lines change,
// so each starts a unit once the one before it has settled and a window
// answers as at depth 1. REPLICATE hijacks the connection for WAL
// shipping (see repl.go), so the replies before it must have left; its
// arguments are checked there because a refused REPLICATE closes the
// connection. QRY's arity is checked by queryOp, which EXPLAIN shares.
func (s *Server) commands() []lineserver.Command {
	mut := 1 + s.dims + 1
	return []lineserver.Command{
		{Verb: "INS", MinArgs: mut, MaxArgs: mut, Joins: true, Handle: s.cmdMutate,
			Usage: fmt.Sprintf("INS needs time, %d coordinates and a value", s.dims)},
		{Verb: "DEL", MinArgs: mut, MaxArgs: mut, Joins: true, Handle: s.cmdMutate,
			Usage: fmt.Sprintf("DEL needs time, %d coordinates and a value", s.dims)},
		{Verb: "QRY", MaxArgs: -1, Joins: true, Handle: s.cmdQuery},
		{Verb: "EXPLAIN", MaxArgs: -1, Joins: true, Handle: s.cmdExplain},
		{Verb: "STATS", Usage: "STATS takes no arguments", Handle: s.cmdStats},
		{Verb: "SAVE", MinArgs: 1, MaxArgs: 1, Usage: "SAVE needs a file path", Handle: s.cmdSave},
		{Verb: "CHECKPOINT", Usage: "CHECKPOINT takes no arguments", Handle: s.cmdCheckpoint},
		{Verb: "SEAL", MaxArgs: 1, Usage: "SEAL takes at most one argument: SEAL [<time>]", Handle: s.cmdSeal},
		{Verb: "VERSION", Usage: "VERSION takes no arguments", Joins: true, Handle: s.cmdVersion},
		{Verb: "ROLE", Usage: "ROLE takes no arguments", Handle: s.cmdRole},
		{Verb: "PROMOTE", MaxArgs: 1, Usage: "PROMOTE takes at most one argument: PROMOTE [<min_lsn>]", Handle: s.cmdPromote},
		{Verb: "REPLICATE", MaxArgs: -1, EndsUnit: true, Hijack: s.serveReplication},
	}
}

// servedOp is what cmdMutate, cmdQuery and cmdExplain leave in
// rq.Pending for settle: the parsed line, its root span, its request
// context, its outcome.
type servedOp struct {
	root   *trace.Span
	ctx    lineserver.RequestCtx // armed by serveLocked
	op     core.Op               // INS/DEL
	rng    core.Range            // QRY/EXPLAIN
	lsn    uint64                // where a mutation was logged, 0 if it was not
	v      float64               // a query's answer, or its pair's sum
	count  float64               // a pair's count
	err    error
	stage  uint8 // its cube stage
	render uint8 // a query's reply: renderers[render]; a mutation's is OK
	denied bool  // admit refused it: it is not traced, as at parse time
	pair   bool  // the query asked for its (sum, count) pair (lineserver.PairPrefix)
	// rng's lo and hi coordinates, while the cube has at most
	// inlineDims dimensions. An op's are a slice of their own: the
	// out-of-order buffer keeps them.
	box [2 * inlineDims]int
}

const inlineDims = 4

// settle applies a unit's INS, DEL, QRY and EXPLAIN lines (applyUnit),
// then, with mu released, ends their spans at one stamp, renders their
// replies, hands each tree to the trace feeds last, and waits for the
// commit of the log's end as the unit left it: a reply reflects only
// committed writes, a query's too. Both waits are cumulative, so one
// barrier covers the unit; if it fails, it is every reply's ERR. A unit
// that neither logged nor read skips it, and so does one that only read
// while the server is degraded, so degraded reads keep serving. A unit
// that skips the barrier was final at the stamp its roots ended at,
// which settle returns for the serving core's second stamp.
func (s *Server) settle(open []*lineserver.Request) time.Time {
	_, end, _ := s.applyUnit(open, s.serveLocked)
	applied := lineserver.StampAfter(open[0].Start())
	logged, read := false, false
	for _, rq := range open {
		o := rq.Pending.(*servedOp)
		o.root.EndAt(applied)
		logged, read = logged || o.lsn > 0, read || o.stage == stageCubeQuery
		switch {
		case o.err != nil:
			rq.Reply = errResponse(o.err)
		case o.stage == stageCubeQuery:
			rq.Reply = renderers[o.render](o)
		default:
			rq.Reply = "OK"
		}
		if !o.denied { // Observe hands the tree to the ring: nothing reads it after
			s.observeCube(o.stage, o.root)
			s.Observe(rq.Line, o.root)
		}
	}
	if s.wal == nil || !logged && (!read || s.degraded.Load()) {
		return applied
	}
	if errResp := s.commitBarrier(end); errResp != "" {
		for _, rq := range open {
			rq.Reply = errResp
		}
	}
	return time.Time{}
}

// applyUnit is where a unit meets the cube, on primary and follower
// alike: under one mu it runs apply on the open requests in order until
// one fails and the every-N checkpoint policy once, and returns how many
// apply took, the log's end (what the unit's commit waits for) and the
// error. A panic releases mu by the deferred unlock on its way to the
// serving core's barrier, which answers the unit ERR internal.
func (s *Server) applyUnit(open []*lineserver.Request, apply func(*lineserver.Request) error) (n int, end uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rq := range open {
		if err = apply(rq); err != nil {
			break
		}
		n++
	}
	s.maybeCheckpointLocked()
	return n, s.walLastLSN(), err
}

// serveLocked is settle's apply step, under mu: it runs one servedOp and
// leaves the outcome in it. Admission and the deadline (from the unit's
// first stamp) are read here, as they can change while a unit waits. A
// staging failure (the log closed, or latched by a failed write or fsync
// its repair could not clear) or out-of-space enters degraded mode; an
// op the cube rejects is logged, answers ERR, and stays out on recovery.
func (s *Server) serveLocked(rq *lineserver.Request) error {
	o := rq.Pending.(*servedOp)
	ctx := s.StartRequest(&o.ctx, o.root, rq.Start())
	defer o.ctx.Cancel()
	if o.stage == stageCubeQuery {
		if !o.pair {
			o.v, o.err = s.cube.QueryCtx(ctx, o.rng)
			return nil
		}
		var v agg.Value
		v, o.err = s.cube.QueryPairCtx(ctx, o.rng)
		o.v, o.count = v.Sum, v.Count
		return nil
	}
	if o.err = s.admit(o.op.Time); o.err != nil {
		o.denied = true
		return nil
	}
	o.lsn, o.err = s.wal.Apply(ctx, s.cube, o.op)
	switch {
	case o.err == nil:
	case o.lsn == 0 && s.wal != nil && !errors.Is(o.err, ctx.Err()):
		// Nothing was logged, and not for a done context: staging failed.
		o.err = fmt.Errorf("%w: %w", errWALAppend, o.err)
		s.setDegraded(o.err)
	case isStorageFailure(o.err):
		s.setDegraded(o.err)
	}
	return nil
}

// admit decides whether a mutation at time t may reach the log: never on
// a replica (only the shipped stream writes its cube, which keeps hedged
// reads safe) nor into the sealed range, and while degraded only as the
// one recovery probe per -degraded-probe-every, whose commit clears it.
func (s *Server) admit(t int64) error {
	if s.isReplica() {
		return errors.New("read-only replica: mutations go to the primary (" + s.repl.primaryAddr + ")")
	}
	if sealed := s.sealedThrough.Load(); t <= sealed {
		return fmt.Errorf("sealed: time %d is in the sealed range (sealed through %d; this history is read-only)", t, sealed)
	}
	if !s.degraded.Load() || s.probeDue() {
		return nil
	}
	s.readonlyRejects.Inc()
	msg, _ := s.degradedMsg.Load().(string) // stored before degraded flips
	return errors.New("read-only: mutations disabled after " + msg + " (queries still served; probing for recovery)")
}

// commitBarrier waits, with no lock held, until the record at lsn is
// durable and, on a primary, semi-synchronously replicated, and returns
// "" or the ERR that replaces the unit's replies. A commit is what proves
// the disk works, so it — not a staged write — clears degraded mode, and
// a failed one enters it. A covered record (which Commit also passes at
// once) proves nothing now: it neither clears it nor costs a stage sample.
func (s *Server) commitBarrier(lsn uint64) string {
	if s.wal.ShippedLSN() < lsn {
		start := time.Now()
		err := s.wal.Commit(lsn)
		s.stage[stageCommitWait].Observe(time.Since(start).Seconds())
		if err != nil {
			err = fmt.Errorf("%w: %w", errWALAppend, err)
			s.setDegraded(err)
			return errResponse(err)
		}
		s.clearDegraded()
	}
	if s.isReplica() { // a replica has no followers to wait for
		return ""
	}
	if err := s.hub.WaitAcked(lsn, s.cfg.ReplMinAcks, s.cfg.ReplAckTimeout, s.stage[stageReplAckWait]); err != nil {
		return "ERR " + err.Error()
	}
	return ""
}

func (s *Server) cmdVersion(*lineserver.Request) string {
	return fmt.Sprintf("OK histserve rev=%s dirty=%t go=%s", s.meta.GitRev, s.meta.GitDirty, s.meta.GoVersion)
}

func (s *Server) cmdRole(*lineserver.Request) string { return s.roleLine() }

// cmdPromote answers PROMOTE [<min_lsn>] — failover: turn this follower
// into a primary. The optional fence refuses the promotion when this
// replica has applied less than min_lsn (another replica holds more
// acked history and must take over instead).
func (s *Server) cmdPromote(rq *lineserver.Request) string {
	var minLSN uint64
	if len(rq.Fields) == 2 {
		v, err := strconv.ParseUint(rq.Fields[1], 10, 64)
		if err != nil {
			return "ERR bad fence LSN: " + err.Error()
		}
		minLSN = v
	}
	return s.promote(minLSN)
}

// cmdSeal answers SEAL [<t>]: SEAL <t> raises the seal boundary to t;
// bare SEAL seals the whole timeline (full read-only demotion).
// Monotonic: sealing below the current boundary is a no-op reporting
// the boundary, because unsealing would re-open history other shards
// already answer for.
func (s *Server) cmdSeal(rq *lineserver.Request) string {
	t := int64(math.MaxInt64)
	if len(rq.Fields) == 2 {
		v, err := strconv.ParseInt(rq.Fields[1], 10, 64)
		if err != nil {
			return "ERR bad seal time: " + err.Error()
		}
		t = v
	}
	return fmt.Sprintf("OK sealed_through=%d", s.sealThrough(t))
}

func (s *Server) cmdStats(*lineserver.Request) string {
	st := s.statsSnapshot()
	degraded := 0
	if s.degraded.Load() {
		degraded = 1
	}
	// sealed_through appears only once something is sealed: the
	// MinInt64 sentinel would poison numeric STATS aggregation
	// (histproxy sums/maxes the fields it understands). git_rev is
	// the only non-numeric field; consumers skip unknown tokens.
	tail := ""
	if sealed := s.sealedThrough.Load(); sealed != math.MinInt64 {
		tail = fmt.Sprintf(" sealed_through=%d", sealed)
	}
	// Follower mode reports its replication positions; the fields
	// appear only on replicas, so a proxy summing primary STATS
	// never sees them.
	if s.isReplica() {
		r := s.repl
		tail += fmt.Sprintf(" replica=1 replica_applied_lsn=%d replica_lag_lsn=%d",
			r.applied(), r.lag())
	}
	tail += " git_rev=" + s.meta.GitRev
	return fmt.Sprintf("slices=%d incomplete=%d pending=%d appended=%d "+
		"ooo=%d conversions=%d cells_touched=%d forced_copies=%d copy_ahead=%d "+
		"cache_accesses=%d store_accesses=%d degraded=%d readonly_rejections=%d",
		st.Slices, st.IncompleteSlices, st.PendingOutOfOrder, st.AppendedUpdates,
		st.OutOfOrderUpdates, st.ECubeConversions, st.ECubeCellsTouched,
		st.ForcedCopies, st.CopyAheadWork, st.CacheAccesses, st.StoreAccesses,
		degraded, s.readonlyRejects.Value()) + tail
}

func (s *Server) cmdSave(rq *lineserver.Request) string {
	if err := s.saveSnapshot(rq.Fields[1]); err != nil {
		return "ERR " + err.Error()
	}
	return "OK"
}

func (s *Server) cmdCheckpoint(*lineserver.Request) string { return s.checkpointNow() }

// cmdMutate parses INS/DEL <time> <c1>..<cd> <value> and leaves the op
// for settle. rq.TID is the trace identifier propagated by the
// request's TID= token (zero when absent): the root span adopts it, so
// the ID a proxy generated at the edge survives into this shard's spans,
// slow log and feeds.
func (s *Server) cmdMutate(rq *lineserver.Request) string {
	fields := rq.Fields
	t, errResp := parseInt(fields[1])
	if errResp != "" {
		return errResp
	}
	coords := make([]int, s.dims)
	if errResp = s.parseCoords(coords, fields[2:2+s.dims]); errResp != "" {
		return errResp
	}
	val, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		return "ERR bad value: " + err.Error()
	}
	// Every stored cell is a running total over all history: one NaN
	// or Inf would poison each later cumulative answer, and no DEL
	// can subtract it out again.
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return "ERR bad value: not finite"
	}
	o := &servedOp{stage: stageCubeInsert, op: core.Op{Kind: core.OpInsert, Time: t, Coords: coords, Value: val}}
	if rq.Verb() == "DEL" {
		o.stage, o.op.Kind, o.root = stageCubeDelete, core.OpDelete, trace.NewAt("histserve.delete", rq.Start())
	} else {
		o.root = trace.NewAt("histserve.insert", rq.Start())
	}
	o.root.SetTraceID(rq.TID)
	rq.Pending = o
	return ""
}

func (s *Server) cmdQuery(rq *lineserver.Request) string {
	return s.queryOp(rq, rq.Fields[1:], renderResult)
}

// cmdExplain answers EXPLAIN [JSON] QRY ... — the JSON variant answers
// on a single line with the full structured span tree, which is what
// histproxy consumes to graft this shard's spans under its own
// proxy.leg (the text variant stays the human/debug format).
func (s *Server) cmdExplain(rq *lineserver.Request) string {
	args, render := rq.Fields[1:], renderExplainText
	if len(args) > 0 && strings.ToUpper(args[0]) == "JSON" {
		args, render = args[1:], renderExplainJSON
	}
	if len(args) < 1 || strings.ToUpper(args[0]) != "QRY" {
		return "ERR EXPLAIN wraps a query: EXPLAIN [JSON] QRY <tlo> <thi> <lo...> <hi...>"
	}
	return s.queryOp(rq, args[1:], render)
}

// queryOp parses the arguments of a QRY (after the verb) — <tlo> <thi>
// <l1>..<ld> <u1>..<ud> — and leaves the traced range query for settle,
// whose reply renderers[render] makes from the result and the finished
// span tree. A non-zero rq.TID (the TID= token) becomes the root span's
// trace ID. It returns the ERR response of a line that does not parse.
func (s *Server) queryOp(rq *lineserver.Request, args []string, render uint8) string {
	if len(args) != 2+2*s.dims {
		return fmt.Sprintf("ERR QRY needs tlo, thi and %d lo + %d hi coordinates", s.dims, s.dims)
	}
	o := &servedOp{stage: stageCubeQuery, render: render, pair: rq.Pair}
	var errResp string
	if o.rng.TimeLo, errResp = parseInt(args[0]); errResp != "" {
		return errResp
	}
	if o.rng.TimeHi, errResp = parseInt(args[1]); errResp != "" {
		return errResp
	}
	box := o.box[:]
	if len(box) < 2*s.dims {
		box = make([]int, 2*s.dims)
	}
	o.rng.Lo, o.rng.Hi = box[:s.dims:s.dims], box[s.dims:2*s.dims]
	if errResp = s.parseCoords(o.rng.Lo, args[2:2+s.dims]); errResp != "" {
		return errResp
	}
	if errResp = s.parseCoords(o.rng.Hi, args[2+s.dims:]); errResp != "" {
		return errResp
	}
	o.root = trace.NewAt("histserve.query", rq.Start())
	o.root.SetTraceID(rq.TID)
	rq.Pending = o
	return ""
}

// The replies a query's servedOp.render selects: the answer, or an
// EXPLAIN's text or JSON.
const (
	renderResult uint8 = iota
	renderExplainText
	renderExplainJSON
)

var renderers = [...]func(*servedOp) string{
	renderResult:      formatResult,
	renderExplainText: explainText,
	renderExplainJSON: explainJSON,
}

// formatResult renders a query's answer, or its pair as "<sum> <count>".
func formatResult(o *servedOp) string {
	if o.pair {
		return strconv.FormatFloat(o.v, 'g', -1, 64) + " " + strconv.FormatFloat(o.count, 'g', -1, 64)
	}
	return strconv.FormatFloat(o.v, 'g', -1, 64)
}

func explainText(o *servedOp) string { return o.root.Explain("OK result=" + formatResult(o)) }

func explainJSON(o *servedOp) string {
	doc, err := json.Marshal(trace.ExplainJSON{Result: o.v, Count: o.count, Trace: o.root.JSON()})
	if err != nil {
		return "ERR rendering trace: " + err.Error()
	}
	return "OK " + string(doc)
}

// parseInt parses an integer field. The second result is a non-empty ERR
// response on failure.
func parseInt(field string) (int64, string) {
	t, err := strconv.ParseInt(field, 10, 64)
	if err != nil {
		return 0, fmt.Sprintf("ERR bad integer %q", field)
	}
	return t, ""
}

// parseCoords parses one coordinate per dimension into coords and
// validates it against the cube's domain at the protocol boundary,
// naming the offending dimension: out-of-range input is a client error
// and must never reach the storage layer. It returns a non-empty ERR
// response on failure.
func (s *Server) parseCoords(coords []int, fields []string) string {
	for i, f := range fields {
		v, errResp := parseInt(f)
		if errResp != "" {
			return errResp
		}
		c, ok := dims.ToCoord(v)
		if !ok {
			return fmt.Sprintf("ERR coordinate %d overflows", v)
		}
		if c < 0 || c >= s.shape[i] {
			return fmt.Sprintf("ERR bad coordinate d%d: %d outside [0, %d)", i, c, s.shape[i])
		}
		coords[i] = c
	}
	return ""
}

// observeCube files the duration of the span the core opened under root
// for its insert, delete or query (root's first child) as stage st, so
// the stage costs no clock reads of its own.
func (s *Server) observeCube(st uint8, root *trace.Span) {
	if cs := root.Children(); len(cs) > 0 {
		s.stage[st].Observe(cs[0].Duration().Seconds())
	}
}

// statsSnapshot reads the cube's counters under mu.
func (s *Server) statsSnapshot() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cube.Stats()
}

// errResponse renders an error as the protocol's ERR line, giving
// deadline and cancellation failures a stable prefix clients can match.
func errResponse(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "ERR timeout: " + err.Error()
	case errors.Is(err, context.Canceled):
		return "ERR canceled: " + err.Error()
	default:
		return "ERR " + err.Error()
	}
}

// isStorageFailure classifies errors that mean the durable layer is
// broken rather than the request: these flip the server read-only
// instead of just failing one op.
func isStorageFailure(err error) bool {
	return errors.Is(err, errWALAppend) || errors.Is(err, syscall.ENOSPC)
}

// setDegraded enters read-only mode (idempotently): mutations are
// rejected, queries keep serving, and lastProbeNano starts the probe
// clock so recovery attempts are rate-limited from now.
func (s *Server) setDegraded(cause error) {
	s.degradedMsg.Store(cause.Error())
	s.lastProbeNano.Store(time.Now().UnixNano())
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedFlips.Inc()
		s.Log.Error("entering degraded read-only mode", "cause", cause)
	}
}

// clearDegraded leaves read-only mode after a successful commit proved
// the storage path works again. A no-op when healthy.
func (s *Server) clearDegraded() {
	if s.degraded.CompareAndSwap(true, false) {
		s.Log.Info("leaving degraded read-only mode: storage recovered")
	}
}

// probeDue claims the next recovery-probe slot: at most one mutation
// per interval may test whether storage healed. The CAS keeps the
// claim race-free without taking mu on the reject fast path.
func (s *Server) probeDue() bool {
	now := time.Now().UnixNano()
	last := s.lastProbeNano.Load()
	if now-last < s.cfg.DegradedProbeEvery.Nanoseconds() {
		return false
	}
	return s.lastProbeNano.CompareAndSwap(last, now)
}

// markReady flips /readyz to 200: startup (snapshot load, WAL
// recovery) has finished and the server is about to accept traffic.
func (s *Server) markReady() { s.ready.Store(true) }

// sealThrough raises the seal boundary to t (monotonically — a lower
// request leaves it unchanged) and returns the resulting boundary.
func (s *Server) sealThrough(t int64) int64 {
	for {
		cur := s.sealedThrough.Load()
		if t <= cur {
			return cur
		}
		if s.sealedThrough.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// checkpointNow runs the CHECKPOINT command. It holds mu across the
// whole snapshot so the covered LSN is exact.
func (s *Server) checkpointNow() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return "ERR no data directory configured (start with -data-dir)"
	}
	lsn, err := s.wal.Checkpoint(s.cube.Save)
	if err != nil {
		if isStorageFailure(err) {
			s.setDegraded(err)
		}
		return "ERR " + err.Error()
	}
	return fmt.Sprintf("OK %d", lsn)
}

func (s *Server) saveSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	err = s.cube.Save(f)
	s.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Read-only: decode errors are the signal, the close result is not.
	defer func() { _ = f.Close() }()
	cube, err := core.Load(f)
	if err != nil {
		return err
	}
	if err := s.checkDims("loaded snapshot", cube); err != nil {
		return err
	}
	s.mu.Lock()
	s.attachCubeLocked(cube)
	s.mu.Unlock()
	return nil
}
