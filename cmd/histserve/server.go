// Command histserve exposes a histcube over TCP with a line-oriented
// text protocol, turning the append-only cube into a tiny aggregation
// service for streaming sources (the data-warehouse loading scenario
// of the paper's introduction).
//
// Usage:
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
//	ROLE                               -> OK role=primary last_lsn=<n> followers=<n>
//	                                      | OK role=replica applied_lsn=<n> lag_lsn=<n> primary=<addr>
//	PROMOTE [<min_lsn>]                -> OK role=primary ... | ERR promotion fenced ...
//	REPLICATE FROM <lsn>               -> hijacks the connection for WAL
//	                                      shipping (see repl.go)
//	STATS                              -> slices=<n> incomplete=<n> pending=<n> appended=<n> ...
//	SAVE <path>                        -> OK | ERR <msg> (cube snapshot)
//	CHECKPOINT                         -> OK <lsn> | ERR <msg> (durable mode only)
//	QUIT                               -> BYE (closes the connection)
//
// STATS carries the full counter set (see README's Observability
// section): out-of-order totals, eCube conversion progress (split by
// query/append trigger), lazy-copy work, tier demotions and access
// counts, plus trailing win_* fields digesting the sliding latency
// window (perfWindow) for QRY and INS: ops/sec, p50 and p99 in
// microseconds over the last win_s seconds.
//
// Every request is traced (internal/trace): EXPLAIN renders the span
// tree with the paper's per-query cost counters, SLOWLOG returns the
// worst traces at or above -slow-query-threshold (bounded by
// -slowlog-size), and the metrics listener serves them as JSON.
// Distributed tracing: any request line may carry a leading
// "TID=<16 hex>" token (histproxy stamps one on every shard leg); the
// request's root span adopts that trace ID, so one identifier
// correlates the query across proxy and shard slog lines, SLOWLOG
// entries and both /debug/trace/recent feeds.
//
// Start with -load <path> to resume from a snapshot written by SAVE
// (the -dims and -op flags must match the snapshot's configuration).
//
// With -data-dir the server is durable: every acknowledged mutation is
// first appended to a write-ahead log (internal/wal) under the given
// directory, -fsync selects the always/interval/never fsync policy,
// and -checkpoint-every N writes a cube snapshot and truncates the log
// every N records (CHECKPOINT forces one on demand). On boot the
// server recovers from the latest valid checkpoint plus the log tail,
// truncating a torn final record. SIGINT/SIGTERM trigger a graceful
// shutdown: stop accepting connections, write a final checkpoint,
// flush and fsync the log, exit 0.
//
// Pipelining and group commit: a client may send further requests
// before reading replies. The connection loop answers every complete
// line it finds already buffered and releases those replies together —
// one WAL commit (under -fsync=always one fsync, shared with whichever
// other connections are committing), with -repl-min-acks one
// cumulative ack wait, one flush — so an OK still implies durable (and
// replicated) while a window of N inserts costs one fsync, not N. A
// client at depth 1 sees exactly the old behaviour. A write is visible
// to queries once applied, which may be before it is durable.
//
// With -metrics the server additionally serves a Prometheus-style
// endpoint: GET /metrics renders every histcube_* and histserve_*
// metric in text exposition format, GET /healthz answers "ok"
// (liveness), GET /readyz answers "ok" only once WAL recovery has
// finished (readiness — 503 while replaying). The same listener
// serves GET /debug/slowlog and /debug/trace/recent (retained traces
// as JSON) and the standard /debug/pprof/* profiling endpoints. Start
// with -mutex-profile-fraction / -block-profile-rate to populate
// /debug/pprof/mutex and /debug/pprof/block when profiling the
// single-mutex bottleneck.
//
// Resource governance: -max-conns caps concurrently open client
// connections (excess connections get one "ERR server busy" line and
// are closed), -read-timeout closes idle connections and doubles as
// the write deadline on every response (a client that stops reading
// cannot pin a goroutine on a blocked flush), -max-line-bytes
// bounds the request line a client may send, and -request-timeout puts
// a context deadline on every INS/DEL/QRY/EXPLAIN — long-running
// eCube evaluations poll it cooperatively and abandon the request with
// "ERR timeout". A panic inside a request is recovered per connection:
// the client sees "ERR internal", the span tree and stack go to the
// log, and the cube mutex is released by defer rather than poisoned.
//
// Graceful degradation: when the durable layer fails persistently — a
// WAL append that survives its retry budget, or out-of-space anywhere
// on the checkpoint path — the server flips to read-only. Mutations
// are rejected with "ERR read-only: ..." while queries keep serving
// the historic data (the paper's historic slices are immutable, so
// reads need no healthy write path). Every -degraded-probe-every, one
// mutation is let through as a recovery probe; the first success
// clears the flag. /readyz answers 503 and STATS reports degraded=1
// while the state lasts.
//
// The hidden -fault-spec / -fault-seed flags arm the deterministic
// fault injector (internal/fault) on the WAL segment files and the
// dispatch loop for chaos runs; see that package for the spec grammar.
//
// Replication: start with -follow <primary> (plus -data-dir) to run
// as a replica — the server tails the primary's WAL over a REPLICATE
// connection, applies every acked record to its own log and cube
// (answers are bit-identical to the primary's, since cube state is a
// deterministic function of the op stream), rejects client mutations,
// and reports its positions via ROLE, STATS (replica=1,
// replica_applied_lsn, replica_lag_lsn) and /readyz. A follower whose
// position fell behind the primary's checkpoint retention is
// bootstrapped automatically from a shipped snapshot. PROMOTE turns a
// follower into a primary during failover; -repl-min-acks N makes a
// primary hold each mutation's OK until N followers acknowledged it
// (semi-synchronous replication), so failover loses no acked write.
//
// Sharding support: SEAL <t> (or bare SEAL for everything) makes all
// times at or below t read-only — mutations into the sealed range get
// "ERR sealed: ..." while queries keep serving. A sharding proxy
// (cmd/histproxy) demotes a historic shard by sealing the time range
// it owns, so a misrouted or replayed mutation cannot silently land in
// history that other shards now answer for. The seal boundary only
// ever rises, is reported by STATS as sealed_through, and is a runtime
// state, not a durable one: pass -seal-through on restart (the shard
// map, not the shard, is the source of truth for ownership). VERSION
// lets clients and probes verify which build they reached; STATS
// carries the same revision as git_rev.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/dims"
	"histcube/internal/fault"
	"histcube/internal/lineserver"
	"histcube/internal/obs"
	"histcube/internal/perf"
	"histcube/internal/trace"
	"histcube/internal/wal"
)

// errWALAppend marks an op-sink failure: the WAL could not append the
// mutation, so it was never applied. isStorageFailure keys off it to
// flip the server read-only.
var errWALAppend = errors.New("wal append failed")

// errInternal is the client-visible face of a recovered panic; the
// span tree and stack stay in the server log.
var errInternal = errors.New("internal error (recovered panic; see server log)")

// commands lists every protocol verb, used to pre-register one
// labelled request/error counter per command ("other" catches unknown
// verbs so a misbehaving client cannot grow the label set unbounded).
var commands = []string{"INS", "DEL", "QRY", "EXPLAIN", "SLOWLOG", "STATS", "SAVE", "CHECKPOINT", "SEAL", "VERSION", "ROLE", "PROMOTE", "REPLICATE", "QUIT", "other"}

// perfWindow is the sliding window of the per-command latency and
// throughput digests (STATS win_*, histserve_cmd_* gauges).
const perfWindow = 10 * time.Second

// server is one histserve instance.
//
// Locking contract: mu guards the cube — every cube call, including
// queries. Queries mutate shared state (the eCube conversion rewrites
// historic DDC cells to PS form, and the read path bumps cost
// counters), so a plain RWMutex read lock would race; the single
// mutex is load-bearing, not an oversight. The metrics registry is
// not guarded by mu: metric primitives are atomic, and the
// state-derived callbacks registered in newServer take mu themselves
// at scrape time.
type server struct {
	mu   sync.Mutex
	cube *core.Cube // guarded by mu
	dims int

	reg *obs.Registry
	ins *core.Instruments
	log *slog.Logger

	// wal, when non-nil, makes the server durable: the cube's op sink
	// stages every mutation in the log before it is applied (under
	// -fsync=always the commit barrier fsyncs it before the reply
	// leaves), and checkpointEvery drives automatic snapshots.
	wal             *wal.Log // guarded by mu
	checkpointEvery int64    // guarded by mu

	// walDir/walOpts are retained after enableDurability (startup-only
	// from then on) so a follower can re-run recovery after installing a
	// snapshot shipped by its primary; cubeCfg rebuilds a fresh cube for
	// that recovery.
	walDir  string
	walOpts wal.Options
	cubeCfg core.Config

	// Replication (see repl.go): repl is non-nil in follower mode
	// (-follow) and set before the listener starts; hub aggregates
	// follower acknowledgements on the primary side so mutations can
	// wait for -repl-min-acks replicas before answering OK.
	repl           *replState
	hub            *replHub
	replMinAcks    int           // startup-only, like the governance knobs
	replAckTimeout time.Duration // startup-only

	// slow retains the worst query traces at or above its threshold;
	// recent is a ring of the last finished request traces regardless of
	// duration. Both carry their own locks, so they are deliberately
	// outside the mu contract — Observe/Add run after mu is released.
	slow   *trace.SlowLog
	recent *trace.Ring

	// perf records per-command request latency into sliding windows
	// (internal/perf); like slow/recent it is atomic internally and
	// outside the mu contract. STATS and the histserve_cmd_latency_*
	// gauges read it.
	perf *perf.Set

	// ready flips to true once startup (snapshot load, WAL recovery) has
	// finished; /readyz answers 503 until then while /healthz stays a
	// pure liveness probe.
	ready atomic.Bool

	// Resource governance knobs, set from flags before the listener
	// starts (startup-only, like dims); zero values disable each limit.
	reqTimeout  time.Duration // per-request context deadline
	readTimeout time.Duration // idle-connection read deadline; doubles as the per-write deadline
	maxLineLen  int           // largest accepted request line in bytes
	maxConns    int64         // open-connection cap; 0 = unlimited
	probeEvery  time.Duration // recovery-probe interval while degraded

	// shape is the cube's per-dimension domain, frozen at startup (the
	// protocol's arity and domains cannot change while serving); used to
	// reject out-of-range coordinates at the boundary.
	shape []int

	// inj is the optional fault injector (-fault-spec); a nil *Injector
	// is inert, so call sites need no guard.
	inj *fault.Injector

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

	liveConns   atomic.Int64
	connSeq     atomic.Int64
	connections *obs.Gauge
	connTotal   *obs.Counter
	inflight    *obs.Gauge
	requests    map[string]*obs.Counter
	errors      map[string]*obs.Counter

	readonlyRejects *obs.Counter
	panics          *obs.Counter
	connRejects     *obs.Counter
	degradedFlips   *obs.Counter

	// commitWait and replAckWait time the two halves of the commit
	// barrier, once per released batch that carried a mutation.
	commitWait  *obs.Histogram
	replAckWait *obs.Histogram
}

func main() {
	var (
		addr    = flag.String("addr", ":7070", "listen address")
		dimsArg = flag.String("dims", "16,16", "comma-separated non-time dimension sizes")
		opArg   = flag.String("op", "sum", "aggregate operator: sum, count, avg")
		ooo     = flag.Bool("ooo", false, "buffer out-of-order updates instead of rejecting them")
		load    = flag.String("load", "", "resume from a snapshot written by the SAVE command")
		metrics = flag.String("metrics", "", "optional HTTP listen address serving /metrics and /healthz (e.g. :9090)")
		dataDir = flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); empty disables durability")
		fsync   = flag.String("fsync", "always", "WAL fsync policy: always, interval, never (with -data-dir)")
		ckptN   = flag.Int64("checkpoint-every", 10000, "checkpoint every N WAL records; 0 = only on CHECKPOINT/shutdown (with -data-dir)")
		slowThr = flag.Duration("slow-query-threshold", 10*time.Millisecond, "queries at or above this duration enter the slow-query log")
		slowCap = flag.Int("slowlog-size", 32, "worst traces retained by the slow-query log")
		reqTO   = flag.Duration("request-timeout", 10*time.Second, "per-request deadline for INS/DEL/QRY/EXPLAIN; 0 disables")
		readTO  = flag.Duration("read-timeout", 5*time.Minute, "close connections idle for this long; also bounds each response write; 0 disables")
		maxLine = flag.Int("max-line-bytes", 1<<20, "largest accepted request line in bytes")
		maxConn = flag.Int64("max-conns", 256, "open client connections accepted at once; 0 = unlimited")
		probeIv = flag.Duration("degraded-probe-every", 2*time.Second, "while read-only, let one mutation through per interval to probe storage recovery")
		sealArg = flag.String("seal-through", "", "reject mutations with time at or below this value (historic-shard demotion; the SEAL command raises it at runtime); empty seals nothing")
		follow  = flag.String("follow", "", "run as a replica of the given primary histserve address: apply its WAL stream and reject client mutations until PROMOTE (requires -data-dir)")
		minAcks = flag.Int("repl-min-acks", 0, "followers that must acknowledge a mutation before the client sees OK (semi-synchronous replication); 0 = asynchronous")
		ackTO   = flag.Duration("repl-ack-timeout", 2*time.Second, "how long a mutation waits for -repl-min-acks follower acknowledgements before answering ERR (the write is then indeterminate, not failed)")
		fspec   = flag.String("fault-spec", "", "fault-injection spec for chaos testing (see internal/fault); empty disables")
		fseed   = flag.Int64("fault-seed", 1, "seed for probabilistic -fault-spec rules")
		mutexPF = flag.Int("mutex-profile-fraction", 0, "runtime mutex profile sampling fraction (1 samples every contention event, 0 disables); populates /debug/pprof/mutex and scales histcube_lock_contention_events_total")
		blockPR = flag.Int("block-profile-rate", 0, "runtime block profile sampling rate in ns (1 records every blocking event, 0 disables); populates /debug/pprof/block")
		rtEvery = flag.Duration("runtime-metrics-every", 10*time.Second, "sampling interval for histcube_runtime_* gauges (GC pause, goroutines, scheduler latency); 0 disables the sampler")
	)
	flag.Parse()

	// Profiling the single-mutex bottleneck needs these set before any
	// contention happens; both default off because sampling costs the
	// hot path a little.
	if *mutexPF > 0 {
		runtime.SetMutexProfileFraction(*mutexPF)
	}
	if *blockPR > 0 {
		runtime.SetBlockProfileRate(*blockPR)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := newServer(*dimsArg, *opArg, *ooo)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	srv.log = logger
	srv.slow = trace.NewSlowLog(*slowCap, *slowThr)
	if *rtEvery > 0 {
		rc := obs.NewRuntimeCollector(srv.reg)
		defer rc.Start(*rtEvery)()
	}
	srv.reqTimeout = *reqTO
	srv.readTimeout = *readTO
	srv.maxLineLen = *maxLine
	srv.maxConns = *maxConn
	srv.probeEvery = *probeIv
	if *sealArg != "" {
		t, err := strconv.ParseInt(*sealArg, 10, 64)
		if err != nil {
			logger.Error("bad -seal-through: want an integer time", "value", *sealArg, "err", err)
			os.Exit(1)
		}
		srv.sealThrough(t)
		logger.Info("sealed", "through", t)
	}
	if *fspec != "" {
		inj, err := fault.Parse(*fspec, *fseed)
		if err != nil {
			logger.Error("bad -fault-spec", "err", err)
			os.Exit(1)
		}
		srv.inj = inj
		inj.RegisterMetrics(srv.reg)
		logger.Warn("fault injection armed", "fault", inj.String())
	}
	if *load != "" && *dataDir != "" {
		logger.Error("-load and -data-dir are mutually exclusive (the data directory has its own checkpoints)")
		os.Exit(1)
	}
	// The debug/metrics listener comes up before recovery so operators
	// can watch a long WAL replay: /healthz (liveness) answers during
	// it, /readyz answers 503 until markReady below.
	if *metrics != "" {
		mln, err := srv.serveMetrics(*metrics)
		if err != nil {
			logger.Error("metrics listener failed", "addr", *metrics, "err", err)
			os.Exit(1)
		}
		logger.Info("metrics listening", "addr", mln.Addr().String())
	}
	if *load != "" {
		if err := srv.loadSnapshot(*load); err != nil {
			logger.Error("loading snapshot failed", "path", *load, "err", err)
			os.Exit(1)
		}
		logger.Info("resumed from snapshot", "path", *load)
	}
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			logger.Error("bad -fsync flag", "err", err)
			os.Exit(1)
		}
		res, err := srv.enableDurability(*dataDir, wal.Options{Sync: policy}, *ckptN)
		if err != nil {
			logger.Error("recovery failed", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		logger.Info("recovered",
			"dir", *dataDir, "fsync", policy.String(),
			"checkpoint_lsn", res.CheckpointLSN, "replayed", res.Replayed,
			"skipped_ops", res.SkippedOps, "torn_tail", res.TornTail,
			"checkpoints_skipped", res.CheckpointsSkipped)
	}
	srv.replMinAcks = *minAcks
	srv.replAckTimeout = *ackTO
	if *follow != "" {
		if *dataDir == "" {
			logger.Error("-follow requires -data-dir (the replica keeps its own durable log)")
			os.Exit(1)
		}
		srv.startFollower(*follow)
		logger.Info("follower mode", "primary", *follow)
	}
	srv.markReady()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// Graceful shutdown: the signal goroutine only closes the
	// listener; the accept loop then runs the actual shutdown on the
	// main goroutine and returns, so the process exits 0 strictly
	// after the final checkpoint and WAL fsync completed.
	var closing atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("shutdown signal received", "signal", s.String())
		closing.Store(true)
		_ = ln.Close() // unblocking Accept is the point; the error is uninteresting
	}()
	logger.Info("listening", "addr", ln.Addr().String(), "dims", srv.dims, "op", *opArg)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if closing.Load() {
				srv.shutdown()
				logger.Info("shutdown complete")
				return
			}
			logger.Error("accept failed", "err", err)
			os.Exit(1)
		}
		go srv.handle(conn)
	}
}

// enableDurability recovers the cube from dir and attaches the WAL:
// the recovered (or fresh) cube replaces the server's, its op sink
// appends to the log, and WAL metrics join the registry. The recovered
// cube's dimensions must match the -dims flag, which fixes the
// protocol's coordinate arity.
func (s *server) enableDurability(dir string, opts wal.Options, checkpointEvery int64) (wal.RecoverResult, error) {
	opts.Metrics = wal.NewMetrics(s.reg)
	if inj := s.inj; inj != nil {
		// fault.File is a structural copy of wal.SegmentFile, so the
		// interface values convert both ways without an adapter.
		opts.WrapSegment = func(f wal.SegmentFile) wal.SegmentFile {
			return inj.WrapFile("wal", f)
		}
	}
	s.walDir, s.walOpts = dir, opts
	s.mu.Lock()
	fresh := s.cube // still untouched; captured under mu so Recover's callback needs no lock
	s.checkpointEvery = checkpointEvery
	s.mu.Unlock()
	// Recovery runs without mu so the metrics listener stays live during
	// a long replay (its state callbacks take mu at scrape time).
	cube, log, res, err := s.recoverWAL(func() (*core.Cube, error) {
		return fresh, nil
	})
	if err != nil {
		return res, err
	}
	// Registered through an indirection, not on the log itself: a
	// follower installing a shipped snapshot swaps the log, and the
	// gauges must follow the swap.
	wal.RegisterStateMetricsFunc(s.reg, func() *wal.Log {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.wal
	})
	s.mu.Lock()
	s.attachRecoveredLocked(cube, log)
	s.mu.Unlock()
	return res, nil
}

// recoverWAL recovers a cube+log pair from the durable directory
// captured by enableDurability, enforcing the -dims contract. Shared
// by startup recovery and a follower's snapshot re-recovery.
func (s *server) recoverWAL(fallback func() (*core.Cube, error)) (*core.Cube, *wal.Log, wal.RecoverResult, error) {
	cube, log, res, err := wal.Recover(s.walDir, s.walOpts, fallback)
	if err != nil {
		return nil, nil, res, err
	}
	if shape := cube.Shape(); len(shape) != s.dims {
		_ = log.Close() // the dimension mismatch is the actionable error
		return nil, nil, res, fmt.Errorf("recovered cube has %d dimensions, -dims specifies %d", len(shape), s.dims)
	}
	return cube, log, res, nil
}

// attachRecoveredLocked wires a recovered cube+log into the server:
// instruments, the durable op sink, and the serving fields. The caller
// holds mu.
func (s *server) attachRecoveredLocked(cube *core.Cube, log *wal.Log) {
	cube.SetInstruments(s.ins)
	cube.SetOpSink(func(op core.Op) error {
		if _, err := log.Stage(op); err != nil {
			return fmt.Errorf("%w: %w", errWALAppend, err)
		}
		return nil
	})
	s.cube = cube
	s.wal = log
	s.shape = cube.Shape()
}

// shutdown writes a final checkpoint and closes the WAL and cube. It
// holds mu throughout, so in-flight requests finish first and later
// ones fail cleanly on the closed log.
func (s *server) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if lsn, err := s.wal.Checkpoint(s.cube.Save); err != nil {
			s.log.Error("final checkpoint failed", "err", err)
		} else {
			s.log.Info("final checkpoint written", "lsn", lsn)
		}
		if err := s.wal.Close(); err != nil {
			s.log.Error("closing WAL failed", "err", err)
		}
	}
	if err := s.cube.Close(); err != nil {
		s.log.Error("closing cube failed", "err", err)
	}
}

// maybeCheckpointLocked runs the every-N-records checkpoint policy;
// the caller holds mu. Checkpoint failures are logged, not fatal: the
// log keeps growing, so durability degrades to slower recovery rather
// than data loss — unless the failure is out-of-space, which means
// appends are about to fail too, so the server degrades to read-only
// proactively.
func (s *server) maybeCheckpointLocked() {
	if s.wal == nil {
		return
	}
	ran, err := s.wal.MaybeCheckpoint(s.checkpointEvery, s.cube.Save)
	if err != nil {
		s.log.Error("checkpoint failed", "err", err)
		if isStorageFailure(err) {
			s.setDegraded(err)
		}
	} else if ran {
		s.log.Info("checkpoint written", "lsn", s.wal.LastLSN())
	}
}

func newServer(dimsArg, opArg string, ooo bool) (*server, error) {
	var ds []core.Dim
	for i, part := range strings.Split(dimsArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q: %w", part, err)
		}
		ds = append(ds, core.Dim{Name: fmt.Sprintf("d%d", i), Size: n})
	}
	var op agg.Operator
	switch opArg {
	case "sum":
		op = agg.Sum
	case "count":
		op = agg.Count
	case "avg":
		op = agg.Average
	default:
		return nil, fmt.Errorf("unknown operator %q", opArg)
	}
	cfg := core.Config{Dims: ds, Operator: op, BufferOutOfOrder: ooo}
	cube, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &server{
		cube:       cube,
		cubeCfg:    cfg,
		dims:       len(ds),
		shape:      cube.Shape(),
		hub:        newReplHub(),
		reg:        obs.NewRegistry(),
		log:        slog.Default(),
		slow:       trace.NewSlowLog(32, 10*time.Millisecond),
		recent:     trace.NewRing(64),
		perf:       perf.NewSet(perfWindow, commands...),
		maxLineLen: 1 << 20,
		probeEvery: 2 * time.Second,
		meta:       perf.CollectMeta("histserve"),
	}
	s.sealedThrough.Store(math.MinInt64)
	s.perf.Register(s.reg)
	s.ins = core.NewInstruments(s.reg)
	cube.SetInstruments(s.ins)
	core.RegisterStatsMetrics(s.reg, func() core.Stats {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cube.Stats()
	})
	s.connections = s.reg.NewGauge("histserve_connections", "Open client connections.")
	s.connTotal = s.reg.NewCounter("histserve_connections_total", "Client connections accepted since start.")
	s.inflight = s.reg.NewGauge("histserve_inflight_requests", "Requests currently being dispatched.")
	s.requests = make(map[string]*obs.Counter, len(commands))
	s.errors = make(map[string]*obs.Counter, len(commands))
	for _, cmd := range commands {
		s.requests[cmd] = s.reg.NewCounter("histserve_requests_total",
			"Requests dispatched, by protocol command.", obs.Label{Key: "cmd", Value: cmd})
		s.errors[cmd] = s.reg.NewCounter("histserve_errors_total",
			"Requests answered with ERR, by protocol command.", obs.Label{Key: "cmd", Value: cmd})
	}
	s.readonlyRejects = s.reg.NewCounter("histserve_readonly_rejections_total",
		"Mutations rejected while the server was in degraded read-only mode.")
	s.panics = s.reg.NewCounter("histserve_panics_recovered_total",
		"Request panics recovered into ERR internal responses.")
	s.connRejects = s.reg.NewCounter("histserve_connections_rejected_total",
		"Connections rejected at the -max-conns cap.")
	s.degradedFlips = s.reg.NewCounter("histserve_degraded_transitions_total",
		"Transitions into degraded read-only mode.")
	s.commitWait = s.reg.NewHistogram("histserve_commit_wait_seconds",
		"Time a released batch of replies waited for its WAL commit (the group fsync).", nil)
	s.replAckWait = s.reg.NewHistogram("histserve_repl_ack_wait_seconds",
		"Time a released batch of replies waited for -repl-min-acks follower acknowledgements.", nil)
	s.reg.NewGaugeFunc("histcube_degraded",
		"1 while the server is in degraded read-only mode, 0 when healthy.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	return s, nil
}

// serveMetrics starts the Prometheus-style HTTP listener. It returns
// the bound listener so callers (and tests) learn the resolved port.
func (s *server) serveMetrics(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			s.log.Error("metrics render failed", "err", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness is distinct from liveness: during WAL replay the
	// process is alive but must not receive traffic yet, and in
	// degraded read-only mode a load balancer should route mutating
	// traffic elsewhere.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		if s.degraded.Load() {
			msg, _ := s.degradedMsg.Load().(string)
			http.Error(w, "degraded: "+msg, http.StatusServiceUnavailable)
			return
		}
		// A replica is ready once it has caught up to its primary's
		// frontier at least once; until then routing reads to it would
		// serve answers from before the bootstrap finished.
		if s.isReplica() {
			r := s.repl
			if !r.synced.Load() {
				http.Error(w, fmt.Sprintf("replica syncing: applied_lsn=%d replica_lag_lsn=%d",
					r.applied.Load(), r.lag()), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintf(w, "ok replica_lag_lsn=%d\n", r.lag())
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		writeEntriesJSON(w, s.log, map[string]any{
			"threshold_ns": s.slow.Threshold().Nanoseconds(),
			"capacity":     s.slow.Cap(),
			"observed":     s.slow.Observed(),
			"admitted":     s.slow.Admitted(),
		}, s.slow.Entries())
	})
	mux.HandleFunc("/debug/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		writeEntriesJSON(w, s.log, map[string]any{
			"capacity": s.recent.Cap(),
		}, s.recent.Entries())
	})
	// pprof normally registers on http.DefaultServeMux at import; this
	// listener uses its own mux, so the handlers are wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil && !strings.Contains(err.Error(), "use of closed") {
			s.log.Error("metrics server stopped", "err", err)
		}
	}()
	return ln, nil
}

// handle serves one connection. Each connection gets a process-unique
// id for log correlation and its requests/errors are accounted both
// globally (metrics) and per connection (the close log line). A
// connection past the -max-conns cap is rejected with a single ERR
// line before any per-connection state is set up, so an accept flood
// cannot exhaust the server.
func (s *server) handle(conn net.Conn) {
	if s.maxConns > 0 && s.liveConns.Add(1) > s.maxConns {
		s.liveConns.Add(-1)
		s.connRejects.Inc()
		s.log.Warn("connection rejected at -max-conns cap",
			"remote", conn.RemoteAddr().String(), "max", s.maxConns)
		s.setWriteDeadline(conn)
		fmt.Fprintln(conn, "ERR server busy: connection limit reached, retry later")
		_ = conn.Close() // the reject line is best-effort; nothing to salvage
		return
	}
	id := s.connSeq.Add(1)
	s.connections.Inc()
	s.connTotal.Inc()
	log := s.log.With("conn", id, "remote", conn.RemoteAddr().String())
	log.Info("connection opened")
	var reqs, errs int64
	defer func() {
		if err := conn.Close(); err != nil {
			log.Warn("closing connection failed", "err", err)
		}
		s.connections.Dec()
		if s.maxConns > 0 {
			s.liveConns.Add(-1)
		}
		log.Info("connection closed", "requests", reqs, "errors", errs)
	}()
	lr := lineserver.NewReader(conn, s.maxLineLen)
	w := bufio.NewWriter(conn)
	// Replies are not written as they are produced: they collect in
	// pending and leave together — one commit barrier (settle), one
	// flush — once no further complete request line is already
	// buffered. A client at depth 1 sees exactly one flush per request,
	// as before; a pipelining client pays one fsync and one flush per
	// window instead of one per line.
	var pending []reply
	release := func() error {
		if len(pending) == 0 {
			return nil
		}
		s.settle(pending)
		s.setWriteDeadline(conn)
		for i := range pending {
			p := &pending[i]
			if strings.HasPrefix(p.text, "ERR") {
				errs++
				if p.tid != 0 {
					log.Warn("request failed", "trace_id", p.tid.String(), "line", p.line, "resp", p.text)
				} else {
					log.Warn("request failed", "line", p.line, "resp", p.text)
				}
			}
			_, _ = w.WriteString(p.text) // a write error is sticky; Flush reports it
			_ = w.WriteByte('\n')
		}
		pending = pending[:0]
		return w.Flush()
	}
	var readErr error
	for {
		// A trailing partial line does not count as buffered input: it
		// must not withhold the replies before it.
		if !lr.HasLine() || len(pending) >= lineserver.MaxPendingReplies {
			if release() != nil {
				return
			}
			if s.readTimeout > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
		}
		raw, err := lr.Next()
		if err != nil {
			readErr = err
			break
		}
		line := strings.TrimSpace(string(raw))
		if line == "" {
			continue
		}
		reqs++
		// An optional leading TID= token carries a propagated trace
		// identifier (histproxy stamps one on every shard leg); the
		// request's root span adopts it so one trace_id correlates the
		// query across the fleet's logs and /debug feeds.
		tid, stripped := trace.CutRequestID(line)
		// REPLICATE hijacks the connection for WAL shipping: from here
		// on it speaks the replication protocol, not request/response.
		if strings.EqualFold(lineserver.Verb(stripped), "REPLICATE") {
			if release() != nil {
				return
			}
			s.serveReplication(conn, lr, w, stripped)
			return
		}
		r := s.execute(tid, stripped)
		pending = append(pending, r)
		if r.quit {
			_ = release() // the connection closes either way
			return
		}
	}
	if release() != nil {
		return
	}
	switch {
	case errors.Is(readErr, io.EOF): // clean close
	case errors.Is(readErr, bufio.ErrTooLong):
		// The reader cannot resynchronise past an overlong line; tell
		// the client why before closing.
		fmt.Fprintf(w, "ERR line too long (max %d bytes)\n", s.maxLineLen)
		s.setWriteDeadline(conn)
		_ = w.Flush() // best-effort farewell on a connection being torn down
		log.Warn("connection closed: line exceeds -max-line-bytes", "max", s.maxLineLen)
	default:
		var ne net.Error
		if errors.As(readErr, &ne) && ne.Timeout() {
			log.Info("connection closed: idle past -read-timeout", "timeout", s.readTimeout)
		} else {
			log.Warn("connection read failed", "err", readErr)
		}
	}
}

// setWriteDeadline bounds the next response write with the same
// duration that bounds reads: a client that stops reading must not pin
// a goroutine (and a -max-conns slot) forever on a blocked flush — the
// slow-loris variant of the idle-read problem. 0 disables, mirroring
// -read-timeout.
func (s *server) setWriteDeadline(conn net.Conn) {
	if s.readTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.readTimeout))
	}
}

// reply is one executed request whose response has not left the server
// yet. Mutations are staged in the WAL and applied when execute
// returns, but not yet durable: wal/lsn name the commit the reply must
// wait for (settle), and until then text is provisional.
type reply struct {
	text  string
	quit  bool
	line  string   // the request, for the failure log
	tid   trace.ID // propagated trace identifier, zero when absent
	cmd   string   // accounting label
	start time.Time
	wal   *wal.Log // log a successful mutation was staged in; nil otherwise
	lsn   uint64   // its position there; 0 otherwise
}

// execute runs one request line up to, but not including, its commit
// barrier, behind a panic barrier: a panic anywhere in request handling
// (including one injected at the serve.dispatch fault site) is logged
// with its stack and answered with ERR internal, and the connection
// keeps serving. Panics under mu are converted even earlier, inside
// mutate/queryLocked, so the deferred unlock runs and the mutex is
// never poisoned.
func (s *server) execute(tid trace.ID, line string) (r reply) {
	r = reply{line: line, tid: tid, cmd: "other", start: time.Now()}
	s.inflight.Inc()
	defer func() {
		s.inflight.Dec()
		if p := recover(); p != nil {
			s.panics.Inc()
			s.log.Error("panic recovered in dispatch",
				"line", line, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			r.text, r.quit = errResponse(fmt.Errorf("%w (%v)", errInternal, p)), false
		}
	}()
	r.text, r.quit = s.dispatch(&r)
	return r
}

// settle is the commit barrier in front of every reply: no OK for a
// mutation may leave the server before its record is durable and, with
// -repl-min-acks, acknowledged by that many followers. LSNs grow along
// a connection and both waits are cumulative, so one barrier on the
// batch's last mutation covers them all. When it fails, every mutation
// reply of the batch becomes the ERR it would have been inline — the
// writes are applied and possibly logged, but nothing was promised;
// other replies pass unchanged. Requests are accounted here, not when
// execute returns, so the recorded latency includes the wait the client
// sees.
func (s *server) settle(batch []reply) {
	for i := len(batch) - 1; i >= 0; i-- {
		if last := &batch[i]; last.lsn > 0 {
			if errResp := s.commitBarrier(last.wal, last.lsn); errResp != "" {
				for j := range batch[:i+1] {
					if batch[j].lsn > 0 {
						batch[j].text = errResp
					}
				}
			}
			break
		}
	}
	for i := range batch {
		s.finish(batch[i].cmd, batch[i].text, batch[i].start)
	}
}

// commitBarrier waits until the record at lsn is durable and
// semi-synchronously replicated, and returns "" or the ERR response
// that replaces the OK. A commit is what proves the disk works, so it —
// not a staged write — is the recovery probe that clears degraded mode,
// and a failed one enters it. The ack wait runs with no lock held:
// followers never contend with the mutation they are acknowledging.
func (s *server) commitBarrier(wl *wal.Log, lsn uint64) string {
	t := obs.NewTimer(s.commitWait)
	err := wl.Commit(lsn)
	t.ObserveDuration()
	if err != nil {
		err = fmt.Errorf("%w: %w", errWALAppend, err)
		s.setDegraded(err)
		return errResponse(err)
	}
	s.clearDegraded()
	if s.replMinAcks > 0 {
		t := obs.NewTimer(s.replAckWait)
		err := s.hub.WaitAcked(lsn, s.replMinAcks, s.replAckTimeout)
		t.ObserveDuration()
		if err != nil {
			return "ERR " + err.Error()
		}
	}
	return ""
}

// finish accounts one released request under the command's label:
// the request counter, the error counter for responses starting with
// ERR, and the command's sliding-window latency recorder.
func (s *server) finish(cmd, resp string, start time.Time) {
	key := cmd
	if _, known := s.requests[key]; !known {
		key = "other"
	}
	s.requests[key].Inc()
	if strings.HasPrefix(resp, "ERR") {
		s.errors[key].Inc()
	}
	s.perf.Record(key, time.Since(start))
}

// dispatch answers one request line (r.line). r.tid is the trace
// identifier propagated by the request's TID= token (zero when absent):
// traced commands adopt it for their root span, so the ID a proxy
// generated at the edge survives into this shard's spans, slow log and
// feeds. It fills in r.cmd and, for a successful mutation, r.wal/r.lsn.
func (s *server) dispatch(r *reply) (resp string, quit bool) {
	tid, line := r.tid, r.line
	fields := strings.Fields(line)
	if len(fields) > 0 {
		r.cmd = strings.ToUpper(fields[0])
	}
	cmd := r.cmd
	if len(fields) == 0 {
		return "ERR empty command", false
	}
	// The serve.dispatch fault site: chaos specs can delay, fail or
	// panic whole requests here to exercise the governance paths. The
	// panic kind propagates out of Check into safeDispatch's barrier.
	if out := s.inj.Check("serve.dispatch"); out.Err != nil || out.Delay > 0 {
		time.Sleep(out.Delay)
		if out.Err != nil {
			return "ERR " + out.Err.Error(), false
		}
	}
	switch cmd {
	case "QUIT":
		return "BYE", true
	case "VERSION":
		if len(fields) != 1 {
			return "ERR VERSION takes no arguments", false
		}
		return fmt.Sprintf("OK histserve rev=%s dirty=%t go=%s", s.meta.GitRev, s.meta.GitDirty, s.meta.GoVersion), false
	case "ROLE":
		if len(fields) != 1 {
			return "ERR ROLE takes no arguments", false
		}
		return s.roleLine(), false
	case "PROMOTE":
		// PROMOTE [<min_lsn>] — failover: turn this follower into a
		// primary. The optional fence refuses the promotion when this
		// replica has applied less than min_lsn (another replica holds
		// more acked history and must take over instead).
		if len(fields) > 2 {
			return "ERR PROMOTE takes at most one argument: PROMOTE [<min_lsn>]", false
		}
		var minLSN uint64
		if len(fields) == 2 {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return "ERR bad fence LSN: " + err.Error(), false
			}
			minLSN = v
		}
		return s.promote(minLSN), false
	case "SEAL":
		// SEAL <t> raises the seal boundary to t; bare SEAL seals the
		// whole timeline (full read-only demotion). Monotonic: sealing
		// below the current boundary is a no-op reporting the boundary,
		// because unsealing would re-open history other shards already
		// answer for.
		if len(fields) > 2 {
			return "ERR SEAL takes at most one argument: SEAL [<time>]", false
		}
		t := int64(math.MaxInt64)
		if len(fields) == 2 {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return "ERR bad seal time: " + err.Error(), false
			}
			t = v
		}
		return fmt.Sprintf("OK sealed_through=%d", s.sealThrough(t)), false
	case "STATS":
		st := s.statsSnapshot()
		degraded := 0
		if s.degraded.Load() {
			degraded = 1
		}
		// The trailing win_* fields digest the sliding latency windows
		// (internal/perf) for the two hot commands; times in
		// microseconds, throughput in ops/sec over the covered window.
		qry := s.perf.Snapshot("QRY")
		ins := s.perf.Snapshot("INS")
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
				r.applied.Load(), r.lag())
		}
		tail += " git_rev=" + s.meta.GitRev
		return fmt.Sprintf("slices=%d incomplete=%d pending=%d appended=%d "+
			"ooo=%d conversions=%d conversions_query=%d conversions_append=%d "+
			"cells_touched=%d forced_copies=%d copy_ahead=%d "+
			"demoted=%d cache_accesses=%d store_accesses=%d "+
			"degraded=%d readonly_rejections=%d "+
			"win_s=%.0f qry_ops=%.1f qry_p50_us=%.1f qry_p99_us=%.1f "+
			"ins_ops=%.1f ins_p50_us=%.1f ins_p99_us=%.1f",
			st.Slices, st.IncompleteSlices, st.PendingOutOfOrder, st.AppendedUpdates,
			st.OutOfOrderUpdates, st.ECubeConversions, st.ECubeConversionsQuery,
			st.ECubeConversionsAppend, st.ECubeCellsTouched,
			st.ForcedCopies, st.CopyAheadWork,
			st.TierDemotions, st.CacheAccesses, st.StoreAccesses,
			degraded, s.readonlyRejects.Value(),
			s.perf.Window().Seconds(),
			qry.OpsPerSec, micros(qry.P50), micros(qry.P99),
			ins.OpsPerSec, micros(ins.P50), micros(ins.P99)) + tail, false
	case "SAVE":
		if len(fields) != 2 {
			return "ERR SAVE needs a file path", false
		}
		if err := s.saveSnapshot(fields[1]); err != nil {
			return "ERR " + err.Error(), false
		}
		return "OK", false
	case "CHECKPOINT":
		if len(fields) != 1 {
			return "ERR CHECKPOINT takes no arguments", false
		}
		return s.checkpointNow(), false
	case "INS", "DEL":
		// INS <time> <c1>..<cd> <value>
		if len(fields) != 1+1+s.dims+1 {
			return fmt.Sprintf("ERR %s needs time, %d coordinates and a value", cmd, s.dims), false
		}
		nums, err := parseInts(fields[1 : 1+1+s.dims])
		if err != nil {
			return "ERR " + err.Error(), false
		}
		val, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return "ERR bad value: " + err.Error(), false
		}
		coords := make([]int, s.dims)
		for i := range coords {
			c, ok := dims.ToCoord(nums[1+i])
			if !ok {
				return fmt.Sprintf("ERR coordinate %d overflows", nums[1+i]), false
			}
			coords[i] = c
		}
		if resp := s.badCoord(coords); resp != "" {
			return resp, false
		}
		if resp := s.replicaReject(); resp != "" {
			return resp, false
		}
		if sealed := s.sealedThrough.Load(); nums[0] <= sealed {
			return fmt.Sprintf("ERR sealed: time %d is in the sealed range (sealed through %d; this history is read-only)",
				nums[0], sealed), false
		}
		if resp := s.readOnlyReject(); resp != "" {
			return resp, false
		}
		var root *trace.Span
		if cmd == "INS" {
			root = trace.New("histserve.insert")
		} else {
			root = trace.New("histserve.delete")
		}
		root.SetTraceID(tid)
		wl, lsn, err := s.mutate(cmd, root, nums[0], coords, val)
		root.End()
		s.observe(line, root)
		if err != nil {
			return errResponse(err), false
		}
		// Staged and applied, not yet durable: the OK is held back until
		// settle's commit barrier passes.
		r.wal, r.lsn = wl, lsn
		return "OK", false
	case "QRY":
		rng, errResp := s.parseQueryRange(fields[1:])
		if errResp != "" {
			return errResp, false
		}
		v, _, err := s.runQuery(tid, line, rng)
		if err != nil {
			return errResponse(err), false
		}
		return strconv.FormatFloat(v, 'g', -1, 64), false
	case "EXPLAIN":
		// EXPLAIN [JSON] QRY ... — the JSON variant answers on a single
		// line with the full structured span tree, which is what
		// histproxy consumes to graft this shard's spans under its own
		// proxy.leg (the text variant stays the human/debug format).
		args := fields[1:]
		jsonMode := len(args) > 0 && strings.ToUpper(args[0]) == "JSON"
		if jsonMode {
			args = args[1:]
		}
		if len(args) < 1 || strings.ToUpper(args[0]) != "QRY" {
			return "ERR EXPLAIN wraps a query: EXPLAIN [JSON] QRY <tlo> <thi> <lo...> <hi...>", false
		}
		rng, errResp := s.parseQueryRange(args[1:])
		if errResp != "" {
			return errResp, false
		}
		v, root, err := s.runQuery(tid, line, rng)
		if err != nil {
			return errResponse(err), false
		}
		if jsonMode {
			doc, err := json.Marshal(explainJSON{Result: v, Trace: root.JSON()})
			if err != nil {
				return "ERR rendering trace: " + err.Error(), false
			}
			return "OK " + string(doc), false
		}
		var b strings.Builder
		fmt.Fprintf(&b, "OK result=%s\n", strconv.FormatFloat(v, 'g', -1, 64))
		root.Render(&b)
		b.WriteString("totals")
		for c := trace.Counter(0); c < trace.NumCounters; c++ {
			fmt.Fprintf(&b, " %s=%d", c, root.Total(c))
		}
		b.WriteString("\nEND")
		return b.String(), false
	case "SLOWLOG":
		if len(fields) != 1 {
			return "ERR SLOWLOG takes no arguments", false
		}
		entries := s.slow.Entries()
		var b strings.Builder
		fmt.Fprintf(&b, "OK n=%d cap=%d threshold=%s observed=%d admitted=%d\n",
			len(entries), s.slow.Cap(), s.slow.Threshold(),
			s.slow.Observed(), s.slow.Admitted())
		for i, e := range entries {
			fmt.Fprintf(&b, "#%d dur=%s at=%s cells_touched=%d conversions=%d trace_id=%s line=%q\n",
				i+1, e.Duration, e.At.UTC().Format(time.RFC3339Nano),
				e.Span.Total(trace.CellsTouched), e.Span.Total(trace.Conversions),
				e.Span.TraceID(), e.Line)
		}
		b.WriteString("END")
		return b.String(), false
	default:
		return "ERR unknown command " + cmd, false
	}
}

// parseQueryRange parses the arguments of a QRY (after the verb):
// <tlo> <thi> <l1>..<ld> <u1>..<ud>. The second result is a non-empty
// ERR response on failure.
func (s *server) parseQueryRange(args []string) (core.Range, string) {
	if len(args) != 2+2*s.dims {
		return core.Range{}, fmt.Sprintf("ERR QRY needs tlo, thi and %d lo + %d hi coordinates", s.dims, s.dims)
	}
	nums, err := parseInts(args)
	if err != nil {
		return core.Range{}, "ERR " + err.Error()
	}
	lo := make([]int, s.dims)
	hi := make([]int, s.dims)
	for i := 0; i < s.dims; i++ {
		l, okl := dims.ToCoord(nums[2+i])
		h, okh := dims.ToCoord(nums[2+s.dims+i])
		if !okl || !okh {
			return core.Range{}, "ERR coordinate overflows"
		}
		lo[i] = l
		hi[i] = h
	}
	if resp := s.badCoord(lo); resp != "" {
		return core.Range{}, resp
	}
	if resp := s.badCoord(hi); resp != "" {
		return core.Range{}, resp
	}
	return core.Range{TimeLo: nums[0], TimeHi: nums[1], Lo: lo, Hi: hi}, ""
}

// badCoord validates parsed coordinates against the cube's domains at
// the protocol boundary, naming the offending dimension — out-of-range
// input is a client error and must never reach the storage layer.
func (s *server) badCoord(coords []int) string {
	for i, c := range coords {
		if i < len(s.shape) && (c < 0 || c >= s.shape[i]) {
			return fmt.Sprintf("ERR bad coordinate d%d: %d outside [0, %d)", i, c, s.shape[i])
		}
	}
	return ""
}

// runQuery executes one traced range query (shared by QRY and
// EXPLAIN) and retains the finished trace. A non-zero tid (the TID=
// token) becomes the root span's trace ID.
func (s *server) runQuery(tid trace.ID, line string, rng core.Range) (float64, *trace.Span, error) {
	root := trace.New("histserve.query")
	root.SetTraceID(tid)
	v, err := s.queryLocked(root, rng)
	root.End()
	s.observe(line, root)
	return v, root, err
}

// queryLocked runs the deadline-bounded query under mu (queries mutate
// shared state; see the locking contract) with the same panic
// containment as mutate.
func (s *server) queryLocked(root *trace.Span, rng core.Range) (v float64, err error) {
	ctx, cancel := s.requestCtx()
	defer cancel()
	ctx = trace.NewContext(ctx, root)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = s.recoveredPanic("QRY", r, root)
		}
	}()
	return s.cube.QueryCtx(ctx, rng)
}

// mutate runs one INS/DEL under mu: the op sink stages the record in
// the WAL (write, no fsync), then the cube applies it — log-then-apply,
// with the fsync left to the commit barrier so mu is never held across
// it. The deferred unlock plus the inner recover keep a panicking cube
// call from poisoning mu; the panic is logged with the request's span
// tree and surfaces as ERR internal. A storage failure (the WAL write
// exhausting its retries, or out-of-space) enters degraded mode. On
// success wl/lsn name the log and position the record was staged at
// (nil/0 without durability) — what the barrier commits and the
// semi-sync ack wait keys on.
func (s *server) mutate(cmd string, root *trace.Span, t int64, coords []int, val float64) (wl *wal.Log, lsn uint64, err error) {
	ctx, cancel := s.requestCtx()
	defer cancel()
	ctx = trace.NewContext(ctx, root)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = s.recoveredPanic(cmd, r, root)
		}
	}()
	// The WAL-bytes delta is taken under mu, where the op sink's
	// appends are serialised, so the attribution to this request is
	// exact.
	var walBefore int64
	if s.wal != nil {
		walBefore = s.wal.AppendedBytes()
	}
	if cmd == "INS" {
		err = s.cube.InsertCtx(ctx, t, coords, val)
	} else {
		err = s.cube.DeleteCtx(ctx, t, coords, val)
	}
	if s.wal != nil {
		root.Add(trace.WALBytes, s.wal.AppendedBytes()-walBefore)
	}
	switch {
	case err == nil:
		if s.wal != nil {
			wl, lsn = s.wal, s.wal.LastLSN()
		}
		s.maybeCheckpointLocked()
	case isStorageFailure(err):
		s.setDegraded(err)
	}
	return wl, lsn, err
}

// statsSnapshot reads the cube's counters under mu.
func (s *server) statsSnapshot() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cube.Stats()
}

// requestCtx derives the per-request context from -request-timeout.
func (s *server) requestCtx() (context.Context, context.CancelFunc) {
	if s.reqTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), s.reqTimeout)
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

// recoveredPanic converts a panic caught under mu into an error. It
// runs inside the deferred recover, before the deferred Unlock, so the
// mutex is released normally and later requests proceed.
func (s *server) recoveredPanic(cmd string, r any, root *trace.Span) error {
	s.panics.Inc()
	var tree strings.Builder
	root.Render(&tree)
	s.log.Error("panic recovered", "cmd", cmd, "panic", fmt.Sprint(r),
		"trace", tree.String(), "stack", string(debug.Stack()))
	return fmt.Errorf("%w (%s: %v)", errInternal, cmd, r)
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
func (s *server) setDegraded(cause error) {
	s.degradedMsg.Store(cause.Error())
	s.lastProbeNano.Store(time.Now().UnixNano())
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedFlips.Inc()
		s.log.Error("entering degraded read-only mode", "cause", cause)
	}
}

// clearDegraded leaves read-only mode after a successful commit proved
// the storage path works again. A no-op when healthy.
func (s *server) clearDegraded() {
	if s.degraded.CompareAndSwap(true, false) {
		s.log.Info("leaving degraded read-only mode: storage recovered")
	}
}

// readOnlyReject gates mutations while degraded. Every -degraded-probe-
// every interval one mutation passes through as a recovery probe: if
// its commit succeeds, the barrier clears the flag; if storage is still
// broken, the probe fails like the original mutation did and the server
// stays read-only.
func (s *server) readOnlyReject() string {
	if !s.degraded.Load() || s.probeDue() {
		return ""
	}
	s.readonlyRejects.Inc()
	msg, _ := s.degradedMsg.Load().(string)
	if msg == "" {
		msg = "storage failure"
	}
	return "ERR read-only: mutations disabled after " + msg + " (queries still served; probing for recovery)"
}

// probeDue claims the next recovery-probe slot: at most one mutation
// per interval may test whether storage healed. The CAS keeps the
// claim race-free without taking mu on the reject fast path.
func (s *server) probeDue() bool {
	every := s.probeEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	now := time.Now().UnixNano()
	last := s.lastProbeNano.Load()
	if now-last < every.Nanoseconds() {
		return false
	}
	return s.lastProbeNano.CompareAndSwap(last, now)
}

// observe retains one finished request trace: every request enters
// the recent ring; queries are additionally offered to the slow log.
// A query the slow log admits is also logged with its trace_id — the
// slog side of fleet-wide correlation (the proxy logs the same ID for
// the same request).
func (s *server) observe(line string, root *trace.Span) {
	at := time.Now()
	d := root.Duration()
	s.recent.Add(line, at, d, root)
	if root.Name() == "histserve.query" {
		if s.slow.Observe(line, at, d, root) {
			s.log.Warn("slow query", "trace_id", root.TraceID().String(), "dur", d, "line", line)
		}
	}
}

// markReady flips /readyz to 200: startup (snapshot load, WAL
// recovery) has finished and the server is about to accept traffic.
func (s *server) markReady() { s.ready.Store(true) }

// sealThrough raises the seal boundary to t (monotonically — a lower
// request leaves it unchanged) and returns the resulting boundary.
func (s *server) sealThrough(t int64) int64 {
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

// micros renders a duration as fractional microseconds for the STATS
// win_* fields.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// explainJSON is the single-line reply body of EXPLAIN JSON QRY — the
// structured variant histproxy consumes to graft shard span trees.
type explainJSON struct {
	Result float64         `json:"result"`
	Trace  *trace.SpanJSON `json:"trace"`
}

// writeEntriesJSON renders retained traces as a JSON document: the
// meta fields plus an "entries" array of {line, trace_id, at,
// duration_ns, trace} objects (trace.EntryJSON, shared with
// histproxy).
func writeEntriesJSON(w http.ResponseWriter, log *slog.Logger, meta map[string]any, entries []trace.Entry) {
	meta["entries"] = trace.EntriesJSON(entries)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(meta); err != nil {
		log.Error("trace JSON render failed", "err", err)
	}
}

// checkpointNow runs the CHECKPOINT command. It holds mu across the
// whole snapshot so the covered LSN is exact.
func (s *server) checkpointNow() string {
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

func (s *server) saveSnapshot(path string) error {
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

func (s *server) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Read-only: decode errors are the signal, the close result is not.
	defer func() { _ = f.Close() }()
	t := obs.NewTimer(s.ins.SnapshotLoad)
	cube, err := core.Load(f)
	if err != nil {
		return err
	}
	t.ObserveDuration()
	cube.SetInstruments(s.ins)
	s.mu.Lock()
	s.cube = cube
	s.shape = cube.Shape()
	s.mu.Unlock()
	return nil
}

func parseInts(fields []string) ([]int64, error) {
	out := make([]int64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out[i] = v
	}
	return out, nil
}
