package lineserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"histcube/internal/fault"
	"histcube/internal/obs"
	"histcube/internal/trace"
)

// ErrInternal is the client-visible face of a recovered panic; the
// stack (and, where a binary recovers under its own lock, the span tree)
// stays in the server log.
var ErrInternal = errors.New("internal error (recovered panic; see server log)")

// Command is one row of a binary's command table.
type Command struct {
	// Verb is the protocol command, upper case. It is also the row's
	// cmd= metric label unless Other is set.
	Verb string
	// MinArgs and MaxArgs bound the fields after the verb (MaxArgs < 0:
	// no upper bound); a line outside them is answered "ERR <Usage>"
	// without reaching Handle.
	MinArgs, MaxArgs int
	Usage            string
	// Joins: the line may be served in one unit with the buffered lines
	// before it. EndsUnit: no line is served in one unit after it. See
	// the package doc for the unit rule these two columns drive.
	Joins    bool
	EndsUnit bool
	// Other accounts the verb under cmd="other": a verb the binary knows
	// only to refuse, which earns no label of its own.
	Other bool
	// Handle answers one line. It returns the reply, or leaves
	// Request.Pending set when the reply is only final after the table's
	// settle function ran.
	Handle func(*Request) string
	// Hijack, instead of Handle, takes the connection over for good,
	// with the loop's reader and writer, behind the panic barrier: the
	// loop returns when it returns. Such a row must neither join nor be
	// joined (Joins false, EndsUnit true), so every earlier reply has
	// left before the hand-over.
	Hijack func(net.Conn, *Reader, *bufio.Writer, *Request)

	label string
}

// Request is one request line on its way through a unit. A served
// Request is not copied: Fields points into it.
type Request struct {
	Line string   // trimmed, the TID= and PAIR tokens cut off
	TID  trace.ID // propagated trace identifier, zero when absent
	// Fields is Line split as strings.Fields splits it; Fields[0] is the
	// verb as sent. Up to inlineFields of them live in the Request.
	Fields []string
	Reply  string // what the client will read, without the newline
	// Pending is what a handler leaves for the table's settle function —
	// the work that is cheaper done once for the whole unit (histserve:
	// the parsed mutation or query, applied in order under one cube lock
	// and answered after the unit's commit; histproxy: the shard-bound
	// lines of a mutation or a query). While it is non-nil, Reply is
	// provisional.
	Pending any
	// Torn: the line was cut off by EOF, not ended by a newline
	// (Reader.Torn). Only a unit's first line can be torn.
	Torn bool
	// Quit closes the connection once the replies of the request's unit
	// have left. The built-in QUIT sets it; so may a handler or settle.
	Quit bool
	// Pair: the line carried PairPrefix.
	Pair bool

	cmd    *Command
	start  time.Time // the unit's first stamp (see Start)
	fields [inlineFields]string
}

// inlineFields is how many fields a Request holds without a heap slice:
// an EXPLAIN QRY over two dimensions has eight, an INS over six.
const inlineFields = 8

// Verb returns the request's command as its table row spells it.
func (rq *Request) Verb() string { return rq.cmd.Verb }

// Start is when the connection loop had read the request's unit: the
// first of the unit's two clock stamps (see the package doc). The
// request's latency, its root span and its -request-timeout deadline
// all run from it.
func (rq *Request) Start() time.Time { return rq.start }

// StampAfter reads the clock as one monotonic reading on top of start,
// which must carry one (time.Now's does): what a unit's code that needs
// the time again reads instead of time.Now.
func StampAfter(start time.Time) time.Time { return start.Add(time.Since(start)) }

// Metrics are the serving core's metric handles. Each binary registers
// them under its own literal names (histlint's metricname analyzer
// wants a name readable at its registration site) and hands them over.
// Errors and Latency take one handle per Labels() entry. Latency is the
// one latency instrument of the serving path, and its count is the
// request count: a cumulative bucket histogram, so any window is the
// difference of two scrapes and the buckets of several processes add up
// exactly.
type Metrics struct {
	Connections *obs.Gauge
	ConnTotal   *obs.Counter
	ConnRejects *obs.Counter
	Inflight    *obs.Gauge
	Panics      *obs.Counter
	Errors      map[string]*obs.Counter
	Latency     map[string]*obs.Histogram
}

// Server is the serving core both binaries embed: accept loop,
// connection loop, governance, panic barrier, request accounting, trace
// retention and the metrics/debug listener. The fields are set before
// the first connection is served and read-only from then on.
type Server struct {
	Metrics
	Log    *slog.Logger
	Reg    *obs.Registry   // rendered by /metrics
	Slow   *trace.SlowLog  // worst query traces at or above its threshold
	Recent *trace.Ring     // last finished request traces regardless of duration
	Inj    *fault.Injector // -fault-spec; nil is inert

	// Resource governance; the zero value disables each limit.
	ReqTimeout  time.Duration // per-request context deadline
	ReadTimeout time.Duration // cuts a connection idle or stalled this long (see Deadline); 0 disables
	MaxLineLen  int           // largest accepted request line in bytes
	MaxConns    int64         // open-connection cap

	// Ready answers /readyz: ok selects 200 or 503, msg is the body.
	Ready func() (ok bool, msg string)

	rows   map[string]*Command
	other  *Command
	labels []string
	settle func([]*Request) time.Time

	liveConns atomic.Int64
	connSeq   atomic.Int64
}

// Init installs the command table — the binary's rows, the built-in
// QUIT and SLOWLOG, and the catch-all row that answers unknown verbs —
// and the defaults a binary's flags or a test may then override: a
// fresh registry, the default logger, a 32-entry slow log at 10 ms, a
// 64-entry recent ring, 1 MiB lines. settle is called once per unit
// with the requests whose handlers left Pending set, and makes their
// replies final. If it read the clock after the last thing it waited
// for, it returns that stamp, which the serving core then takes for the
// unit's second stamp instead of reading the clock again; otherwise it
// returns the zero Time. The table yields the cmd= label set, so this is
// also where the (still empty) per-label metric maps are made.
//
// The built-in rows take the conservative side of the unit rule — QUIT
// rides with whatever precedes it (it costs nothing and closes the
// connection anyway), SLOWLOG and unknown verbs are units of one — so
// they are right for any table.
func (s *Server) Init(settle func([]*Request) time.Time, rows ...Command) {
	s.Reg, s.Log, s.MaxLineLen = obs.NewRegistry(), slog.Default(), 1<<20
	s.Slow, s.Recent = trace.NewSlowLog(32, 10*time.Millisecond), trace.NewRing(64)
	rows = append(rows,
		Command{Verb: "SLOWLOG", Usage: "SLOWLOG takes no arguments", EndsUnit: true, Handle: s.slowlog},
		// QUIT ignores its arguments: it must always close.
		Command{Verb: "QUIT", MaxArgs: -1, Joins: true, EndsUnit: true, Handle: func(rq *Request) string {
			rq.Quit = true
			return "BYE"
		}},
		// "other" catches unknown verbs so a misbehaving client cannot
		// grow the label set unbounded. Lower case: no verb resolves to it.
		Command{Verb: "other", MaxArgs: -1, EndsUnit: true, Handle: func(rq *Request) string {
			return "ERR unknown command " + strings.ToUpper(rq.Fields[0])
		}},
	)
	s.settle = settle
	s.rows = make(map[string]*Command, len(rows))
	s.labels = nil
	for i := range rows {
		c := &rows[i]
		c.label = c.Verb
		if c.Other {
			c.label = "other"
		} else {
			s.labels = append(s.labels, c.Verb)
		}
		s.rows[c.Verb] = c
	}
	s.other = s.rows["other"]
	s.Errors = make(map[string]*obs.Counter, len(s.labels))
	s.Latency = make(map[string]*obs.Histogram, len(s.labels))
}

// Labels returns the cmd= label set the table yields: one per verb
// that is accounted under its own name, plus "other".
func (s *Server) Labels() []string { return s.labels }

// resolve finds the row of a trimmed, TID-free line.
func (s *Server) resolve(line string) *Command {
	if c, ok := s.rows[strings.ToUpper(verb(line))]; ok {
		return c
	}
	return s.other
}

// request makes the last Request of slab from one raw line; ok is false
// for a blank line, which is skipped without a reply, and slab is then
// as it was. An optional leading TID= token carries a propagated trace
// identifier (histproxy stamps one on every shard leg); the request's
// root span adopts it so one trace_id correlates the query across the
// fleet's logs and /debug feeds.
func (s *Server) request(slab []Request, raw []byte) (_ []Request, ok bool) {
	line := strings.TrimSpace(string(raw))
	if line == "" {
		return slab, false
	}
	tid, stripped := trace.CutRequestID(line)
	stripped, pair := strings.CutPrefix(stripped, PairPrefix)
	return append(slab, Request{Line: stripped, TID: tid, Pair: pair, cmd: s.resolve(stripped)}), true
}

// PairPrefix is the optional token, after any TID=, by which a query asks
// for the (sum, count) pair its answer is finalised from rather than the
// answer: histproxy's AVG legs carry it, because averages merge only
// through that pair.
const PairPrefix = "PAIR "

// Run listens on addr and serves until SIGINT or SIGTERM, then returns
// nil with the listener closed and no new connection accepted, so the
// caller runs its own shutdown (final checkpoint, closing pools) on its
// main goroutine and exits strictly after it. attrs join the
// "listening" log line. Listen and accept failures are logged and
// returned.
func (s *Server) Run(addr string, attrs ...any) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Log.Error("listen failed", "addr", addr, "err", err)
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	// The signal goroutine only closes the listener; Serve then returns
	// on the accept error.
	var closing atomic.Bool
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		got := <-sig
		s.Log.Info("shutdown signal received", "signal", got.String())
		closing.Store(true)
		_ = ln.Close() // unblocking Accept is the point; the error is uninteresting
	}()
	s.Log.Info("listening", append([]any{"addr", ln.Addr().String()}, attrs...)...)
	err = s.Serve(ln)
	if closing.Load() {
		return nil
	}
	s.Log.Error("accept failed", "err", err)
	return err
}

// Serve accepts connections on ln, one goroutine each, until Accept
// fails (the listener was closed), and returns that error.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		go s.ServeConn(conn)
	}
}

// ServeConn serves one connection until it closes. Each connection gets a
// process-unique id for log correlation and its requests/errors are
// accounted both globally (metrics) and per connection (the close log
// line). A connection past the -max-conns cap is rejected with a single
// ERR line before any per-connection state is set up, so an accept
// flood cannot exhaust the server.
//
// The unit of work is what the package doc calls a unit: the line just
// read plus the complete lines already buffered behind it, for as long
// as the table lets the next one join. A trailing partial line is not
// buffered input: it neither joins nor delays the lines before it. The
// unit is stamped, served, stamped again, its replies written in
// request order and flushed once. The connection's one deadline covers
// reads and writes alike and is re-armed from the second stamp
// (Deadline).
func (s *Server) ServeConn(conn net.Conn) {
	dl := Deadline{conn: conn, timeout: s.ReadTimeout}
	if s.MaxConns > 0 && s.liveConns.Add(1) > s.MaxConns {
		s.liveConns.Add(-1)
		s.ConnRejects.Inc()
		s.Log.Warn("connection rejected at -max-conns cap",
			"remote", conn.RemoteAddr().String(), "max", s.MaxConns)
		dl.Arm(time.Now())
		fmt.Fprintln(conn, "ERR server busy: connection limit reached, retry later")
		_ = conn.Close() // the reject line is best-effort; nothing to salvage
		return
	}
	id := s.connSeq.Add(1)
	s.Connections.Inc()
	s.ConnTotal.Inc()
	log := s.Log.With("conn", id, "remote", conn.RemoteAddr().String())
	log.Info("connection opened")
	var reqs, errs int64
	defer func() {
		if err := conn.Close(); err != nil {
			log.Warn("closing connection failed", "err", err)
		}
		s.Connections.Dec()
		if s.MaxConns > 0 {
			s.liveConns.Add(-1)
		}
		log.Info("connection closed", "requests", reqs, "errors", errs)
	}()
	lr, w := NewReader(conn, s.MaxLineLen), bufio.NewWriter(conn)
	var (
		slab    []Request  // the unit's requests; unit and open point into it
		unit    []*Request // valid until the next iteration
		open    []*Request
		readErr error
	)
	dl.Arm(time.Now())
	for {
		raw, err := lr.Next()
		if err != nil {
			readErr = err
			break
		}
		var ok bool
		if slab, ok = s.request(slab[:0], raw); !ok {
			continue
		}
		slab[0].Torn = lr.Torn()
		for len(slab) < MaxPendingReplies && !slab[len(slab)-1].cmd.EndsUnit {
			raw, ok := lr.Peek()
			if !ok {
				break
			}
			n := len(slab)
			if slab, ok = s.request(slab, raw); ok && !slab[n].cmd.Joins {
				slab = slab[:n] // read again as the next unit's first line
				break
			}
			_, _ = lr.Next() // consumes exactly what Peek showed; cannot fail
		}
		start := time.Now()
		unit = unit[:0]
		for i := range slab {
			slab[i].start = start
			unit = append(unit, &slab[i])
		}
		reqs += int64(len(unit))
		if h := unit[0].cmd.Hijack; h != nil {
			rq := unit[0]
			rq.Fields = appendFields(rq.fields[:0], rq.Line)
			s.contain(unit, func([]*Request) { h(conn, lr, w, rq) })
			s.finish(rq, StampAfter(start))
			return
		}
		var end time.Time
		open, end = s.serveUnit(unit, open)
		dl.Arm(end)
		quit := false
		for _, rq := range unit {
			quit = quit || rq.Quit
			if strings.HasPrefix(rq.Reply, "ERR") {
				errs++
				if rq.TID != 0 {
					log.Warn("request failed", "trace_id", rq.TID.String(), "line", rq.Line, "resp", rq.Reply)
				} else {
					log.Warn("request failed", "line", rq.Line, "resp", rq.Reply)
				}
			}
			_, _ = w.WriteString(rq.Reply) // a write error is sticky; Flush reports it
			_ = w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil || quit {
			return
		}
	}
	switch {
	case errors.Is(readErr, io.EOF): // clean close
	case errors.Is(readErr, bufio.ErrTooLong):
		// The reader cannot resynchronise past an overlong line; tell
		// the client why before closing.
		fmt.Fprintf(w, "ERR line too long (max %d bytes)\n", s.MaxLineLen)
		dl.Arm(time.Now())
		_ = w.Flush() // best-effort farewell on a connection being torn down
		log.Warn("connection closed: line exceeds -max-line-bytes", "max", s.MaxLineLen)
	default:
		var ne net.Error
		if errors.As(readErr, &ne) && ne.Timeout() {
			log.Info("connection closed: idle past -read-timeout", "timeout", s.ReadTimeout)
		} else {
			log.Warn("connection read failed", "err", readErr)
		}
	}
}

// Deadline is a connection's -read-timeout, armed lazily. A client that
// stops sending must not hold a goroutine and a -max-conns slot forever
// on a blocked read, nor one that stops reading on a blocked flush (the
// slow-loris variant of the idle-read problem); yet setting a deadline
// updates a runtime timer, too dear for every line. So Arm, given a
// stamp the caller already read, moves the deadline to the stamp plus
// 9/8 of the timeout T only when the deadline was last moved more than
// T/8 before the stamp. Between two moves the deadline stays at least T
// ahead of every stamp Arm was given, so a connection is cut between T
// and 9/8·T after the last one. The connection loop's deadline covers
// reads and writes and is armed from each unit's second stamp: a client
// is cut between T and 9/8·T after its last unit was served, whether it
// sends nothing more (blank lines are no requests), stalls mid-line or
// stops reading the replies its flush blocks on. A hijacker whose
// connection another goroutine reads takes a WriteDeadline. A zero
// timeout disables it.
type Deadline struct {
	conn      net.Conn
	timeout   time.Duration
	writeOnly bool
	armed     time.Time // the stamp of the last move; zero before the first
}

// WriteDeadline is the -read-timeout Deadline of conn's writes alone,
// for a hijacker whose connection another goroutine reads.
func (s *Server) WriteDeadline(conn net.Conn) Deadline {
	return Deadline{conn: conn, timeout: s.ReadTimeout, writeOnly: true}
}

// Arm moves the deadline to now plus 9/8 of the timeout if it was last
// moved more than an eighth of the timeout before now (see Deadline).
func (d *Deadline) Arm(now time.Time) {
	if d.timeout <= 0 || !d.armed.IsZero() && now.Sub(d.armed) <= d.timeout/8 {
		return
	}
	d.armed = now
	at := now.Add(d.timeout + d.timeout/8)
	if d.writeOnly {
		_ = d.conn.SetWriteDeadline(at)
	} else {
		_ = d.conn.SetDeadline(at)
	}
}

// Do serves one line as a unit of one, with no connection: what a
// client at depth 1 would read, and whether the connection would close.
// It is the entry for drills and fuzzing that need no socket.
//
//histlint:ignore deadexport test seam: internal/histserve (safeDispatch), cmd/histserve (FuzzDispatchLine, the served-allocation guards) and lineserver's own server_test.go drive the command table without a socket
func (s *Server) Do(tid trace.ID, line string) (reply string, quit bool) {
	line = strings.TrimSpace(line)
	u := &struct {
		rq         Request
		unit, open [1]*Request
	}{rq: Request{Line: line, TID: tid, cmd: s.resolve(line), start: time.Now()}}
	u.unit[0] = &u.rq
	s.serveUnit(u.unit[:], u.open[:0])
	return u.rq.Reply, u.rq.Quit
}

// serveUnit makes every reply of a unit final: each line runs behind
// its own panic barrier, then the table's settle function makes the
// provisional replies final — all of them behind one barrier, because
// that work is shared — and every request is accounted. Accounting
// happens here, after settle and at the unit's second stamp (settle's
// own, if it read one), which it returns, so the recorded latency
// includes the wait the client sees. open is scratch space, returned
// for reuse.
func (s *Server) serveUnit(unit, open []*Request) ([]*Request, time.Time) {
	s.Inflight.Add(int64(len(unit)))
	for i := range unit {
		s.contain(unit[i:i+1], s.execute)
	}
	open = open[:0]
	for _, rq := range unit {
		if rq.Pending != nil {
			open = append(open, rq)
		}
	}
	var end time.Time
	if len(open) > 0 {
		s.contain(open, func(open []*Request) { end = s.settle(open) })
	}
	s.Inflight.Add(-int64(len(unit)))
	if end.IsZero() {
		end = StampAfter(unit[0].start)
	}
	for _, rq := range unit {
		s.finish(rq, end)
	}
	return open, end
}

// contain is the panic barrier: a panic anywhere in fn (including one
// injected at the serve.dispatch fault site) is logged with its stack,
// every request whose reply fn was to produce is answered ERR internal,
// and the connection keeps serving unless fn had set Quit. Code that
// panics under a lock of its own converts the panic earlier, where its
// deferred unlock runs.
func (s *Server) contain(reqs []*Request, fn func([]*Request)) {
	defer func() {
		if p := recover(); p != nil {
			s.Panics.Inc()
			s.Log.Error("panic recovered in dispatch", "line", reqs[0].Line, "lines", len(reqs),
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			for _, rq := range reqs {
				rq.Reply, rq.Pending = fmt.Sprintf("ERR %v (%v)", ErrInternal, p), nil
			}
		}
	}()
	fn(reqs)
}

// execute answers one line (a slice of one, the barrier's currency)
// from the command table.
func (s *Server) execute(one []*Request) {
	rq := one[0]
	rq.Fields = appendFields(rq.fields[:0], rq.Line)
	if len(rq.Fields) == 0 { // a TID= token and nothing else
		rq.Reply = "ERR empty command"
		return
	}
	// The serve.dispatch fault site: chaos specs can delay, fail or
	// panic whole requests here to exercise the governance paths. The
	// panic kind propagates out of Check into the barrier.
	if out := s.Inj.Check("serve.dispatch"); out.Err != nil || out.Delay > 0 {
		time.Sleep(out.Delay)
		if out.Err != nil {
			rq.Reply = "ERR " + out.Err.Error()
			return
		}
	}
	c := rq.cmd
	switch n := len(rq.Fields) - 1; {
	case n < c.MinArgs || (c.MaxArgs >= 0 && n > c.MaxArgs):
		rq.Reply = "ERR " + c.Usage
	case c.Handle == nil: // a Hijack row reached through Do
		rq.Reply = "ERR " + c.Verb + " needs a connection to take over"
	default:
		rq.Reply = c.Handle(rq)
	}
}

// finish accounts one answered request under its row's label: the
// error counter for replies starting with ERR, and the latency
// histogram, from the unit's first stamp to end, its second: the reply
// being final. A hijacked request is final when its hijacker returns.
func (s *Server) finish(rq *Request, end time.Time) {
	if strings.HasPrefix(rq.Reply, "ERR") {
		s.Errors[rq.cmd.label].Inc()
	}
	s.Latency[rq.cmd.label].Observe(end.Sub(rq.start).Seconds())
}

// RequestCtx is a request's context: the deadline -request-timeout
// sets and the request's root span, for trace.FromContext. Its caller
// holds it — in the request's pending state, or for the unit — so it
// costs no allocation of its own, arms it with Server.StartRequest and
// ends it with Cancel. It is polled, not timed: Err reads the clock and,
// once the deadline has passed, cancels the context. A runtime timer
// exists only when something waits on Done (histproxy's hedge race and
// fresh shard dials do; nothing on histserve does). A RequestCtx is
// safe for concurrent use; it must not be copied once armed.
type RequestCtx struct {
	deadline time.Time   // zero: no -request-timeout
	span     *trace.Span // the request's root span; fixed by StartRequest
	mu       sync.Mutex
	timed    *timedCtx // guarded by mu; made by the first Done
	err      ctxErr    // guarded by mu; what Err answers while timed is nil
}

// timedCtx is what RequestCtx.Done makes: a context with a timer, and
// the cancel that stops it. It lives apart, so a request whose Done
// nobody asks for carries two words less.
type timedCtx struct {
	context.Context
	stop context.CancelFunc
}

// ctxErr is a RequestCtx's error while no Done was asked for: none,
// Canceled or DeadlineExceeded, an index into ctxErrs.
type ctxErr uint8

const (
	ctxLive ctxErr = iota
	ctxCanceled
	ctxExpired
)

var ctxErrs = [...]error{ctxLive: nil, ctxCanceled: context.Canceled, ctxExpired: context.DeadlineExceeded}

// StartRequest arms c for one request and returns it as a context. Its
// deadline runs from start, the request's first stamp (Request.Start),
// so arming reads no clock; root may be nil, for work that serves no one
// request.
func (s *Server) StartRequest(c *RequestCtx, root *trace.Span, start time.Time) context.Context {
	c.span = root
	if s.ReqTimeout > 0 {
		c.deadline = start.Add(s.ReqTimeout)
	}
	return c
}

// Deadline reports the -request-timeout deadline, if there is one.
func (c *RequestCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

// Err is nil while the request may go on, then Canceled or
// DeadlineExceeded, whichever came first.
func (c *RequestCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timed != nil {
		return c.timed.Err()
	}
	if c.err == ctxLive && !c.deadline.IsZero() && time.Until(c.deadline) <= 0 { // deadline is monotonic: no wall-clock read
		c.err = ctxExpired
	}
	return ctxErrs[c.err]
}

// Done hands the deadline to a context from context.WithDeadline (or,
// without one, context.WithCancel) the first time it is asked for; that
// context's timer and channel then govern Err and Done both, and its
// Value lets a child context hang off c directly.
func (c *RequestCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timed == nil {
		// A deadline already past makes no timer; an earlier cancel is
		// replayed on the new context so Err keeps its answer.
		c.timed = new(timedCtx)
		if c.deadline.IsZero() {
			c.timed.Context, c.timed.stop = context.WithCancel(context.Background())
		} else {
			c.timed.Context, c.timed.stop = context.WithDeadline(context.Background(), c.deadline)
		}
		if c.err == ctxCanceled {
			c.timed.stop()
		}
	}
	return c.timed.Done()
}

// Value answers trace.ContextKey with the root span.
func (c *RequestCtx) Value(key any) any {
	if _, ok := key.(trace.ContextKey); ok && c.span != nil {
		return c.span
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timed == nil {
		return nil
	}
	return c.timed.Value(key)
}

// Cancel ends the request's context, as a context.CancelFunc would; a
// second call is a no-op.
func (c *RequestCtx) Cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == ctxLive {
		c.err = ctxCanceled
	}
	if c.timed != nil {
		c.timed.stop()
	}
}

// Observe retains one finished request trace, stamped with the time
// root ended: queries (root spans named "<binary>.query") are offered
// to the slow log, and every request enters the recent ring. A query
// the slow log admits is also logged with its trace_id — the slog side
// of fleet-wide correlation (proxy and shard log the same ID for the
// same request). The ring recycles the tree, so the caller must be done
// with root, and the ring comes last: the slow log clones what it keeps.
func (s *Server) Observe(line string, root *trace.Span) {
	d := root.Duration()
	at := root.Start().Add(d)
	if strings.HasSuffix(root.Name(), ".query") {
		if s.Slow.Observe(line, at, d, root) {
			s.Log.Warn("slow query", "trace_id", root.TraceID().String(), "dur", d, "line", line)
		}
	}
	s.Recent.Add(line, at, d, root)
}

// slowlog answers the SLOWLOG command.
func (s *Server) slowlog(*Request) string {
	entries := s.Slow.Entries()
	var b strings.Builder
	fmt.Fprintf(&b, "OK n=%d cap=%d threshold=%s observed=%d admitted=%d\n",
		len(entries), s.Slow.Cap(), s.Slow.Threshold(),
		s.Slow.Observed(), s.Slow.Admitted())
	for i, e := range entries {
		fmt.Fprintf(&b, "#%d dur=%s at=%s cells_touched=%d conversions=%d trace_id=%s line=%q\n",
			i+1, e.Duration, e.At.UTC().Format(time.RFC3339Nano),
			e.Span.Total(trace.CellsTouched), e.Span.Total(trace.Conversions),
			e.Span.TraceID(), e.Line)
	}
	b.WriteString("END")
	return b.String()
}
