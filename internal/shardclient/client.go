// Package shardclient is histproxy's per-shard connection layer: a
// small pool of line-protocol connections to one backend histserve,
// fronted by a consecutive-failure circuit breaker, and a ROLE health
// probe. A dial is tried once: a refused dial feeds the breaker, and a
// read batch sent through a Group fails over to the next member at once,
// so a backoff would only delay that.
//
// The breaker trips on transport failures only (dial errors, timeouts,
// broken conns) — an "ERR ..." reply is a healthy transport carrying an
// application error and must not open the breaker. While open, every
// request fails fast with ErrShardDown, however long ago it opened, so
// the proxy can assemble a PARTIAL answer instead of hanging on a dead
// shard; no request — a mutation least of all — is a health probe. Only
// Probe passes an open breaker, and one that gets an answer closes it:
// histproxy's member-state loop probes every member on every tick, which
// lets a SIGKILLed shard rejoin without a proxy restart.
package shardclient

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// ErrShardDown is returned (wrapped) when the breaker is open and the
// request was not attempted: the shard is presumed dead until a Probe
// gets an answer from it.
var ErrShardDown = errors.New("shard down (breaker open)")

// maxLineBytes caps one response line.
const maxLineBytes = 1 << 20

// Options configures a Client. The zero value selects the defaults
// noted per field.
type Options struct {
	// PoolSize is the number of idle connections kept; 0 selects 4.
	PoolSize int
	// OpTimeout bounds one request round-trip (write + full read);
	// 0 selects 5s. A ctx with an earlier deadline wins.
	OpTimeout time.Duration
	// BreakerThreshold is the consecutive transport-failure count that
	// opens the breaker; 0 selects 3.
	BreakerThreshold int

	// DialFault, when non-nil, is consulted before every fresh dial; a
	// non-nil error fails that dial attempt. It is the fault-injection
	// hook for connection-level chaos (internal/fault wires its Check
	// here without shardclient importing it back).
	DialFault func() error
	// WrapConn, when non-nil, wraps every freshly dialed connection —
	// the hook for injecting drop/stall faults at conn read/write sites.
	WrapConn func(net.Conn) net.Conn
}

// Client is a pooled line-protocol client for one shard. Safe for
// concurrent use.
type Client struct {
	addr string
	opts Options

	idle chan *wire

	mu     sync.Mutex
	fails  int  // guarded by mu; consecutive transport failures
	open   bool // guarded by mu; the breaker is open until a Probe succeeds
	closed bool // guarded by mu
}

// wire is one pooled connection.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
}

// New returns a client for addr. No connection is made until the
// first request or probe.
func New(addr string, opts Options) *Client {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = 5 * time.Second
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	return &Client{
		addr: addr,
		opts: opts,
		idle: make(chan *wire, opts.PoolSize),
	}
}

// Healthy reports whether the breaker is closed (requests flow
// normally).
func (c *Client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.open
}

// allow decides whether a request may proceed: not on a closed client,
// and not while the breaker is open unless it is a probe.
func (c *Client) allow(probe bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("shard %s: client closed", c.addr)
	}
	if c.open && !probe {
		return fmt.Errorf("shard %s: %w", c.addr, ErrShardDown)
	}
	return nil
}

// success records a completed round-trip; only a probe's closes an open
// breaker (a request admitted before it opened just resets the count).
func (c *Client) success(probe bool) {
	c.mu.Lock()
	c.fails = 0
	if probe {
		c.open = false
	}
	c.mu.Unlock()
}

// failure records a transport failure; at the threshold the breaker
// opens and the idle pool is drained — pooled conns to a dead shard are
// all suspect.
func (c *Client) failure() {
	c.mu.Lock()
	c.fails++
	trip := c.fails >= c.opts.BreakerThreshold
	c.open = c.open || trip
	c.mu.Unlock()
	if trip {
		c.drain()
	}
}

func (c *Client) drain() {
	for {
		select {
		case w := <-c.idle:
			w.conn.Close() //histlint:ignore errwrap draining suspect conns after a breaker trip; close errors carry no signal
		default:
			return
		}
	}
}

// get returns a pooled connection or dials a fresh one. The bool
// reports whether the conn was reused (a reused conn may have died
// idle; idempotent requests retry those on a fresh dial).
func (c *Client) get(ctx context.Context) (*wire, bool, error) {
	select {
	case w := <-c.idle:
		return w, true, nil
	default:
	}
	var conn net.Conn
	var err error
	if f := c.opts.DialFault; f != nil {
		err = f()
	}
	if err == nil {
		d := net.Dialer{Timeout: 2 * time.Second}
		conn, err = d.DialContext(ctx, "tcp", c.addr)
	}
	if err != nil {
		return nil, false, fmt.Errorf("dial shard %s: %w", c.addr, err)
	}
	if c.opts.WrapConn != nil {
		conn = c.opts.WrapConn(conn)
	}
	return &wire{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, false, nil
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full or the client closed).
func (c *Client) put(w *wire) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if !closed {
		select {
		case c.idle <- w:
			return
		default:
		}
	}
	w.conn.Close() //histlint:ignore errwrap surplus pooled conn; close errors carry no signal
}

// Do sends one request line and returns the single response line: a
// batch of one (see DoBatch).
func (c *Client) Do(ctx context.Context, line string, idempotent bool) (string, error) {
	lines, err := c.DoBatch(ctx, []string{line}, idempotent)
	if err != nil {
		return "", err
	}
	return lines[0], nil
}

// DoBatch is one round trip for a batch of lines: every line goes out in
// one write on one connection — so the shard sees them buffered
// together, in order, and answers them behind one commit — and one
// single-line reply per line is read back. A batch of reads
// (idempotent) is retried once on a fresh connection when a *reused*
// pooled conn fails — it may simply have died idle; a batch that
// carries a mutation never retries (the first attempt may have been
// applied), and when its connection breaks part-way, the replies read
// before the break are returned next to the error: they are the shard's
// own answers, and every line beyond them is indeterminate. Transport
// failures feed the breaker; ERR replies do not.
func (c *Client) DoBatch(ctx context.Context, lines []string, idempotent bool) ([]string, error) {
	return c.send(ctx, lines, idempotent).Wait()
}

// readGrace is how long a read whose limit has already passed — its
// caller was reading another shard meanwhile — still waits, so that
// replies already on the connection are read rather than declared late.
const readGrace = 5 * time.Millisecond

// Call is one batch round trip in flight: sent, its replies not yet
// read. Wait reads them on the caller's goroutine. A Call belongs to
// one goroutine at a time.
type Call struct {
	c          *Client
	ctx        context.Context
	lines      []string
	idempotent bool
	probe      bool // a Probe: passes an open breaker, and closes it by succeeding

	w        *wire     // the attempt's connection; nil once it failed or went back to the pool
	reused   bool      // w came from the pool
	retried  bool      // the one fresh-dial retry is spent
	deadline time.Time // the attempt's own: OpTimeout, or the ctx's deadline if earlier
	replies  []string
	partial  []byte // a reply line read in part before a hedge point passed
	err      error
	over     bool // the batch is complete or failed, and the breaker was fed

	// A read batch sent through a Group: the members still to try, in
	// read order, and when a duplicate goes to the next one.
	g       *Group
	rest    []*Client
	hedgeAt time.Time
}

// send checks the breaker and writes lines as one batch on a pooled
// connection, without reading.
func (c *Client) send(ctx context.Context, lines []string, idempotent bool) *Call {
	return (&Call{c: c, ctx: ctx, lines: lines, idempotent: idempotent, replies: make([]string, 0, len(lines))}).start()
}

// start checks the breaker and sends the batch.
func (call *Call) start() *Call {
	if call.err = call.c.allow(call.probe); call.err != nil {
		call.over = true // refused by the breaker, which stays as it is
		return call
	}
	call.attempt()
	return call
}

// attempt writes the batch on one connection, in a single write.
func (call *Call) attempt() {
	c := call.c
	call.replies, call.partial = call.replies[:0], call.partial[:0]
	call.w, call.reused, call.err = c.get(call.ctx)
	if call.err != nil {
		return
	}
	call.deadline = time.Now().Add(c.opts.OpTimeout)
	if d, ok := call.ctx.Deadline(); ok && d.Before(call.deadline) {
		call.deadline = d
	}
	if err := call.w.conn.SetWriteDeadline(call.deadline); err != nil {
		call.fail(fmt.Errorf("shard %s: set deadline: %w", c.addr, err))
		return
	}
	if _, err := io.WriteString(call.w.conn, strings.Join(call.lines, "\n")+"\n"); err != nil {
		call.fail(fmt.Errorf("shard %s: write: %w", c.addr, err))
	}
}

// fail discards the attempt's connection for err.
func (call *Call) fail(err error) {
	call.w.conn.Close() //histlint:ignore errwrap conn is being discarded for the error being recorded
	call.w, call.err = nil, err
}

// Wait reads the batch's replies on the caller's goroutine, bounded by
// the attempt's deadline, and returns them. On failure it returns the
// replies read before the break next to the error (see DoBatch). A read
// batch sent through a Group fails over and hedges as Group.Send says.
func (call *Call) Wait() ([]string, error) {
	if call.g != nil {
		return call.g.wait(call)
	}
	call.read(time.Time{})
	return call.replies, call.err
}

// read reads replies until the batch is complete or its attempt failed —
// then it feeds the breaker and reports true — or until hedgeAt passes
// with replies still missing: then it reports false, and a later read
// resumes where this one stopped. A zero hedgeAt reads to the attempt's
// deadline. A limit that has passed already leaves readGrace to read
// what arrived meanwhile.
func (call *Call) read(hedgeAt time.Time) bool {
	for !call.over {
		if call.w != nil {
			limit := call.deadline
			if !hedgeAt.IsZero() && hedgeAt.Before(limit) {
				limit = hedgeAt
			}
			if grace := time.Now().Add(readGrace); limit.Before(grace) {
				limit = grace
			}
			if err := call.w.conn.SetReadDeadline(limit); err != nil {
				call.fail(fmt.Errorf("shard %s: set deadline: %w", call.c.addr, err))
			}
			for call.err == nil && len(call.replies) < len(call.lines) {
				l, err := call.readLine()
				switch {
				case err == nil:
					call.replies = append(call.replies, l)
				case limit.Before(call.deadline) && errors.Is(err, os.ErrDeadlineExceeded):
					return false // the hedge point, not the deadline
				default:
					call.fail(fmt.Errorf("shard %s: read: %w", call.c.addr, err))
				}
			}
		}
		if call.err != nil && call.reused && call.idempotent && !call.retried && call.ctx.Err() == nil {
			// The pooled conn likely died idle; one fresh-dial retry.
			call.retried = true
			call.attempt()
			continue
		}
		call.over = true
		switch {
		case call.err == nil:
			call.c.put(call.w)
			call.c.success(call.probe)
		case errors.Is(call.ctx.Err(), context.Canceled):
			// The caller abandoned the request (a hedged duplicate won, or
			// the client went away): that says nothing about the shard's
			// health, so the breaker stays out of it. Deadline expiry still
			// counts below — a shard too slow to answer is a sick shard.
		default:
			call.c.failure()
		}
	}
	return true
}

// readLine reads one \n-terminated line, enforcing maxLineBytes. A line
// cut off by an error is kept in partial for the next call.
func (call *Call) readLine() (string, error) {
	for {
		chunk, err := call.w.r.ReadSlice('\n')
		if err == nil && len(call.partial) == 0 && len(chunk) <= maxLineBytes {
			return strings.TrimRight(string(chunk), "\r\n"), nil
		}
		call.partial = append(call.partial, chunk...)
		if len(call.partial) > maxLineBytes {
			return "", fmt.Errorf("response line exceeds %d bytes", maxLineBytes)
		}
		if err == nil {
			l := strings.TrimRight(string(call.partial), "\r\n")
			call.partial = call.partial[:0]
			return l, nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
	}
}

// Probe sends one ROLE and returns the reply. It passes an open breaker,
// and one that gets an answer closes it: the one rejoin path. Like a
// read, it is retried once on a fresh dial if a pooled conn died idle.
func (c *Client) Probe(ctx context.Context) (string, error) {
	call := &Call{c: c, ctx: ctx, lines: []string{"ROLE"}, idempotent: true, probe: true, replies: make([]string, 0, 1)}
	replies, err := call.start().Wait()
	if err != nil {
		return "", err
	}
	return replies[0], nil
}

// Close drains the pool and rejects future requests.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.drain()
}
