// Replication: WAL shipping between a primary histserve and its
// followers, and the follower half that applies the shipped stream.
//
// The protocol rides the same line-oriented TCP port as the client
// protocol. A follower opens a connection and sends
//
//	REPLICATE FROM <lsn>
//
// after which the connection is dedicated to replication. The primary
// answers with one of
//
//	OK from=<lsn> last=<lsn>          stream starts at from; last is the
//	                                  primary's durable end, which the
//	                                  follower must reach to be synced
//	SNAP lsn=<lsn> size=<bytes>       follower is behind the retention
//	                                  horizon; the primary's newest
//	                                  checkpoint file, covering <lsn>,
//	                                  follows as base64 lines,
//	                                  terminated by ENDSNAP, then the
//	                                  stream restarts at <lsn>+1
//	ERR <msg>                         refused (diverged follower, no WAL)
//
// and then ships records and keepalives:
//
//	REC <lsn> <kind> <time> <c1> ... <cd> <value>
//	PING <lsn>                        idle keepalive carrying the frontier
//
// Records travel in batches, a lone record being a batch of one: the
// primary writes every record that is already shippable and flushes
// once when its stream would block (a group commit publishes its whole
// batch at once). The follower serves the link with the serving core
// (internal/lineserver), so every shipped line gets one reply and the
// lines that arrived together are one unit, committed once; each REC is
// answered with the cumulative
//
//	ACK <lsn>                         everything up to <lsn> is durable
//	                                  and applied here
//
// and PING with OK, which the primary skips. OK is answered with the ACK
// of what the follower held before it asked (it synced its log first):
// a follower bootstrapped from a SNAP holds records no REC will ship.
// Only OK's last= and PING report the primary's end; a SNAP's or a REC's
// LSN is short of it while the follower catches up.
// ERR, a REC that must not be applied, and an installed SNAP end the
// session.
//
// The follower decodes a SNAP as it arrives and rebases its own log onto
// it in place (wal.Log.Rebase). Neither end holds the whole snapshot in
// one buffer, and the primary ships it without the cube's lock.
//
// The primary aggregates the ACKs in a replHub so mutations can wait
// for -repl-min-acks followers before acknowledging the client
// (semi-synchronous replication — the window in which an acked write
// exists only on the primary is closed).
//
// Only durable records are shipped (wal.Stream's frontier), and a
// follower ACKs a record only after durably appending it to its own
// log and applying it — so promotion (PROMOTE [<min_lsn>]) turns a follower into a
// primary whose log is a strict prefix of the failed primary's acked
// history, and the fence argument lets the proxy refuse to promote a
// replica that is missing acked writes.
package histserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/lineserver"
	"histcube/internal/obs"
	"histcube/internal/wal"
)

// snapChunk is the raw byte count per base64 snapshot line, the link's
// longest; the follower's line limit is twice it.
const snapChunk = 48 * 1024

// replPingEvery is the primary's idle keepalive cadence; it also
// bounds how stale a follower's view of the frontier can be.
const replPingEvery = time.Second

// replReadTimeout is how long a follower waits for the next line
// before declaring the link dead; several missed keepalives.
const replReadTimeout = 10 * time.Second

// replRedialDelay paces follower reconnection attempts.
const replRedialDelay = 200 * time.Millisecond

// replState is the follower side of replication: the link to the
// primary and the positions the rest of the server reports (STATS,
// ROLE, /readyz). It exists only when the server started with -follow.
type replState struct {
	primaryAddr string
	log         *wal.Log // the follower's own, which only the link writes

	primaryLSN atomic.Uint64 // newest frontier LSN the primary reported
	synced     atomic.Bool   // caught up to the primary's frontier at least once
	promoted   atomic.Bool   // PROMOTE turned this follower into a primary

	stop     chan struct{} // closed by promotion; ends the follow loop
	stopOnce sync.Once

	// ended is why the running session ended, for followOnce to report.
	// Only the follow goroutine, which serves the link, touches it.
	ended error
}

// applied is the last LSN durably applied locally: the log's commit
// frontier, since only the link writes it and applies before committing.
func (r *replState) applied() uint64 { return r.log.ShippedLSN() }

// lag returns how many acked records the primary holds that this
// follower has not applied yet.
func (r *replState) lag() uint64 {
	applied, frontier := r.applied(), r.primaryLSN.Load()
	if frontier <= applied {
		return 0
	}
	return frontier - applied
}

// noteFrontier folds a frontier report into the replica's view and
// marks it synced once it has caught up — the one-time readiness
// transition /readyz gates on. The session's OK reports the primary's
// end before any REC is settled, so a REC's LSN never marks a follower
// synced short of that end.
func (r *replState) noteFrontier(lsn uint64) {
	for {
		cur := r.primaryLSN.Load()
		if lsn <= cur || r.primaryLSN.CompareAndSwap(cur, lsn) {
			break
		}
	}
	if r.applied() >= r.primaryLSN.Load() {
		r.synced.Store(true)
	}
}

// isReplica reports whether the server is (still) a follower: started
// with -follow and not yet promoted.
func (s *Server) isReplica() bool {
	r := s.repl
	return r != nil && !r.promoted.Load()
}

// roleLine answers the ROLE command: which side of replication this
// server is on, how far its log extends, on a primary its
// -repl-min-acks, and the cube's operator — what a proxy needs to pick
// the most caught-up replica during failover, to decide whether
// followers may serve reads, and to know how its legs merge.
func (s *Server) roleLine() string {
	if s.isReplica() {
		r := s.repl
		synced := 0
		if r.synced.Load() {
			synced = 1
		}
		return fmt.Sprintf("OK role=replica applied_lsn=%d lag_lsn=%d primary=%s synced=%d op=%s",
			r.applied(), r.lag(), r.primaryAddr, synced, s.opName())
	}
	return fmt.Sprintf("OK role=primary last_lsn=%d followers=%d min_acks=%d op=%s",
		s.walLastLSN(), s.hub.Followers(), s.cfg.ReplMinAcks, s.opName())
}

// opName is the served cube's operator as -op spells it.
func (s *Server) opName() string {
	return strings.ToLower(agg.Operator(s.operator.Load()).String())
}

// promote answers PROMOTE [<min_lsn>]: flip this follower into a
// primary. minLSN is the fence — the highest applied LSN the caller
// observed anywhere in the replica set; a follower that has applied
// less is missing acked writes and must refuse, so a lagging replica
// can never be promoted over a more caught-up one. Promoting a server
// that already is a primary is an idempotent OK (a retrying proxy must
// not flap). The log a promoted follower inherited counts as committed
// on its hub: it served that log as committed already.
func (s *Server) promote(minLSN uint64) string {
	if r := s.repl; s.isReplica() {
		if applied := r.applied(); applied < minLSN {
			return fmt.Sprintf("ERR promotion fenced: applied LSN %d is behind the required fence %d (another replica holds more acked history)",
				applied, minLSN)
		}
		if r.promoted.CompareAndSwap(false, true) {
			s.hub.cover(s.walLastLSN())
			r.stopOnce.Do(func() { close(r.stop) })
			s.Log.Warn("promoted to primary", "applied_lsn", r.applied(), "fence", minLSN, "old_primary", r.primaryAddr)
		}
	}
	return s.roleLine()
}

// walLastLSN reads the log's end (0 without durability).
func (s *Server) walLastLSN() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.LastLSN()
}

// ---------------------------------------------------------------------------
// Primary side: serving REPLICATE connections and aggregating ACKs.

// replHub tracks how far each connected follower has acknowledged the
// log and lets a unit wait until a quorum of them (-repl-min-acks)
// holds what it wrote or read. The quorum frontier only rises: a record
// that reached the quorum stays committed when a follower leaves.
type replHub struct {
	mu      sync.Mutex
	nextID  int64                    // guarded by mu
	acked   map[int64]uint64         // follower conn id -> highest acked LSN; guarded by mu
	quorum  uint64                   // highest LSN the quorum acknowledged; guarded by mu
	waiters map[chan struct{}]uint64 // a parked unit's channel -> the LSN it waits for; guarded by mu
}

func newReplHub() *replHub {
	return &replHub{acked: make(map[int64]uint64), waiters: make(map[chan struct{}]uint64)}
}

// register admits one follower connection and returns its id.
func (h *replHub) register() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	id := h.nextID
	h.acked[id] = 0
	return id
}

// unregister drops a departed follower. Waiters counting on it will
// time out rather than hang.
func (h *replHub) unregister(id int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.acked, id)
}

// Followers returns the number of connected follower links.
func (h *replHub) Followers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.acked)
}

// ack records a follower acknowledgement and raises the frontier to the
// newest LSN min followers hold.
func (h *replHub) ack(id int64, lsn uint64, min int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur, ok := h.acked[id]
	if !ok || lsn <= cur {
		return
	}
	h.acked[id] = lsn
	for _, a := range h.acked {
		if h.ackCountLocked(a) >= min {
			h.raiseLocked(a)
		}
	}
}

// cover counts every record through lsn as committed (see promote).
func (h *replHub) cover(lsn uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.raiseLocked(lsn)
}

// raiseLocked moves the frontier up to lsn (never down) and wakes every
// waiter it covers. The caller holds mu.
func (h *replHub) raiseLocked(lsn uint64) {
	if lsn <= h.quorum {
		return
	}
	h.quorum = lsn
	for ch, l := range h.waiters {
		if l <= lsn {
			close(ch)
			delete(h.waiters, ch)
		}
	}
}

// ackCountLocked counts followers whose acknowledged position covers
// lsn. The caller holds mu.
func (h *replHub) ackCountLocked(lsn uint64) int {
	n := 0
	for _, a := range h.acked {
		if a >= lsn {
			n++
		}
	}
	return n
}

// WaitAcked blocks until the quorum frontier reaches lsn (at once for
// lsn 0, an empty log) or the timeout passes, and files a wait it had to
// make in waited. The returned error names the shortfall. The record is
// already durable and applied locally, so it is not failed but
// uncommitted: a write of it is indeterminate, and a query that counted
// it answers the same error rather than a value a failover could lose.
func (h *replHub) WaitAcked(lsn uint64, min int, timeout time.Duration, waited *obs.Histogram) error {
	if min <= 0 {
		return nil
	}
	var ch chan struct{}
	h.mu.Lock()
	if lsn > h.quorum {
		ch = make(chan struct{})
		h.waiters[ch] = lsn
	}
	h.mu.Unlock()
	if ch == nil {
		return nil
	}
	defer obs.NewTimer(waited).ObserveDuration()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.waiters, ch)
	if lsn <= h.quorum {
		return nil // satisfied in the race between timer and lock
	}
	return fmt.Errorf("replication timeout: record %d is durable on the primary but acknowledged by %d of %d required replicas within %s, so whether it commits is indeterminate",
		lsn, h.ackCountLocked(lsn), min, timeout)
}

// serveReplication is REPLICATE's Hijack handler: it takes one client
// connection over for WAL shipping after the connection loop saw its
// REPLICATE line (the replies before it have left, and the line is
// already counted as a request). lr is handed to the ACK reader
// goroutine.
func (s *Server) serveReplication(conn net.Conn, lr *lineserver.Reader, w *bufio.Writer, rq *lineserver.Request) {
	// The ACK reader below reads conn: the stream's deadline is its
	// writes' alone.
	wd := s.WriteDeadline(conn)
	fail := func(msg string) {
		s.Errors["REPLICATE"].Inc()
		fmt.Fprintln(w, "ERR "+msg)
		wd.Arm(time.Now())
		_ = w.Flush() // refusal is best-effort; the connection is done either way
	}
	fields := rq.Fields
	if len(fields) != 3 || !strings.EqualFold(fields[1], "FROM") {
		fail("usage: REPLICATE FROM <lsn>")
		return
	}
	from, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		fail("bad LSN: " + err.Error())
		return
	}
	wl := s.wal
	if wl == nil {
		fail("no data directory configured (start with -data-dir)")
		return
	}

	id := s.hub.register()
	defer s.hub.unregister(id)
	log := s.Log.With("follower", conn.RemoteAddr().String(), "repl_id", id)

	// The follower's ACKs arrive on the same connection; a dedicated
	// reader feeds them to the hub and cancels the stream when the
	// follower goes away. Replication links carry keepalives instead of
	// client deadlines, so the idle read timeout comes off.
	_ = conn.SetReadDeadline(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer cancel()
		for {
			ack, err := lr.Next()
			if err != nil {
				return
			}
			f := strings.Fields(string(ack))
			if len(f) == 2 && strings.EqualFold(f[0], "ACK") {
				if lsn, err := strconv.ParseUint(f[1], 10, 64); err == nil {
					s.hub.ack(id, lsn, s.cfg.ReplMinAcks)
				}
			}
		}
	}()

	// Position the stream, bootstrapping the follower from the newest
	// checkpoint when it fell behind the retention horizon. Should
	// checkpoints prune the tail after the one shipped, the retry ships a
	// newer one.
	var sub *wal.Stream
	for {
		sub, err = wl.SubscribeFrom(from)
		if err == nil {
			break
		}
		if errors.Is(err, wal.ErrTruncated) {
			var snapLSN uint64
			if snapLSN, err = s.sendSnapshot(&wd, w, from); err == nil {
				log.Info("snapshot shipped", "lsn", snapLSN)
				from = snapLSN + 1
				continue
			}
		}
		fail(err.Error())
		log.Warn("replication refused", "from", from, "err", err)
		return
	}
	fmt.Fprintf(w, "OK from=%d last=%d\n", from, wl.ShippedLSN())
	wd.Arm(time.Now())
	if err := w.Flush(); err != nil {
		return
	}
	log.Info("replication stream started", "from", from)

	// Every record that is already shippable is written before anything
	// is flushed — a group commit publishes its whole batch at once, and
	// what arrives together the follower commits and ACKs together. The
	// buffer goes out when the stream would block, and only then is a
	// keepalive timeout built. A full buffer spills to the socket on its
	// own, so the write deadline is armed before each flush, after each
	// wait for the stream and every MaxPendingReplies records between.
	shipped := int64(0)
	defer func() { log.Info("replication stream ended", "shipped", shipped) }()
	for {
		rec, ok, err := sub.TryNext()
		if err == nil && !ok {
			wd.Arm(time.Now())
			if err := w.Flush(); err != nil {
				return
			}
			nctx, ncancel := context.WithTimeout(ctx, replPingEvery)
			rec, err = sub.Next(nctx)
			ncancel()
			wd.Arm(time.Now())
		} else if shipped%lineserver.MaxPendingReplies == 0 {
			wd.Arm(time.Now())
		}
		switch {
		case err == nil:
			_, _ = w.Write(appendRec(w.AvailableBuffer(), rec)) // a write error is sticky; Flush reports it
			shipped++
		case errors.Is(err, context.DeadlineExceeded):
			// Idle: keepalive carrying the frontier, so the follower can
			// tell "caught up" from "link dead".
			fmt.Fprintf(w, "PING %d\n", wl.ShippedLSN())
		case errors.Is(err, wal.ErrClosed), errors.Is(err, context.Canceled):
			return
		default:
			// E.g. a checkpoint pruned segments under a slow catch-up
			// (ErrTruncated): drop the link; the follower reconnects and
			// the new handshake ships a snapshot.
			log.Warn("replication stream broken", "err", err)
			fail(err.Error())
			return
		}
	}
}

// appendRec appends one shipped record's line to b (the connection
// buffer's spare capacity, so shipping allocates nothing). The value
// round-trips exactly ('g', -1 — shortest form that re-parses to the
// same float), so the follower's log is byte-for-byte replayable.
func appendRec(b []byte, rec wal.StreamRecord) []byte {
	b = append(b, "REC "...)
	b = strconv.AppendUint(b, rec.LSN, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(rec.Op.Kind), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, rec.Op.Time, 10)
	for _, c := range rec.Op.Coords {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(c), 10)
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, rec.Op.Value, 'g', -1, 64)
	return append(b, '\n')
}

// sendSnapshot ships the log's newest checkpoint file as it lies on
// disk: SNAP header, base64 chunks, ENDSNAP. It is exact at its LSN and
// durable, so a follower never holds what this primary could lose. It
// must cover from, the first record the follower lacks, or the
// handshake would make no progress; it is refused instead.
func (s *Server) sendSnapshot(wd *lineserver.Deadline, w *bufio.Writer, from uint64) (uint64, error) {
	f, lsn, err := s.wal.OpenCheckpoint()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	// Read-only: a read error is the signal, the close result is not.
	defer func() { _ = f.Close() }()
	if lsn < from {
		return 0, fmt.Errorf("snapshot: newest checkpoint covers LSN %d, short of %d", lsn, from)
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	fmt.Fprintf(w, "SNAP lsn=%d size=%d\n", lsn, fi.Size())
	chunk := make([]byte, snapChunk)
	for {
		n, err := io.ReadFull(f, chunk)
		if err == io.EOF {
			break
		} else if err != nil && err != io.ErrUnexpectedEOF { // a short last chunk is not an error
			return 0, fmt.Errorf("snapshot: %w", err)
		}
		fmt.Fprintln(w, base64.StdEncoding.EncodeToString(chunk[:n]))
		wd.Arm(time.Now())
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	fmt.Fprintln(w, "ENDSNAP")
	wd.Arm(time.Now())
	return lsn, w.Flush()
}

// ---------------------------------------------------------------------------
// Follower side: tailing the primary and applying its stream.

// startFollower puts the server in follower mode and starts the
// replication loop. Called from Start before the listener starts, so
// dispatch never observes a half-initialised repl field.
func (s *Server) startFollower(primary string) {
	r := &replState{primaryAddr: primary, log: s.wal, stop: make(chan struct{})}
	s.repl = r
	s.link.Log = s.Log.With("primary", primary)
	go s.followLoop(r)
}

// followLoop keeps the replication link alive until promotion:
// dial, stream, and on any link failure redial after a short pause.
func (s *Server) followLoop(r *replState) {
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if err := s.followOnce(r); err != nil && !r.promoted.Load() {
			s.Log.Warn("replication link lost", "primary", r.primaryAddr, "err", err)
		}
		select {
		case <-r.stop:
			return
		case <-time.After(replRedialDelay):
		}
	}
}

// followOnce runs one replication session: it subscribes from the local
// log's end and hands the connection to the link core, which serves the
// primary's stream like a client connection until the primary closes
// it, a line ends the session, or promotion closes the connection.
func (s *Server) followOnce(r *replState) error {
	conn, err := net.DialTimeout("tcp", r.primaryAddr, 2*time.Second)
	if err != nil {
		return err
	}
	// Promotion must not wait out a blocked read: closing the
	// connection unblocks the read immediately.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.stop:
			_ = conn.Close() // unblocking the read is the point
		case <-done:
		}
	}()
	// Sync repairs what a session whose commit failed left applied but not
	// durable, before the stream resumes past it (no link serves yet). A
	// log a failed Rebase left closed is at its old end: SNAP comes again.
	end := s.wal.LastLSN()
	if err = s.wal.Sync(); err == nil {
		_, err = fmt.Fprintf(conn, "REPLICATE FROM %d\n", end+1)
	}
	if err != nil {
		_ = conn.Close() // the repair or write error is the actionable one
		return err
	}
	r.ended = errors.New("primary closed the replication stream")
	s.link.ServeConn(conn)
	return r.ended
}

// linkCommands is the link core's table: its requests are the lines the
// primary ships, each answered up the link. REC, PING and OK join, so a
// unit is every line that arrived together (a lone record is a unit of
// one) and settleShipped commits its records at once. The primary's ERR
// ends the session; SNAP takes the link over to install a snapshot.
func (s *Server) linkCommands() []lineserver.Command {
	return []lineserver.Command{
		{Verb: "REC", MaxArgs: -1, Joins: true, Handle: s.linkRec},
		{Verb: "PING", MinArgs: 1, MaxArgs: 1, Usage: "PING needs the frontier LSN", Joins: true, Handle: s.linkPing},
		{Verb: "OK", MaxArgs: -1, Joins: true, Handle: s.linkOK},
		{Verb: "ERR", MaxArgs: -1, Joins: true, EndsUnit: true, Handle: func(rq *lineserver.Request) string {
			return s.repl.end(rq, fmt.Errorf("primary refused replication: %s", rq.Line))
		}},
		{Verb: "SNAP", MaxArgs: -1, EndsUnit: true, Hijack: s.linkSnap},
	}
}

// end answers rq with why and makes it the session's last request: the
// link closes once its unit's replies have left, and followOnce returns
// why.
func (r *replState) end(rq *lineserver.Request, why error) string {
	r.ended, rq.Quit = why, true
	return "ERR " + why.Error()
}

// linkRec parses one shipped record and leaves it for settleShipped. A
// record that must not be applied ends the session instead: one the
// primary's death cut off (it would still parse, as another value), one
// that does not parse, and any that arrives after promotion.
func (s *Server) linkRec(rq *lineserver.Request) string {
	r := s.repl
	if r.promoted.Load() {
		return r.end(rq, errors.New("promoted to primary"))
	}
	if rq.Torn {
		return r.end(rq, errors.New("primary closed the replication stream mid-line"))
	}
	rec, err := parseRec(rq.Line, s.dims)
	if err != nil {
		return r.end(rq, err)
	}
	rq.Pending = rec
	return ""
}

// linkOK notes the primary's end the stream opens with and acknowledges
// what the follower already holds.
func (s *Server) linkOK(rq *lineserver.Request) string {
	var from, last uint64
	if _, err := fmt.Sscanf(rq.Line, "OK from=%d last=%d", &from, &last); err != nil {
		return s.repl.end(rq, fmt.Errorf("malformed stream start %q: %w", rq.Line, err))
	}
	s.repl.noteFrontier(last)
	return "ACK " + strconv.FormatUint(s.repl.applied(), 10)
}

// linkPing notes the frontier an idle primary reports.
func (s *Server) linkPing(rq *lineserver.Request) string {
	lsn, err := strconv.ParseUint(rq.Fields[1], 10, 64)
	if err != nil {
		return "ERR bad LSN: " + err.Error()
	}
	s.repl.noteFrontier(lsn)
	return "OK"
}

// parseRec decodes "REC <lsn> <kind> <time> <coords...> <value>", the
// inverse of appendRec. A missing field shows up as an empty token and
// a surplus one inside the value; both fail to parse.
func parseRec(line string, dims int) (wal.StreamRecord, error) {
	rest, ok := strings.CutPrefix(line, "REC ")
	if !ok {
		return wal.StreamRecord{}, fmt.Errorf("malformed REC line %q", line)
	}
	field := func() (tok string) {
		tok, rest, _ = strings.Cut(rest, " ")
		return tok
	}
	lsn, err := strconv.ParseUint(field(), 10, 64)
	if err != nil {
		return wal.StreamRecord{}, fmt.Errorf("REC lsn: %w", err)
	}
	kind, err := strconv.ParseUint(field(), 10, 8)
	if err != nil {
		return wal.StreamRecord{}, fmt.Errorf("REC kind: %w", err)
	}
	t, err := strconv.ParseInt(field(), 10, 64)
	if err != nil {
		return wal.StreamRecord{}, fmt.Errorf("REC time: %w", err)
	}
	coords := make([]int, dims)
	for i := range coords {
		if coords[i], err = strconv.Atoi(field()); err != nil {
			return wal.StreamRecord{}, fmt.Errorf("REC coordinate: %w", err)
		}
	}
	val, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return wal.StreamRecord{}, fmt.Errorf("REC value: %w", err)
	}
	return wal.StreamRecord{LSN: lsn, Op: core.Op{Kind: core.OpKind(kind), Time: t, Coords: coords, Value: val}}, nil
}

// settleShipped is the link core's settle, the follower's commit
// barrier: the unit's records are staged and applied by applyUnit, the
// primary's loop — readers always see a cube at an exact LSN boundary —
// then committed with mu released, one fsync for every record that
// arrived together. A record counts as applied only once it is durable
// here; every REC up to there is answered with the cumulative ACK, and
// one that could not be applied ends the session.
func (s *Server) settleShipped(open []*lineserver.Request) time.Time {
	r, last := s.repl, open[len(open)-1]
	// The session ends after a unit that does not settle, a panic
	// included: its ERR internal leaves the log's end unknown upstream.
	last.Quit = true
	n, end, err := s.applyUnit(open, s.shipLocked)
	if n > 0 {
		if cerr := s.wal.Commit(end); cerr != nil {
			n, err = 0, fmt.Errorf("committing shipped records through %d: %w", end, cerr)
		} else {
			r.noteFrontier(end)
		}
	}
	last.Quit = false
	ack := "ACK " + strconv.FormatUint(end, 10)
	for i, rq := range open {
		if i < n {
			rq.Reply = ack
		} else {
			rq.Reply = r.end(rq, err)
		}
	}
	return time.Time{}
}

// shipLocked is settleShipped's apply step: one shipped record, logged
// and applied at its LSN. The caller holds mu.
func (s *Server) shipLocked(rq *lineserver.Request) error {
	rec := rq.Pending.(wal.StreamRecord)
	skipped, err := s.wal.ApplyReplicated(s.cube, rec.LSN, rec.Op)
	if skipped {
		s.Log.Warn("shipped op rejected by cube; skipped to match primary recovery semantics", "lsn", rec.LSN)
	}
	return err
}

// linkSnap is SNAP's Hijack row: it installs the snapshot the line
// announces, decoding its base64 lines as they arrive, and ends the
// session; the next one resumes the stream at the snapshot's LSN+1.
func (s *Server) linkSnap(conn net.Conn, lr *lineserver.Reader, _ *bufio.Writer, rq *lineserver.Request) {
	r := s.repl
	var lsn, size uint64
	_, err := fmt.Sscanf(rq.Line, "SNAP lsn=%d size=%d", &lsn, &size)
	if err != nil {
		err = fmt.Errorf("malformed SNAP header %q: %w", rq.Line, err)
	} else {
		err = s.installSnapshot(lsn, &snapReader{conn: conn, lr: lr, left: int64(size)})
	}
	if r.ended = err; err == nil {
		s.Log.Info("bootstrapped from shipped snapshot", "lsn", lsn, "primary", r.primaryAddr)
	}
}

// snapReader reads a SNAP payload off the link: the base64 lines up to
// ENDSNAP, decoded one line at a time, ending in io.EOF only when they
// carried exactly the bytes the header announced. Its first error is
// final, so nothing is read past the payload.
type snapReader struct {
	conn  net.Conn
	lr    *lineserver.Reader
	left  int64  // payload bytes the header announced that have not arrived
	chunk []byte // decoded bytes of the current line not yet read
	err   error
}

func (r *snapReader) Read(p []byte) (int, error) {
	for len(r.chunk) == 0 && r.err == nil {
		r.chunk, r.err = r.line()
	}
	if len(r.chunk) == 0 {
		return 0, r.err
	}
	n := copy(p, r.chunk)
	r.chunk = r.chunk[n:]
	return n, nil
}

// line reads and decodes the payload's next line.
func (r *snapReader) line() ([]byte, error) {
	_ = r.conn.SetReadDeadline(time.Now().Add(replReadTimeout))
	raw, err := r.lr.Next()
	if err != nil {
		return nil, fmt.Errorf("reading snapshot: %w", err)
	}
	line := bytes.TrimSpace(raw)
	if string(line) == "ENDSNAP" {
		if r.left != 0 {
			return nil, fmt.Errorf("snapshot ended %d bytes short of its header's size", r.left)
		}
		return nil, io.EOF
	}
	chunk := make([]byte, base64.StdEncoding.DecodedLen(len(line)))
	n, err := base64.StdEncoding.Decode(chunk, line)
	if err != nil {
		return nil, fmt.Errorf("snapshot chunk: %w", err)
	}
	if r.left -= int64(n); r.left < 0 {
		return nil, errors.New("snapshot runs past its header's size")
	}
	return chunk[:n], nil
}

// installSnapshot makes the snapshot in payload, exact at lsn, the
// follower's state: decoded and checked whole first, then, under mu, the
// log rebased onto it in place and the cube swapped in. A promoted
// server keeps its history: it may have staged writes of its own.
func (s *Server) installSnapshot(lsn uint64, payload io.Reader) error {
	cube, err := core.Load(payload)
	if err == nil {
		_, err = io.Copy(io.Discard, payload) // through ENDSNAP, size checked
	}
	if err == nil {
		err = s.checkDims("shipped snapshot", cube)
	}
	if err != nil {
		return fmt.Errorf("decoding shipped snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.repl; r != nil && r.promoted.Load() {
		return errors.New("promoted to primary")
	}
	if err := s.wal.Rebase(lsn, cube.Save); err != nil {
		return fmt.Errorf("rebasing the log onto the shipped snapshot: %w", err)
	}
	s.attachCubeLocked(cube)
	return nil
}
