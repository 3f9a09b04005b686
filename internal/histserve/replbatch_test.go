package histserve

// Batched replication: records that arrive together at a follower share
// one stage-apply pass, one commit and one cumulative ACK. These tests
// pin what that may and may not change — fewer fsyncs, the same
// positions, never an ACK ahead of durability, never a staged record
// lost to a promotion or a crash.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"histcube/internal/core"
	"histcube/internal/fault"
	"histcube/internal/linetest"
	"histcube/internal/wal"
)

// startAlwaysReplica is startReplica with -fsync=always, so the
// follower's commit is a real fsync that can be counted and stalled.
func startAlwaysReplica(t *testing.T, dir string, primary *Server, primaryAddr string, inj *fault.Injector) *Server {
	t.Helper()
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = inj
	enableChaosWAL(t, srv, dir)
	srv.startFollower(primaryAddr)
	waitUntil(t, 5*time.Second, "replication link", func() bool { return primary.hub.Followers() == 1 })
	return srv
}

func TestFollowerCommitsABurstWithOneAckAndFewFsyncs(t *testing.T) {
	primary := newAlwaysServer(t)
	paddr := serveOn(t, primary)
	follower := startAlwaysReplica(t, t.TempDir(), primary, paddr, nil)

	// One write: the primary group-commits the window, its shipping loop
	// writes every record of the group before it flushes, and the
	// follower finds them buffered together.
	const k = 64
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "INS %d %d %d 1\n", i, i%8, (i/3)%8)
	}
	before := linetest.MetricValue(t, follower.Reg, "histcube_wal_fsyncs_total")
	conn, r := rawConn(t, paddr)
	if _, err := io.WriteString(conn, b.String()); err != nil {
		t.Fatal(err)
	}
	for i, l := range readLines(t, r, k) {
		if l != "OK" {
			t.Fatalf("reply %d = %q", i, l)
		}
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return follower.repl.applied() == k })
	if fsyncs := linetest.MetricValue(t, follower.Reg, "histcube_wal_fsyncs_total") - before; fsyncs < 1 || fsyncs >= k/4 {
		t.Fatalf("a burst of %d shipped records cost the follower %d fsyncs, want far fewer than one per record", k, fsyncs)
	}
	if got := follower.roleLine(); !strings.HasPrefix(got, fmt.Sprintf("OK role=replica applied_lsn=%d lag_lsn=0", k)) {
		t.Fatalf("follower ROLE after the burst -> %q", got)
	}
	if got := chaosQuery(t, follower); got != k {
		t.Fatalf("follower SUM = %v, want %d", got, k)
	}
	// A lone record is a batch of one: exactly one more fsync.
	before = linetest.MetricValue(t, follower.Reg, "histcube_wal_fsyncs_total")
	expect(t, linetest.Dial(t, paddr), fmt.Sprintf("INS %d 0 0 1", k), "OK")
	waitUntil(t, 5*time.Second, "lone record", func() bool { return follower.repl.applied() == k+1 })
	if fsyncs := linetest.MetricValue(t, follower.Reg, "histcube_wal_fsyncs_total") - before; fsyncs != 1 {
		t.Fatalf("a lone shipped record cost %d fsyncs, want 1", fsyncs)
	}
}

// TestPromoteMidBurst stalls the follower's commit of a staged burst
// and promotes it meanwhile: the semi-sync primary must not have been
// ACKed (its clients are still waiting), and the promoted server must
// hold every record it staged — applied, logged, and durable across a
// restart.
func TestPromoteMidBurst(t *testing.T) {
	const stall = time.Second
	primary := newAlwaysServer(t)
	primary.cfg.ReplMinAcks = 1
	primary.cfg.ReplAckTimeout = 2 * stall
	paddr := serveOn(t, primary)
	fdir := t.TempDir()
	follower := startAlwaysReplica(t, fdir, primary, paddr,
		fault.MustParse(fmt.Sprintf("wal.sync:slow=%s", stall), 1))

	const k = 8
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "INS %d %d %d 1\n", i, i%8, (i/3)%8)
	}
	conn, r := rawConn(t, paddr)
	if _, err := io.WriteString(conn, b.String()); err != nil {
		t.Fatal(err)
	}
	// Staged and applied on the follower — its log ends at the burst's
	// last record — while its one commit sits in the stalled fsync.
	waitUntil(t, 5*time.Second, "burst staged on the follower", func() bool { return follower.walLastLSN() == k })
	if got := follower.repl.applied(); got != 0 {
		t.Fatalf("applied_lsn = %d before the batch's commit returned", got)
	}
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if l, err := r.ReadString('\n'); err == nil {
		t.Fatalf("the primary answered %q: the follower ACKed a record it had not committed", strings.TrimSpace(l))
	}
	if got := follower.promote(0); !strings.HasPrefix(got, fmt.Sprintf("OK role=primary last_lsn=%d", k)) {
		t.Fatalf("PROMOTE mid-burst -> %q", got)
	}
	// The old primary's clients get one reply per line either way: OK if
	// the ACK still made it out after the commit, the indeterminate
	// timeout if the promotion closed the link first.
	_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	for i, l := range readLines(t, r, k) {
		if l != "OK" && !strings.HasPrefix(l, "ERR replication timeout") {
			t.Fatalf("reply %d = %q", i, l)
		}
	}
	// Nothing staged was lost: the promoted server serves all k, extends
	// the same log, and recovers all of it.
	if got := chaosQuery(t, follower); got != k {
		t.Fatalf("promoted SUM = %v, want %d", got, k)
	}
	if resp, _ := follower.safeDispatch(0, fmt.Sprintf("INS %d 0 0 1", k)); resp != "OK" {
		t.Fatalf("write on the promoted server -> %q", resp)
	}
	if got := follower.walLastLSN(); got != k+1 {
		t.Fatalf("promoted log ends at %d, want %d", got, k+1)
	}
	follower.Close()
	restarted := newQuietServer(t, "8,8", "sum", false)
	enableChaosWAL(t, restarted, fdir)
	defer restarted.Close()
	if got := chaosQuery(t, restarted); got != k+1 {
		t.Fatalf("after restart SUM = %v, want %d", got, k+1)
	}
}

// TestTornRecLineIsNotApplied: a REC cut off by the primary's death
// would still parse, as a different value; the follower must drop the
// link instead of applying it.
func TestTornRecLineIsNotApplied(t *testing.T) {
	fake := newFakePrimary(t, "OK from=1 last=2\nREC 1 1 5 1 1 2\nREC 2 1 5 1 1 77")
	follower := newQuietServer(t, "8,8", "sum", false)
	enableChaosWAL(t, follower, t.TempDir())
	t.Cleanup(follower.Close)
	r := &replState{primaryAddr: fake, log: follower.wal, stop: make(chan struct{})}
	follower.repl = r
	if err := follower.followOnce(r); err == nil || !strings.Contains(err.Error(), "mid-line") {
		t.Fatalf("followOnce over a torn stream returned %v", err)
	}
	if got := r.applied(); got != 1 {
		t.Fatalf("applied_lsn = %d, want 1 (the terminated record only)", got)
	}
	if got := chaosQuery(t, follower); got != 2 {
		t.Fatalf("SUM = %v, want 2: the torn record's prefix must not be applied", got)
	}
}

// newFakePrimary serves one replication session: it reads the
// follower's REPLICATE line, writes stream verbatim and closes.
func newFakePrimary(t *testing.T, stream string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		io.WriteString(conn, stream)
	}()
	return ln.Addr().String()
}

// FuzzRecLine: parseRec never panics on arbitrary input, and whatever
// appendRec writes parseRec reads back exactly — LSN, kind, time,
// coordinates and the float bit for bit.
func FuzzRecLine(f *testing.F) {
	f.Add("REC 1 1 5 1 2 3.5", uint64(7), uint8(1), int64(-3), 4, 5, 0.1)
	f.Add("REC 18446744073709551615 255 -9223372036854775808 -1 0 -0", uint64(math.MaxUint64), uint8(2), int64(math.MinInt64), -1, math.MaxInt, math.Inf(-1))
	f.Add("REC 1 1 5 1", uint64(0), uint8(0), int64(0), 0, 0, math.SmallestNonzeroFloat64)
	f.Add("REC  1 1 5 1 2 3", uint64(1), uint8(1), int64(1), 1, 1, 1e300)
	f.Fuzz(func(t *testing.T, line string, lsn uint64, kind uint8, tm int64, c1, c2 int, val float64) {
		for dims := 0; dims <= 3; dims++ {
			_, _ = parseRec(line, dims)
		}
		in := wal.StreamRecord{LSN: lsn, Op: core.Op{Kind: core.OpKind(kind), Time: tm, Coords: []int{c1, c2}, Value: val}}
		wire := string(appendRec(nil, in))
		if !strings.HasSuffix(wire, "\n") || strings.Count(wire, "\n") != 1 {
			t.Fatalf("appendRec wrote %q: want exactly one terminated line", wire)
		}
		out, err := parseRec(strings.TrimSuffix(wire, "\n"), 2)
		if err != nil {
			t.Fatalf("parseRec(%q): %v", wire, err)
		}
		if out.LSN != lsn || out.Op.Kind != in.Op.Kind || out.Op.Time != tm ||
			out.Op.Coords[0] != c1 || out.Op.Coords[1] != c2 {
			t.Fatalf("%q parsed to %+v, want %+v", wire, out, in)
		}
		// NaN payloads are not carried by the text form; every other
		// value must come back bit for bit.
		if math.IsNaN(val) != math.IsNaN(out.Op.Value) ||
			(!math.IsNaN(val) && math.Float64bits(out.Op.Value) != math.Float64bits(val)) {
			t.Fatalf("%q: value %v (%#x) came back as %v (%#x)", wire, val, math.Float64bits(val), out.Op.Value, math.Float64bits(out.Op.Value))
		}
	})
}
