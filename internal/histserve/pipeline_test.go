package histserve

// Pipelining conformance: the connection loop holds replies back until
// no complete request is buffered and releases them behind one commit
// barrier. None of that may be visible on the wire except as fewer
// flushes — a pipelined batch gets exactly the replies, in order, that
// the same lines get one at a time.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/lineserver"
	"histcube/internal/linetest"
	"histcube/internal/wal"
)

// newAlwaysServer builds a quiet durable server that fsyncs before
// every acknowledgement, so the commit barrier is live.
func newAlwaysServer(t *testing.T) *Server {
	t.Helper()
	srv := newQuietServer(t, "8,8", "sum", false)
	enableChaosWAL(t, srv, t.TempDir())
	t.Cleanup(srv.Close)
	return srv
}

// rawConn dials addr for tests that control exactly what goes into one
// write.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c := linetest.Dial(t, addr)
	if err := c.Conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c.Conn, c.R
}

// readLines reads exactly n reply lines.
func readLines(t *testing.T, r *bufio.Reader, n int) []string {
	t.Helper()
	lines := make([]string, 0, n)
	for len(lines) < n {
		l, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d reply lines: %v", len(lines), n, err)
		}
		lines = append(lines, strings.TrimRight(l, "\n"))
	}
	return lines
}

var (
	durationRE = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)
	traceIDRE  = regexp.MustCompile(`[0-9a-f]{16}`)
)

// stable strips what legitimately differs between two runs of the same
// request: span durations and IDs in EXPLAIN trees. STATS carries no
// timing, so it must match byte for byte.
func stable(line string) string {
	return traceIDRE.ReplaceAllString(durationRE.ReplaceAllString(line, "<dur>"), "<id>")
}

func TestPipelinedRepliesMatchDepthOne(t *testing.T) {
	lines := []string{
		"INS 1 1 1 5",
		"QRY 0 10 0 0 7 7",
		"INS 2 2 2 7",
		"DEL 2 2 2 3",
		"EXPLAIN QRY 0 10 0 0 7 7",
		"STATS",
		"ROLE",
		"FROB 1 2 3",
		"INS 3 x 1 1",
		"",
		"TID=feedface12345678 QRY 2 2 0 0 7 7",
		"CHECKPOINT",
		"INS 0 0 0 1", // out of order without -ooo
		"QRY 0 10 0 0 7 7",
		"INS 4 3 3 2",
		"SEAL 4",
		"INS 5 3 3 2",
		"INS 4 4 4 2", // sealed
		"QRY 0 10 0 0 7 7",
		"QUIT",
		"INS 9 1 1 100", // after QUIT: never executed
	}

	// Depth 1: one line per write, its reply read before the next.
	conn, r := rawConn(t, serveOn(t, newAlwaysServer(t)))
	var want []string
	for _, line := range lines[:len(lines)-1] {
		if line == "" {
			continue // no reply to wait for
		}
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		for {
			l := readLines(t, r, 1)[0]
			want = append(want, l)
			if !strings.HasPrefix(line, "EXPLAIN") || l == "END" {
				break
			}
		}
	}
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("connection open after QUIT: %v", err)
	}

	// Pipelined: every line in one write, nothing read until the server
	// closed the connection.
	conn, r = rawConn(t, serveOn(t, newAlwaysServer(t)))
	if _, err := io.WriteString(conn, strings.Join(lines, "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(all), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("pipelined batch answered %d lines, depth 1 answered %d:\n%s\n--- want ---\n%s",
			len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if stable(got[i]) != stable(want[i]) {
			t.Errorf("reply line %d: pipelined %q, depth 1 %q", i, got[i], want[i])
		}
	}
	if got[0] != "OK" || got[1] != "5" || got[len(got)-1] != "BYE" {
		t.Fatalf("unexpected replies: %q", got)
	}
}

func TestPartialLineDoesNotWithholdReplies(t *testing.T) {
	conn, r := rawConn(t, serveOn(t, newAlwaysServer(t)))
	if _, err := io.WriteString(conn, "INS 1 1 1 5\nQRY 0 10 0 0 7 7\nQRY 0 10"); err != nil {
		t.Fatal(err)
	}
	// Both complete requests are answered although a third is half
	// there; the deadline turns a withheld reply into a failure.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got := readLines(t, r, 2); got[0] != "OK" || got[1] != "5" {
		t.Fatalf("replies before the partial line = %q", got)
	}
	if _, err := io.WriteString(conn, " 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, r, 1); got[0] != "5" {
		t.Fatalf("completed partial line -> %q", got)
	}
}

func TestBatchBeyondCapReleasedInSeveralFlushes(t *testing.T) {
	srv := newAlwaysServer(t)
	conn, r := rawConn(t, serveOn(t, srv))
	// Short lines, so that more than lineserver.MaxPendingReplies of them sit in
	// the server's read buffer at once, and little enough in total that
	// a client which reads nothing until it wrote everything cannot
	// wedge on full socket buffers.
	const n = 3*lineserver.MaxPendingReplies + 10
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "INS %d 1 1 1\n", i)
	}
	commitWait := srv.stage[stageCommitWait]
	before := commitWait.Count()
	if _, err := io.WriteString(conn, b.String()); err != nil {
		t.Fatal(err)
	}
	for i, l := range readLines(t, r, n) {
		if l != "OK" {
			t.Fatalf("reply %d = %q", i, l)
		}
	}
	flushes := commitWait.Count() - before
	if min := int64((n + lineserver.MaxPendingReplies - 1) / lineserver.MaxPendingReplies); flushes < min || flushes > n/8 {
		t.Fatalf("%d inserts were released in %d batches, want at least %d (the cap) and far fewer than one per insert",
			n, flushes, min)
	}
	if got := linetest.MetricValue(t, srv.Reg, `histserve_request_seconds_count{cmd="INS"}`); got != n {
		t.Fatalf("accounted %d INS, want %d", got, n)
	}
}

func TestSemiSyncTimeoutFailsEveryMutationOfTheBatch(t *testing.T) {
	srv := newAlwaysServer(t)
	srv.cfg.ReplMinAcks = 1
	srv.cfg.ReplAckTimeout = 100 * time.Millisecond
	conn, r := rawConn(t, serveOn(t, srv))
	if _, err := io.WriteString(conn, "INS 1 1 1 5\nQRY 0 10 0 0 7 7\nINS 2 1 1 7\nQRY 0 10 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, r, 4)
	// No follower is attached: both writes are durable and applied, but
	// neither may be acked, and neither may the queries that counted
	// them.
	for i := range got {
		if !strings.HasPrefix(got[i], "ERR replication timeout") || !strings.Contains(got[i], "indeterminate") {
			t.Errorf("reply %d = %q, want the indeterminate replication timeout", i, got[i])
		}
	}
	if n := srv.stage[stageReplAckWait].Count(); n != 1 {
		t.Errorf("the batch waited for acks %d times, want once (the wait is cumulative)", n)
	}
	if ins, qry := srv.Errors["INS"].Value(), srv.Errors["QRY"].Value(); ins != 2 || qry != 2 {
		t.Errorf("errors accounted: INS %d, QRY %d, want 2 each", ins, qry)
	}
	// A later query counts those writes too, so it answers the same
	// timeout for as long as no follower acks them.
	if _, err := io.WriteString(conn, "QRY 0 10 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, r, 1)[0]; !strings.HasPrefix(got, "ERR replication timeout") {
		t.Errorf("query of the unacked writes = %q, want the replication timeout", got)
	}
}

// TestLatencyAccountingFollowsTheReply pins that a request is accounted
// when its reply is released, not when dispatch returns: the commit
// wait the client sees must be inside the recorded INS latency.
func TestLatencyAccountingFollowsTheReply(t *testing.T) {
	const stall = 40 * time.Millisecond
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse(fmt.Sprintf("wal.sync:slow=%s", stall), 1)
	enableChaosWAL(t, srv, t.TempDir())
	t.Cleanup(srv.Close)
	c := linetest.Dial(t, serveOn(t, srv))
	expect(t, c, "INS 1 1 1 1", "OK")
	expect(t, c, "QRY 0 5 0 0 7 7", "1")
	if n, sum := srv.Latency["INS"].Count(), srv.Latency["INS"].Sum(); n != 1 || sum < stall.Seconds() {
		t.Fatalf(`histserve_request_seconds{cmd="INS"}: %d samples summing to %gs, want 1 of at least the %s its commit waited`, n, sum, stall)
	}
	if n, sum := srv.Latency["QRY"].Count(), srv.Latency["QRY"].Sum(); n != 1 || sum >= stall.Seconds() {
		t.Fatalf(`histserve_request_seconds{cmd="QRY"}: %d samples summing to %gs: a query must not wait for a commit`, n, sum)
	}
	commitWait := srv.stage[stageCommitWait]
	if n, sum := commitWait.Count(), commitWait.Sum(); n != 1 || sum < stall.Seconds() {
		t.Fatalf(`histserve_stage_seconds{stage="commit_wait"}: %d samples summing to %gs, want 1 of at least %s`, n, sum, stall)
	}
}

// TestQueryWaitsForTheCommitItRead pins that a reply counts only
// committed writes, across connections: a query on one connection that
// counts an insert still in its group fsync on another answers only
// once that fsync is done, so a crash in between cannot take back what
// the reader was told.
func TestQueryWaitsForTheCommitItRead(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse("wal.sync:slow=200ms", 1)
	enableChaosWAL(t, srv, t.TempDir())
	t.Cleanup(srv.Close)
	addr := serveOn(t, srv)
	writer, wr := rawConn(t, addr)
	if _, err := io.WriteString(writer, "INS 1 1 1 5\n"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the insert staged", func() bool { return srv.wal.LastLSN() == 1 })
	reader, rr := rawConn(t, addr)
	if _, err := io.WriteString(reader, "QRY 0 10 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, rr, 1)[0]
	if shipped := srv.wal.ShippedLSN(); shipped < 1 {
		t.Fatalf("the query answered %q with the insert it counted not yet durable (durable through LSN %d)", got, shipped)
	}
	if got != "5" {
		t.Fatalf("query = %q, want 5: it must count the insert", got)
	}
	if got := readLines(t, wr, 1)[0]; got != "OK" {
		t.Fatalf("insert = %q, want OK", got)
	}
}

// TestFsyncFailureFailsEveryMutationOfTheBatch pins the barrier's
// storage-failure path: one failed group fsync turns every reply of the
// batch into the ERR the mutations would have had inline — the query's
// too, since it counted them — and degrades the server; the writes stay
// applied, and the repair makes them durable without reusing their
// LSNs.
func TestFsyncFailureFailsEveryMutationOfTheBatch(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse("wal.sync:err@1", 1)
	srv.cfg.DegradedProbeEvery = time.Millisecond
	dir := t.TempDir()
	enableChaosWAL(t, srv, dir)
	conn, r := rawConn(t, serveOn(t, srv))
	if _, err := io.WriteString(conn, "INS 1 1 1 5\nQRY 0 10 0 0 7 7\nINS 2 1 1 7\n"); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, r, 3)
	for i := range got {
		if !strings.HasPrefix(got[i], "ERR wal append failed") || !strings.Contains(got[i], "fsync failed") {
			t.Errorf("reply %d = %q, want the fsync failure", i, got[i])
		}
	}
	if !srv.degraded.Load() {
		t.Fatal("a failed commit did not degrade the server")
	}
	// The next mutation is the probe: its Stage repairs the log, its
	// commit clears the flag.
	time.Sleep(5 * time.Millisecond)
	if _, err := io.WriteString(conn, "INS 3 1 1 1\n"); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, r, 1); got[0] != "OK" {
		t.Fatalf("probe after the fault healed -> %q", got[0])
	}
	if srv.degraded.Load() {
		t.Fatal("a successful commit did not clear degraded mode")
	}
	srv.Close()

	// All three writes were applied, so all three must replay.
	srv2 := newQuietServer(t, "8,8", "sum", false)
	res, err := srv2.enableDurability(dir, wal.Options{Sync: wal.SyncAlways}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if resp, _ := srv2.safeDispatch(0, "QRY 0 10 0 0 7 7"); resp != "13" {
		t.Fatalf("after restart QRY = %q, want 13 (recovery %+v)", resp, res)
	}
}

// TestPanickingLineKeepsNeighboursReplies pins the panic barrier's
// granularity on histserve: per line. In one pipelined unit the
// panicking line answers ERR internal and the lines around it — the
// mutation before it included, whose commit the unit still settles —
// keep their own replies.
func TestPanickingLineKeepsNeighboursReplies(t *testing.T) {
	srv := newAlwaysServer(t)
	srv.Inj = fault.MustParse("serve.dispatch:panic@2", 1)
	conn, r := rawConn(t, serveOn(t, srv))
	if _, err := io.WriteString(conn, "INS 1 1 1 5\nQRY 0 9 0 0 7 7\nINS 2 1 1 2\nQRY 0 9 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, r, 4)
	if got[0] != "OK" || !strings.HasPrefix(got[1], "ERR internal error") || got[2] != "OK" || got[3] != "7" {
		t.Fatalf("replies = %q, want OK, ERR internal error..., OK, 7", got)
	}
	if n := linetest.MetricValue(t, srv.Reg, "histserve_panics_recovered_total"); n != 1 {
		t.Errorf("recovered-panic counter = %d, want 1", n)
	}
}
