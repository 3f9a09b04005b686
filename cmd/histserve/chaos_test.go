package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/linetest"
)

// TestChaosBinaryDegradeKillRecover is the end-to-end acceptance run:
// the real binary with an armed -fault-spec fills its disk mid-
// workload, degrades to read-only while still answering queries (the
// acked records plus the nacked one whose write failed at its commit,
// already applied), is SIGKILLed, and a healthy restart on the same
// directory serves exactly the acknowledged records — nothing lost,
// nothing invented.
func TestChaosBinaryDegradeKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos binary test builds and kills real processes")
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	p1 := linetest.Start(t, servePkg,
		"-dims", "8,8", "-op", "sum", "-data-dir", dataDir, "-fsync", "always",
		"-fault-spec", "wal.write:nospace@120+", "-fault-seed", "3",
		"-degraded-probe-every", "250ms")
	// A recovery-probe interval of 0 would let every mutation of a
	// degraded server through as a probe: refused at startup.
	if out, err := exec.Command(p1.Cmd.Path, "-addr", "127.0.0.1:0", "-degraded-probe-every", "0").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "-degraded-probe-every must be > 0") {
		t.Fatalf("-degraded-probe-every 0: %v\n%s", err, out)
	}
	conn := linetest.Dial(t, p1.Addr)
	acked, readonlySeen := 0, false
	for i := 0; i < 400; i++ {
		resp := conn.Cmd(t, fmt.Sprintf("INS %d %d %d 1", i/5, i%8, (i/3)%8))
		switch {
		case resp == "OK":
			acked++
		case strings.HasPrefix(resp, "ERR read-only:"):
			readonlySeen = true
		case strings.HasPrefix(resp, "ERR"): // the first no-space failure
		default:
			t.Fatalf("op %d: unexpected response %q", i, resp)
		}
	}
	if acked == 0 || !readonlySeen {
		t.Fatalf("workload saw acked=%d readonly=%v; the fault schedule did not engage", acked, readonlySeen)
	}
	// Degraded, but still serving queries, exactly.
	if got := conn.Float(t, "QRY 0 1000000 0 0 7 7"); got != float64(acked+1) {
		t.Fatalf("degraded query = %v, want acked+nacked = %d", got, acked+1)
	}

	// Pull the plug mid-degradation.
	p1.Stop(t, os.Kill)

	// A healthy restart recovers every acknowledged record and nothing
	// else, and serves writes again.
	p2 := linetest.Start(t, servePkg, "-dims", "8,8", "-op", "sum", "-data-dir", dataDir, "-fsync", "always")
	conn2 := linetest.Dial(t, p2.Addr)
	if got := conn2.Float(t, "QRY 0 1000000 0 0 7 7"); got != float64(acked) {
		t.Fatalf("recovered SUM = %v, want acked=%d", got, acked)
	}
	if resp := conn2.Cmd(t, "INS 999999 0 0 1"); resp != "OK" {
		t.Fatalf("post-recovery INS -> %q", resp)
	}
}

// The in-process chaos cases that need no more than main does; the
// rest of the seeded suite reads the server's own state and lives in
// internal/histserve.

// TestChaosPanicRecovery injects a panic into the dispatch path and
// checks the blast radius: the panicking request answers ERR internal,
// the connection keeps serving, and the cube mutex is not poisoned —
// later mutations and queries on the same connection succeed.
func TestChaosPanicRecovery(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse("serve.dispatch:panic@2", 1)
	addr := serveOn(t, srv)
	c := linetest.Dial(t, addr)

	if got := c.Cmd(t, "INS 1 2 3 5"); got != "OK" {
		t.Fatalf("pre-panic INS -> %q", got)
	}
	if got := c.Cmd(t, "QRY 0 5 0 0 7 7"); !strings.HasPrefix(got, "ERR internal error") {
		t.Fatalf("panicking request -> %q, want ERR internal error", got)
	}
	if n := linetest.MetricValue(t, srv.Reg, "histserve_panics_recovered_total"); n != 1 {
		t.Fatalf("recovered-panic counter = %d, want 1", n)
	}
	// Same connection, post-panic: both paths of the mutex contract.
	if got := c.Cmd(t, "INS 2 2 3 2"); got != "OK" {
		t.Fatalf("post-panic INS -> %q (mutex poisoned?)", got)
	}
	if got := c.Cmd(t, "QRY 0 5 0 0 7 7"); got != "7" {
		t.Fatalf("post-panic QRY -> %q, want 7", got)
	}
	if got := c.Cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

// TestChaosGovernanceLimits covers the connection-scoped governance:
// the -max-conns cap fast-rejects the surplus connection with a single
// ERR line, and an overlong request line is answered with ERR before
// the connection is closed.
func TestChaosGovernanceLimits(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.MaxConns = 1
	srv.MaxLineLen = 256
	addr := serveOn(t, srv)

	c1 := linetest.Dial(t, addr)
	if got := c1.Cmd(t, "INS 1 1 1 1"); got != "OK" {
		t.Fatalf("INS on first connection -> %q", got)
	}
	c2 := linetest.Dial(t, addr)
	line, err := c2.R.ReadString('\n')
	if err != nil {
		t.Fatalf("reading cap rejection: %v", err)
	}
	if !strings.HasPrefix(line, "ERR server busy") {
		t.Fatalf("over-cap connection -> %q, want ERR server busy", strings.TrimSpace(line))
	}
	if n := linetest.MetricValue(t, srv.Reg, "histserve_connections_rejected_total"); n != 1 {
		t.Fatalf("rejected-connection counter = %d, want 1", n)
	}

	// The surviving connection trips the line-length guard next.
	long := "INS " + strings.Repeat("9", 512)
	if _, err := fmt.Fprintln(c1.Conn, long); err != nil {
		t.Fatal(err)
	}
	resp, err := c1.R.ReadString('\n')
	if err != nil {
		t.Fatalf("reading too-long rejection: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR line too long") {
		t.Fatalf("overlong line -> %q, want ERR line too long", strings.TrimSpace(resp))
	}
	if _, err := c1.R.ReadString('\n'); err == nil {
		t.Fatal("connection survived an overlong line; the scanner cannot resynchronise, it must close")
	}

	// With the first connection gone, the server accepts new ones.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := net.Dial("tcp", addr)
		if err == nil {
			if _, err := fmt.Fprintln(c3, "QRY 0 5 0 0 7 7"); err == nil {
				if got, err := bufio.NewReader(c3).ReadString('\n'); err == nil && strings.TrimSpace(got) == "1" {
					c3.Close()
					return
				}
			}
			c3.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("server kept rejecting connections after the slot freed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
