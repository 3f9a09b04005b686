package main

// Seeded chaos suite: drive the server with the deterministic fault
// injector (internal/fault) and assert the robustness invariants the
// governance layer promises — no acknowledged write is ever lost, no
// panic escapes a request, and the server always answers or cleanly
// rejects. `make chaos` runs these race-enabled; TestChaos* names are
// the contract the Makefile and CI grep for.

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/wal"
)

// enableChaosWAL attaches a durable WAL under dir to an in-process
// server, with fsync=always so every acked record is on disk.
func enableChaosWAL(t *testing.T, srv *server, dir string) {
	t.Helper()
	if _, err := srv.enableDurability(dir, wal.Options{Sync: wal.SyncAlways}, 0); err != nil {
		t.Fatalf("enableDurability: %v", err)
	}
}

// chaosQuery runs a full-range query through dispatch and parses the
// SUM (every chaos INS has value 1, so SUM counts applied records).
func chaosQuery(t *testing.T, srv *server) float64 {
	t.Helper()
	resp, _ := srv.safeDispatch(0, "QRY 0 1000000 0 0 7 7")
	v, err := strconv.ParseFloat(resp, 64)
	if err != nil {
		t.Fatalf("chaos query -> %q", resp)
	}
	return v
}

// TestChaosReadOnlyDegradationAndRecovery walks the full degradation
// state machine: a persistent out-of-space fault flips the server
// read-only (mutations rejected, queries served, /readyz 503, STATS
// degraded=1), healing the fault lets the next probe mutation through,
// and the server returns to normal service. The write fails at the
// commit, after the op was applied: the nacked insert is in the cube
// (indeterminate, as after a failed fsync) and the repair keeps it.
func TestChaosReadOnlyDegradationAndRecovery(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse("wal.write:nospace@4+", 1)
	srv.probeEvery = 50 * time.Millisecond
	enableChaosWAL(t, srv, filepath.Join(t.TempDir(), "data"))
	srv.markReady()
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })
	readyz := func() int {
		t.Helper()
		resp, err := http.Get("http://" + mln.Addr().String() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz before faults -> %d", got)
	}

	// Drive inserts until the injected disk-full lands.
	acked := 0
	var firstErr string
	for i := 0; i < 100; i++ {
		resp, _ := srv.safeDispatch(0, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i/3)%8))
		if resp != "OK" {
			firstErr = resp
			break
		}
		acked++
	}
	if firstErr == "" {
		t.Fatal("the nospace fault never fired")
	}
	if !strings.Contains(firstErr, "no space") {
		t.Fatalf("first failure = %q, want the injected no-space error", firstErr)
	}
	if !srv.degraded.Load() {
		t.Fatal("server did not enter degraded mode after the storage failure")
	}

	// Mutations are now rejected fast, with the read-only prefix.
	resp, _ := srv.safeDispatch(0, "INS 1000 0 0 1")
	if !strings.HasPrefix(resp, "ERR read-only:") {
		t.Fatalf("degraded INS -> %q, want ERR read-only", resp)
	}
	// Queries keep serving the historic data exactly: every acked insert
	// and the nacked one.
	if got := chaosQuery(t, srv); got != float64(acked+1) {
		t.Fatalf("degraded QRY = %v, want acked+nacked = %d", got, acked+1)
	}
	stats, _ := srv.safeDispatch(0, "STATS")
	if !strings.Contains(stats, "degraded=1") {
		t.Fatalf("STATS while degraded: %q", stats)
	}
	if metricValue(t, srv, "histserve_readonly_rejections_total") == 0 {
		t.Fatal("readonly_rejections counter did not move")
	}
	if got := metricValue(t, srv, "histcube_degraded"); got != 1 {
		t.Fatalf("histcube_degraded = %d while degraded, want 1", got)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded -> %d, want 503", got)
	}

	// Heal the disk; after the probe interval one mutation gets
	// through as a probe, succeeds, and clears the flag.
	srv.Inj.Heal()
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		resp, _ := srv.safeDispatch(0, "INS 2000 0 0 1")
		if resp == "OK" {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("server never recovered after the fault was healed")
	}
	if srv.degraded.Load() {
		t.Fatal("degraded flag still set after a successful probe")
	}
	stats, _ = srv.safeDispatch(0, "STATS")
	if !strings.Contains(stats, "degraded=0") {
		t.Fatalf("STATS after recovery: %q", stats)
	}
	if got := metricValue(t, srv, "histcube_degraded"); got != 0 {
		t.Fatalf("histcube_degraded = %d after recovery, want 0", got)
	}
	if got := metricValue(t, srv, "histserve_degraded_transitions_total"); got != 1 {
		t.Fatalf("degraded transitions = %d, want 1", got)
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz after recovery -> %d", got)
	}
	if got := chaosQuery(t, srv); got != float64(acked+2) {
		t.Fatalf("post-recovery QRY = %v, want %d", got, acked+2)
	}
	srv.shutdown()
}

// TestChaosSeededWorkloadNoAckLoss runs a mutation workload under
// probabilistic write/sync faults (transient errors, torn writes,
// latency) for fixed seeds plus one randomized seed, then recovers the
// directory with a healthy server and checks the durability invariant:
// every acknowledged record is recovered, and nothing beyond what was
// attempted appears (acked <= recovered <= sent). The randomized seed
// runs under the stable name "seed=random" (its value is logged) so the
// suite's test names do not change from run to run.
func TestChaosSeededWorkloadNoAckLoss(t *testing.T) {
	cases := []struct {
		name string
		seed int64
	}{
		{"seed=1", 1},
		{"seed=7", 7},
		{"seed=42", 42},
		{"seed=1792040321762032767", 1792040321762032767},
		{"seed=random", time.Now().UnixNano()},
	}
	const spec = "wal.write:err%0.05;wal.write:short%0.03;wal.sync:err%0.02;wal.write:slow=100us%0.01"
	for _, tc := range cases {
		seed := tc.seed
		t.Run(tc.name, func(t *testing.T) {
			t.Logf("chaos schedule: spec=%q seed=%d", spec, seed)
			dir := filepath.Join(t.TempDir(), "data")
			srv := newQuietServer(t, "8,8", "sum", false)
			srv.Inj = fault.MustParse(spec, seed)
			srv.probeEvery = time.Millisecond // keep probing so transient degradation heals fast
			enableChaosWAL(t, srv, dir)

			const workload = 400
			acked, sent := 0, 0
			for i := 0; i < workload; i++ {
				sent++
				resp, _ := srv.safeDispatch(0, fmt.Sprintf("INS %d %d %d 1", i/5, i%8, (i/3)%8))
				if resp == "OK" {
					acked++
				} else if !strings.HasPrefix(resp, "ERR") {
					t.Fatalf("op %d: non-protocol response %q", i, resp)
				}
				if strings.HasPrefix(resp, "ERR read-only:") {
					// Rejected before reaching storage; let the probe
					// clock advance so the workload keeps exercising it.
					time.Sleep(2 * time.Millisecond)
				}
			}
			if acked == 0 {
				t.Fatal("no op was acknowledged under chaos")
			}
			// Tear down without a final checkpoint: recovery must work
			// from the log alone, exactly as after a crash.
			if err := srv.wal.Close(); err != nil {
				t.Logf("closing chaotic WAL: %v (acceptable under injected sync faults)", err)
			}

			fresh := newQuietServer(t, "8,8", "sum", false)
			enableChaosWAL(t, fresh, dir)
			recovered := chaosQuery(t, fresh)
			if recovered < float64(acked) || recovered > float64(sent) {
				t.Fatalf("recovered SUM = %v, want within [acked=%d, sent=%d]", recovered, acked, sent)
			}
			t.Logf("acked=%d sent=%d recovered=%v", acked, sent, recovered)
			fresh.shutdown()
		})
	}
}

// TestChaosPanicRecovery injects a panic into the dispatch path and
// checks the blast radius: the panicking request answers ERR internal,
// the connection keeps serving, and the cube mutex is not poisoned —
// later mutations and queries on the same connection succeed.
func TestChaosPanicRecovery(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse("serve.dispatch:panic@2", 1)
	addr := serveOn(t, srv)
	c := dial(t, addr)

	if got := c.cmd(t, "INS 1 2 3 5"); got != "OK" {
		t.Fatalf("pre-panic INS -> %q", got)
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); !strings.HasPrefix(got, "ERR internal error") {
		t.Fatalf("panicking request -> %q, want ERR internal error", got)
	}
	if n := metricValue(t, srv, "histserve_panics_recovered_total"); n != 1 {
		t.Fatalf("recovered-panic counter = %d, want 1", n)
	}
	// Same connection, post-panic: both paths of the mutex contract.
	if got := c.cmd(t, "INS 2 2 3 2"); got != "OK" {
		t.Fatalf("post-panic INS -> %q (mutex poisoned?)", got)
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); got != "7" {
		t.Fatalf("post-panic QRY -> %q, want 7", got)
	}
	if got := c.cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

// TestChaosPanicUnderMutexReleasesIt panics inside the every-N
// checkpoint, i.e. under the cube mutex (its write of the staged tail is
// the one segment write that still runs there): the deferred unlock must
// release the mutex while the panic travels up to the serving core's
// barrier, so the request answers ERR internal and the next ones find
// the mutex free. The insert was applied before the checkpoint ran, so
// its outcome is indeterminate; the next commit writes it.
func TestChaosPanicUnderMutexReleasesIt(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Inj = fault.MustParse("wal.write:panic@2", 1)
	if _, err := srv.enableDurability(filepath.Join(t.TempDir(), "data"), wal.Options{Sync: wal.SyncAlways}, 2); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.shutdown)
	c := dial(t, serveOn(t, srv))
	if got := c.cmd(t, "INS 1 2 3 5"); got != "OK" {
		t.Fatalf("pre-panic INS -> %q", got)
	}
	if got := c.cmd(t, "INS 2 2 3 2"); !strings.HasPrefix(got, "ERR internal error") {
		t.Fatalf("INS panicking under the mutex -> %q, want ERR internal error", got)
	}
	if n := metricValue(t, srv, "histserve_panics_recovered_total"); n != 1 {
		t.Fatalf("recovered-panic counter = %d, want 1", n)
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); got != "7" {
		t.Fatalf("post-panic QRY -> %q, want 7 (mutex poisoned?)", got)
	}
	if got := c.cmd(t, "INS 3 2 3 2"); got != "OK" {
		t.Fatalf("post-panic INS -> %q", got)
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); got != "9" {
		t.Fatalf("QRY after the next commit -> %q, want 9", got)
	}
}

// TestChaosFollowerApplyPanicIsContained panics inside a follower's WAL
// write while it commits a shipped record it already applied. The link
// is served by the serving core, so its barrier recovers the panic as it
// would a client's; the session ends, the follower repairs its latched
// log — the applied record becomes durable at its LSN — re-subscribes
// behind that end and converges on the primary.
func TestChaosFollowerApplyPanicIsContained(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	follower := newQuietServer(t, "8,8", "sum", false)
	follower.Inj = fault.MustParse("wal.write:panic@2", 1)
	enableChaosWAL(t, follower, filepath.Join(t.TempDir(), "data"))
	follower.startFollower(paddr)
	t.Cleanup(func() { follower.promote(0) }) // ends the follow loop

	pc := dial(t, paddr)
	// The follower commits what arrives together with one write, so the
	// first record is made to arrive alone: the panic then fires on the
	// commit of the second while it is the newest record. No later record
	// repairs the log, so the follower must before it re-subscribes.
	pc.expect(t, "INS 1 0 0 1", "OK")
	waitUntil(t, 10*time.Second, "first record applied", func() bool { return follower.repl.applied.Load() == 1 })
	pc.expect(t, "INS 2 0 0 1", "OK")
	waitUntil(t, 10*time.Second, "the panicked record made durable", func() bool {
		follower.mu.Lock()
		defer follower.mu.Unlock()
		return follower.wal.ShippedLSN() == 2 // the durable LSN, under -fsync always
	})
	pc.expect(t, "INS 3 0 0 1", "OK")
	waitUntil(t, 10*time.Second, "follower convergence", func() bool { return follower.repl.applied.Load() == 3 })
	if n := metricValue(t, follower, "histserve_panics_recovered_total"); n != 1 {
		t.Fatalf("recovered-panic counter = %d, want 1", n)
	}
	if got := chaosQuery(t, follower); got != 3 {
		t.Fatalf("follower SUM = %v, want 3", got)
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

	c1 := dial(t, addr)
	if got := c1.cmd(t, "INS 1 1 1 1"); got != "OK" {
		t.Fatalf("INS on first connection -> %q", got)
	}
	c2 := dial(t, addr)
	line, err := c2.r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading cap rejection: %v", err)
	}
	if !strings.HasPrefix(line, "ERR server busy") {
		t.Fatalf("over-cap connection -> %q, want ERR server busy", strings.TrimSpace(line))
	}
	if n := metricValue(t, srv, "histserve_connections_rejected_total"); n != 1 {
		t.Fatalf("rejected-connection counter = %d, want 1", n)
	}

	// The surviving connection trips the line-length guard next.
	long := "INS " + strings.Repeat("9", 512)
	if _, err := fmt.Fprintln(c1.conn, long); err != nil {
		t.Fatal(err)
	}
	resp, err := c1.r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading too-long rejection: %v", err)
	}
	if !strings.HasPrefix(resp, "ERR line too long") {
		t.Fatalf("overlong line -> %q, want ERR line too long", strings.TrimSpace(resp))
	}
	if _, err := c1.r.ReadString('\n'); err == nil {
		t.Fatal("connection survived an overlong line; the scanner cannot resynchronise, it must close")
	}

	// With the first connection gone, the server accepts new ones.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := dialOnce(addr)
		if err == nil {
			if _, err := fmt.Fprintln(c3.tcpConn.w, "QRY 0 5 0 0 7 7"); err == nil {
				_ = c3.tcpConn.w.Flush()
				if got, err := c3.tcpConn.r.ReadString('\n'); err == nil && strings.TrimSpace(got) == "1" {
					c3.close()
					return
				}
			}
			c3.close()
		}
		if time.Now().After(deadline) {
			t.Fatal("server kept rejecting connections after the slot freed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

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
	bin := buildHistserve(t)
	dataDir := filepath.Join(t.TempDir(), "data")

	p1 := startHistserve(t, bin,
		"-dims", "8,8", "-op", "sum", "-data-dir", dataDir, "-fsync", "always",
		"-fault-spec", "wal.write:nospace@120+", "-fault-seed", "3",
		"-degraded-probe-every", "250ms")
	conn := dialTCP(t, p1.addr)
	acked, readonlySeen := 0, false
	for i := 0; i < 400; i++ {
		if _, err := fmt.Fprintf(conn.w, "INS %d %d %d 1\n", i/5, i%8, (i/3)%8); err != nil {
			t.Fatal(err)
		}
		if err := conn.w.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		resp = strings.TrimSpace(resp)
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
	if got := query(t, conn, "QRY 0 1000000 0 0 7 7"); got != float64(acked+1) {
		t.Fatalf("degraded query = %v, want acked+nacked = %d", got, acked+1)
	}

	// Pull the plug mid-degradation.
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.waitExit(t, 30*time.Second)

	// A healthy restart recovers every acknowledged record and nothing
	// else, and serves writes again.
	p2 := startHistserve(t, bin, "-dims", "8,8", "-op", "sum", "-data-dir", dataDir, "-fsync", "always")
	conn2 := dialTCP(t, p2.addr)
	if got := query(t, conn2, "QRY 0 1000000 0 0 7 7"); got != float64(acked) {
		t.Fatalf("recovered SUM = %v, want acked=%d", got, acked)
	}
	if _, err := fmt.Fprintln(conn2.w, "INS 999999 0 0 1"); err != nil {
		t.Fatal(err)
	}
	conn2.w.Flush()
	if resp, _ := conn2.r.ReadString('\n'); strings.TrimSpace(resp) != "OK" {
		t.Fatalf("post-recovery INS -> %q", strings.TrimSpace(resp))
	}
	p2.cmd.Process.Kill()
	p2.waitExit(t, 30*time.Second)
}
