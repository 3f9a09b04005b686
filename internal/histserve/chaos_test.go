package histserve

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
func enableChaosWAL(t *testing.T, srv *Server, dir string) {
	t.Helper()
	if _, err := srv.enableDurability(dir, wal.Options{Sync: wal.SyncAlways}, 0); err != nil {
		t.Fatalf("enableDurability: %v", err)
	}
}

// chaosQuery runs a full-range query through dispatch and parses the
// SUM (every chaos INS has value 1, so SUM counts applied records).
func chaosQuery(t *testing.T, srv *Server) float64 {
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
	srv.cfg.DegradedProbeEvery = 50 * time.Millisecond
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
	srv.Close()
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
			srv.cfg.DegradedProbeEvery = time.Millisecond // keep probing so transient degradation heals fast
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
			fresh.Close()
		})
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
	t.Cleanup(srv.Close)
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
	waitUntil(t, 10*time.Second, "first record applied", func() bool { return follower.repl.applied() == 1 })
	pc.expect(t, "INS 2 0 0 1", "OK")
	waitUntil(t, 10*time.Second, "the panicked record made durable", func() bool {
		follower.mu.Lock()
		defer follower.mu.Unlock()
		return follower.wal.ShippedLSN() == 2 // the durable LSN, under -fsync always
	})
	pc.expect(t, "INS 3 0 0 1", "OK")
	waitUntil(t, 10*time.Second, "follower convergence", func() bool { return follower.repl.applied() == 3 })
	if n := metricValue(t, follower, "histserve_panics_recovered_total"); n != 1 {
		t.Fatalf("recovered-panic counter = %d, want 1", n)
	}
	if got := chaosQuery(t, follower); got != 3 {
		t.Fatalf("follower SUM = %v, want 3", got)
	}
}
