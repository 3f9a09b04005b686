package histserve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histcube/internal/linetest"
	"histcube/internal/wal"
)

// startReplica builds a durable follower of primaryAddr over its own
// temp directory and returns the server plus its client address.
func startReplica(t *testing.T, dir, primaryAddr string) (*Server, string) {
	t.Helper()
	srv, _ := newDurableServer(t, dir, 0)
	srv.startFollower(primaryAddr)
	return srv, serveOn(t, srv)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// statsField extracts one k=v token from a STATS line.
func statsField(t *testing.T, stats, key string) string {
	t.Helper()
	for _, tok := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return v
		}
	}
	t.Fatalf("STATS %q has no field %s", stats, key)
	return ""
}

func TestReplicaFollowsPrimaryAndAnswersIdentically(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	follower, faddr := startReplica(t, t.TempDir(), paddr)

	pc := linetest.Dial(t, paddr)
	for i := 0; i < 100; i++ {
		expect(t, pc, fmt.Sprintf("INS %d %d %d %g", i/5, i%8, (i/3)%8, float64(i%7)+0.25), "OK")
	}
	// Deletes only ever touch the latest slice (the paper's append-only
	// contract); replication must carry them like inserts.
	for i := 0; i < 20; i++ {
		expect(t, pc, fmt.Sprintf("DEL 19 %d %d %g", i%8, (i/3)%8, 0.25), "OK")
	}
	want := primary.walLastLSN()
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		return follower.repl.applied() == want
	})

	// Identical answers: cube state is a deterministic function of the
	// op stream, so every query must come back bit-identical.
	fc := linetest.Dial(t, faddr)
	for _, q := range []string{
		"QRY 0 100 0 0 7 7",
		"QRY 3 9 1 2 6 6",
		"QRY 0 0 0 0 7 7",
		"QRY 7 19 2 0 5 7",
	} {
		if p, f := pc.Cmd(t, q), fc.Cmd(t, q); p != f {
			t.Fatalf("%s: primary %q != replica %q", q, p, f)
		}
	}
	// And identical cube state in STATS (the op-stream-derived fields;
	// the access counters and replica fields are per-process, not state).
	ps, fs := pc.Cmd(t, "STATS"), fc.Cmd(t, "STATS")
	for _, key := range []string{"slices", "incomplete", "pending", "appended", "ooo"} {
		if p, f := statsField(t, ps, key), statsField(t, fs, key); p != f {
			t.Fatalf("STATS %s: primary %q != replica %q", key, p, f)
		}
	}
	if statsField(t, fs, "replica") != "1" {
		t.Fatalf("replica STATS missing replica=1: %q", fs)
	}
	if got := statsField(t, fs, "replica_applied_lsn"); got != fmt.Sprint(want) {
		t.Fatalf("replica_applied_lsn = %s, want %d", got, want)
	}

	// Replicas reject client mutations — their cube is written only by
	// the shipped stream.
	if got := fc.Cmd(t, "INS 1000 0 0 1"); !strings.HasPrefix(got, "ERR read-only replica") {
		t.Fatalf("replica INS -> %q", got)
	}
	// Role probes on both sides.
	if got := fc.Cmd(t, "ROLE"); !strings.HasPrefix(got, "OK role=replica applied_lsn=") ||
		!strings.Contains(got, "primary="+paddr) || !strings.HasSuffix(got, " synced=1 op=sum") {
		t.Fatalf("replica ROLE -> %q", got)
	}
	if got := pc.Cmd(t, "ROLE"); !strings.HasPrefix(got, "OK role=primary") ||
		!strings.Contains(got, "followers=1") || !strings.HasSuffix(got, " min_acks=0 op=sum") {
		t.Fatalf("primary ROLE -> %q", got)
	}
}

// TestReplicaBarrierIsItsLocalCommit pins the read barrier on a replica:
// a query there waits for its own log's commit of what it read, never
// for follower acks. A replica has no followers, so with -repl-min-acks
// set (as on a member started to take over as a semi-sync primary) an
// ack wait could only time out.
func TestReplicaBarrierIsItsLocalCommit(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	follower, _ := newDurableServer(t, t.TempDir(), 0)
	follower.cfg.ReplMinAcks, follower.cfg.ReplAckTimeout = 1, 50*time.Millisecond
	follower.startFollower(paddr)
	faddr := serveOn(t, follower)
	expect(t, linetest.Dial(t, paddr), "INS 1 0 0 5", "OK")
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return follower.repl.applied() == 1 })
	fc := linetest.Dial(t, faddr)
	// A mutation admission refuses is not traced, as at parse time.
	if got := fc.Cmd(t, "INS 2 0 0 1"); !strings.HasPrefix(got, "ERR read-only replica") {
		t.Fatalf("replica INS -> %q", got)
	}
	if n := len(follower.Recent.Entries()); n != 0 {
		t.Fatalf("a refused INS left %d traces", n)
	}
	expect(t, fc, "QRY 0 10 0 0 7 7", "5")
	if n := follower.stage[stageReplAckWait].Count(); n != 0 {
		t.Fatalf("a replica's query waited for acks %d times", n)
	}
	// Promoted with no follower of its own, it still serves the log it
	// inherited: that log counts as committed, so no ack is awaited.
	if got := follower.promote(1); !strings.HasPrefix(got, "OK role=primary") {
		t.Fatalf("PROMOTE -> %q", got)
	}
	expect(t, fc, "QRY 0 10 0 0 7 7", "5")
	if n := follower.stage[stageReplAckWait].Count(); n != 0 {
		t.Fatalf("the promoted member's query waited for acks %d times", n)
	}
}

// TestSemiSyncReadOutlivesItsFollower pins the hub's quorum frontier on
// a primary with -repl-min-acks 1: a query of an empty log needs no ack
// even with no follower attached, and a record the follower acknowledged
// stays committed after the follower leaves, so a query that counts it
// answers at once instead of waiting out the ack timeout.
func TestSemiSyncReadOutlivesItsFollower(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	primary.cfg.ReplMinAcks, primary.cfg.ReplAckTimeout = 1, 5*time.Second
	paddr := serveOn(t, primary)
	qc := linetest.Dial(t, paddr)
	expect(t, qc, "QRY 0 10 0 0 7 7", "0")

	// A hand-driven follower: it acknowledges the one record, then goes.
	fconn, fr := rawConn(t, paddr)
	if _, err := io.WriteString(fconn, "REPLICATE FROM 1\n"); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, fr, 1)[0]; got != "OK from=1 last=0" {
		t.Fatalf("REPLICATE -> %q", got)
	}
	wconn, wr := rawConn(t, paddr)
	if _, err := io.WriteString(wconn, "INS 1 0 0 5\n"); err != nil {
		t.Fatal(err)
	}
	for l := ""; !strings.HasPrefix(l, "REC 1 "); { // PINGs may come first
		l = readLines(t, fr, 1)[0]
	}
	if _, err := io.WriteString(fconn, "ACK 1\n"); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, wr, 1)[0]; got != "OK" {
		t.Fatalf("semi-sync INS -> %q", got)
	}
	fconn.Close()
	waitUntil(t, 5*time.Second, "the follower's departure", func() bool { return primary.hub.Followers() == 0 })

	waits := primary.stage[stageReplAckWait].Count()
	start := time.Now()
	expect(t, qc, "QRY 0 10 0 0 7 7", "5")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the query of an acked record took %s", d)
	}
	if n := primary.stage[stageReplAckWait].Count(); n != waits {
		t.Fatalf("the query of an acked record waited for acks (%d waits, was %d)", n, waits)
	}
}

func TestReplicaColdStartBootstrapsFromSnapshot(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	pc := linetest.Dial(t, paddr)
	total := 0.0
	for i := 0; i < 80; i++ {
		v := float64(i%9) + 1
		expect(t, pc, fmt.Sprintf("INS %d %d %d %g", i/4, i%8, (i/2)%8, v), "OK")
		total += v
	}
	// Checkpoint rotates and prunes the pre-checkpoint segments, so a
	// cold follower asking for LSN 1 is behind the retention horizon
	// and must be served a snapshot.
	expect(t, pc, "CHECKPOINT", "OK 80")
	for i := 0; i < 20; i++ {
		expect(t, pc, fmt.Sprintf("INS %d 0 1 2", 100+i), "OK")
		total += 2
	}

	fdir := t.TempDir()
	follower, faddr := startReplica(t, fdir, paddr)
	waitUntil(t, 5*time.Second, "snapshot bootstrap + catch-up", func() bool {
		return follower.repl.applied() == 100 && follower.repl.synced.Load()
	})
	fc := linetest.Dial(t, faddr)
	expect(t, fc, "QRY 0 1000 0 0 7 7", fmt.Sprintf("%g", total))
	if got := follower.walLastLSN(); got != 100 {
		t.Fatalf("follower log ends at LSN %d, want 100 (primary positions adopted)", got)
	}

	// The stream continues live after the bootstrap on the same link.
	expect(t, pc, "INS 200 0 0 5", "OK")
	waitUntil(t, 5*time.Second, "live record after bootstrap", func() bool {
		return follower.repl.applied() == 101
	})
	expect(t, fc, "QRY 0 1000 0 0 7 7", fmt.Sprintf("%g", total+5))

	// The installed state is durable: a restart over the follower's own
	// directory recovers to the same answers without the primary.
	follower.Close()
	restarted, _ := newDurableServer(t, fdir, 0)
	rc := linetest.Dial(t, serveOn(t, restarted))
	expect(t, rc, "QRY 0 1000 0 0 7 7", fmt.Sprintf("%g", total+5))
	restarted.Close()
}

// TestReplicaAppliedLSNIsItsCommitFrontier pins the follower's one
// position: ROLE's applied_lsn, read off the log's commit frontier,
// equals what the follower committed — the end of its own log, the LSN
// its ACKs carried to the primary, and the records its cube answers for
// — after a SNAP install, after catching up on the stream, and after a
// reconnect over its own directory.
func TestReplicaAppliedLSNIsItsCommitFrontier(t *testing.T) {
	pdir := t.TempDir()
	primary, _ := newDurableServer(t, pdir, 0)
	paddr := serveOn(t, primary)
	pc := linetest.Dial(t, paddr)
	for i := 0; i < 80; i++ {
		expect(t, pc, fmt.Sprintf("INS %d %d %d 1", i/4, i%8, (i/2)%8), "OK")
	}
	expect(t, pc, "CHECKPOINT", "OK 80")
	for i := 0; i < 20; i++ {
		expect(t, pc, fmt.Sprintf("INS %d 0 1 2", 100+i), "OK")
	}
	ckpt, err := os.ReadFile(filepath.Join(pdir, fmt.Sprintf("checkpoint-%016x.ckpt", 80)))
	if err != nil {
		t.Fatal(err)
	}
	acked := func() (top uint64) {
		primary.hub.mu.Lock()
		defer primary.hub.mu.Unlock()
		for _, a := range primary.hub.acked {
			top = max(top, a)
		}
		return top
	}
	position := func(what string, follower *Server, want uint64, sum float64) {
		t.Helper()
		if got := follower.roleLine(); !strings.HasPrefix(got, fmt.Sprintf("OK role=replica applied_lsn=%d ", want)) {
			t.Errorf("%s: ROLE = %q, want applied_lsn=%d", what, got, want)
		}
		if got := follower.wal.LastLSN(); got != want {
			t.Errorf("%s: the follower's log ends at %d, want %d", what, got, want)
		}
		if got := chaosQuery(t, follower); got != sum {
			t.Errorf("%s: the follower answers %v, want %v", what, got, sum)
		}
	}

	// A session that only installs a snapshot: the position is its LSN.
	var snap strings.Builder
	fmt.Fprintf(&snap, "SNAP lsn=80 size=%d\n", len(ckpt))
	for off := 0; off < len(ckpt); off += snapChunk {
		fmt.Fprintln(&snap, base64.StdEncoding.EncodeToString(ckpt[off:min(off+snapChunk, len(ckpt))]))
	}
	snap.WriteString("ENDSNAP\n")
	fdir := t.TempDir()
	follower, _ := newDurableServer(t, fdir, 0)
	r := &replState{primaryAddr: newFakePrimary(t, snap.String()), log: follower.wal, stop: make(chan struct{})}
	follower.repl, follower.link.Log = r, follower.Log
	if err := follower.followOnce(r); err != nil {
		t.Fatalf("snapshot session: %v", err)
	}
	position("after the SNAP install", follower, 80, 80)

	// Catch-up on the real primary's stream from there.
	follower.startFollower(paddr)
	waitUntil(t, 5*time.Second, "the follower's ack of LSN 100", func() bool { return acked() == 100 })
	position("after catch-up", follower, 100, 120)

	// Reconnect: the follower goes away, misses five records, and comes
	// back over its own directory.
	follower.repl.stopOnce.Do(func() { close(follower.repl.stop) })
	follower.Close()
	for i := 0; i < 5; i++ {
		expect(t, pc, fmt.Sprintf("INS %d 1 1 3", 200+i), "OK")
	}
	back, _ := newDurableServer(t, fdir, 0)
	back.startFollower(paddr)
	t.Cleanup(func() { back.repl.stopOnce.Do(func() { close(back.repl.stop) }) })
	waitUntil(t, 5*time.Second, "the follower's ack of LSN 105", func() bool { return acked() == 105 })
	position("after a reconnect", back, 105, 135)
}

// TestReplicaSyncedOnlyAtThePrimarysEnd: a follower on an empty
// directory says synced=0 in ROLE until its applied LSN reaches the end
// the primary reported, not as soon as it holds a SNAP or a REC — both
// are short of that end while it catches up, and the proxy's read rule
// lets a synced follower answer reads.
func TestReplicaSyncedOnlyAtThePrimarysEnd(t *testing.T) {
	pdir := t.TempDir()
	primary, _ := newDurableServer(t, pdir, 0)
	paddr := serveOn(t, primary)
	pc := linetest.Dial(t, paddr)
	for i := 0; i < 80; i++ {
		expect(t, pc, fmt.Sprintf("INS %d %d %d 1", i/4, i%8, (i/2)%8), "OK")
	}
	expect(t, pc, "CHECKPOINT", "OK 80")
	var recs strings.Builder
	for i := 0; i < 20; i++ {
		expect(t, pc, fmt.Sprintf("INS %d 0 1 2", 100+i), "OK")
		if i < 10 {
			fmt.Fprintf(&recs, "REC %d 1 %d 0 1 2\n", 81+i, 100+i)
		}
	}
	expect(t, pc, "ROLE", "OK role=primary last_lsn=100 followers=0 min_acks=0 op=sum")
	ckpt, err := os.ReadFile(filepath.Join(pdir, fmt.Sprintf("checkpoint-%016x.ckpt", 80)))
	if err != nil {
		t.Fatal(err)
	}
	var snap strings.Builder
	fmt.Fprintf(&snap, "SNAP lsn=80 size=%d\n", len(ckpt))
	for off := 0; off < len(ckpt); off += snapChunk {
		fmt.Fprintln(&snap, base64.StdEncoding.EncodeToString(ckpt[off:min(off+snapChunk, len(ckpt))]))
	}
	snap.WriteString("ENDSNAP\n")

	// The primary's two sessions, played by hand: the SNAP install, then
	// half of the tail after the checkpoint.
	follower, _ := newDurableServer(t, t.TempDir(), 0)
	r := &replState{primaryAddr: newFakePrimary(t, snap.String()), log: follower.wal, stop: make(chan struct{})}
	follower.repl, follower.link.Log = r, follower.Log
	if err := follower.followOnce(r); err != nil {
		t.Fatalf("snapshot session: %v", err)
	}
	if got := follower.roleLine(); !strings.HasPrefix(got, "OK role=replica applied_lsn=80 ") || !strings.HasSuffix(got, " synced=0 op=sum") {
		t.Fatalf("after the SNAP install ROLE = %q, want applied_lsn=80 ... synced=0", got)
	}
	r.primaryAddr = newFakePrimary(t, "OK from=81 last=100\n"+recs.String())
	_ = follower.followOnce(r) // ends when the fake primary closes
	if got, want := follower.roleLine(), "OK role=replica applied_lsn=90 lag_lsn=10 primary="+r.primaryAddr+" synced=0 op=sum"; got != want {
		t.Fatalf("halfway through the tail ROLE = %q, want %q", got, want)
	}

	// The real primary ships the rest: every ROLE short of its end says
	// synced=0, and the one at its end synced=1.
	follower.startFollower(paddr)
	t.Cleanup(func() { follower.repl.stopOnce.Do(func() { close(follower.repl.stop) }) })
	want := "OK role=replica applied_lsn=100 lag_lsn=0 primary=" + paddr + " synced=1 op=sum"
	waitUntil(t, 5*time.Second, "the follower at the primary's end", func() bool {
		got := follower.roleLine()
		if !strings.HasPrefix(got, "OK role=replica applied_lsn=100 ") && strings.HasSuffix(got, " synced=1 op=sum") {
			t.Fatalf("ROLE = %q: synced short of the primary's last_lsn=100", got)
		}
		return got == want
	})
}

// TestSnapShipsTheNewestCheckpoint reads a bootstrap off the wire: a
// follower behind the retention horizon is sent the newest checkpoint
// as it lies on disk, exact at its own LSN, and then the records after
// it — not a fresh snapshot at the log's end.
func TestSnapShipsTheNewestCheckpoint(t *testing.T) {
	pdir := t.TempDir()
	primary, _ := newDurableServer(t, pdir, 0)
	paddr := serveOn(t, primary)
	pc := linetest.Dial(t, paddr)
	for i := 0; i < 80; i++ {
		expect(t, pc, fmt.Sprintf("INS %d %d %d 1", i/4, i%8, (i/2)%8), "OK")
	}
	expect(t, pc, "CHECKPOINT", "OK 80")
	for i := 0; i < 20; i++ {
		expect(t, pc, fmt.Sprintf("INS %d 0 1 2", 100+i), "OK")
	}
	ckpt, err := os.ReadFile(filepath.Join(pdir, fmt.Sprintf("checkpoint-%016x.ckpt", 80)))
	if err != nil {
		t.Fatal(err)
	}

	conn, r := rawConn(t, paddr)
	if _, err := io.WriteString(conn, "REPLICATE FROM 1\n"); err != nil {
		t.Fatal(err)
	}
	if got, want := readLines(t, r, 1)[0], fmt.Sprintf("SNAP lsn=80 size=%d", len(ckpt)); got != want {
		t.Fatalf("REPLICATE FROM 1 -> %q, want %q", got, want)
	}
	var payload []byte
	for {
		line := readLines(t, r, 1)[0]
		if line == "ENDSNAP" {
			break
		}
		chunk, err := base64.StdEncoding.DecodeString(line)
		if err != nil {
			t.Fatalf("snapshot line %q: %v", line, err)
		}
		payload = append(payload, chunk...)
	}
	if !bytes.Equal(payload, ckpt) {
		t.Fatalf("SNAP shipped %d bytes that are not the checkpoint file's %d", len(payload), len(ckpt))
	}
	want := []string{"OK from=81 last=100"}
	for lsn := 81; lsn <= 100; lsn++ {
		want = append(want, fmt.Sprintf("REC %d 1 %d 0 1 2", lsn, 100+lsn-81))
	}
	if got := readLines(t, r, len(want)); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("after the snapshot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestReplicaBootstrapsUnderCheckpointLoad starts a fresh follower
// while a primary checkpoints every 50 records under concurrent
// inserts, so the SNAP it is sent can be pruned again before it
// re-subscribes. It must bootstrap, catch up and answer a seeded query
// pool bit-identically to the primary, and again after a restart over
// its own directory.
func TestReplicaBootstrapsUnderCheckpointLoad(t *testing.T) {
	primary := newQuietServer(t, "8,8", "sum", true)
	if _, err := primary.enableDurability(t.TempDir(), wal.Options{Sync: wal.SyncNever}, 50); err != nil {
		t.Fatal(err)
	}
	paddr := serveOn(t, primary)

	const writers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		c := linetest.Dial(t, paddr)
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				line := fmt.Sprintf("INS %d %d %d %d", i/8, rng.Intn(8), rng.Intn(8), rng.Intn(9)+1)
				if _, err := fmt.Fprintln(c.Conn, line); err != nil {
					t.Error(err)
					return
				}
				if resp, err := c.R.ReadString('\n'); err != nil || resp != "OK\n" {
					t.Errorf("%s -> %q, %v", line, resp, err)
					return
				}
			}
		}()
	}
	checkpoints := func() int64 { return linetest.MetricValue(t, primary.Reg, "histcube_wal_checkpoints_total") }
	waitUntil(t, 20*time.Second, "3 checkpoints on the primary", func() bool { return checkpoints() >= 3 })

	fdir := t.TempDir()
	follower, faddr := startReplica(t, fdir, paddr)
	waitUntil(t, 20*time.Second, "a bootstrap under load", func() bool { return follower.repl.applied() > 0 })
	seen := checkpoints()
	waitUntil(t, 20*time.Second, "3 more checkpoints", func() bool { return checkpoints() >= seen+3 })
	stop.Store(true)
	wg.Wait()
	want := primary.walLastLSN()
	waitUntil(t, 20*time.Second, "follower catch-up", func() bool { return follower.repl.applied() == want })

	queries := make([]string, 40)
	rng := rand.New(rand.NewSource(7))
	for i := range queries {
		lo1, lo2 := rng.Intn(8), rng.Intn(8)
		tlo := rng.Intn(int(want/8) + 1)
		queries[i] = fmt.Sprintf("QRY %d %d %d %d %d %d", tlo, tlo+rng.Intn(200), lo1, lo2, lo1+rng.Intn(8-lo1), lo2+rng.Intn(8-lo2))
	}
	pc, fc := linetest.Dial(t, paddr), linetest.Dial(t, faddr)
	for _, q := range queries {
		if p, f := pc.Cmd(t, q), fc.Cmd(t, q); p != f {
			t.Fatalf("%s: primary %q != follower %q", q, p, f)
		}
	}

	follower.Close()
	restarted, _ := newDurableServer(t, fdir, 0)
	defer restarted.Close()
	rc := linetest.Dial(t, serveOn(t, restarted))
	for _, q := range queries {
		if p, f := pc.Cmd(t, q), rc.Cmd(t, q); p != f {
			t.Fatalf("after restart, %s: primary %q != follower %q", q, p, f)
		}
	}
}

func TestPromotionFencingAndTakeover(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	follower, faddr := startReplica(t, t.TempDir(), paddr)
	pc := linetest.Dial(t, paddr)
	for i := 0; i < 50; i++ {
		expect(t, pc, fmt.Sprintf("INS %d 0 0 1", i), "OK")
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		return follower.repl.applied() == 50
	})

	fc := linetest.Dial(t, faddr)
	// A fence above the applied position means acked writes exist that
	// this replica never received: promotion must refuse.
	if got := fc.Cmd(t, "PROMOTE 60"); !strings.HasPrefix(got, "ERR promotion fenced") {
		t.Fatalf("fenced PROMOTE -> %q", got)
	}
	if !follower.isReplica() {
		t.Fatal("refused promotion still flipped the role")
	}
	// At the fence: the replica holds everything acked, take over.
	if got := fc.Cmd(t, "PROMOTE 50"); !strings.HasPrefix(got, "OK role=primary last_lsn=50") {
		t.Fatalf("PROMOTE -> %q", got)
	}
	// Idempotent for a retrying proxy.
	if got := fc.Cmd(t, "PROMOTE 50"); !strings.HasPrefix(got, "OK role=primary") {
		t.Fatalf("repeated PROMOTE -> %q", got)
	}
	// The promoted server accepts writes and extends the same log.
	expect(t, fc, "INS 1000 2 2 7", "OK")
	if got := follower.walLastLSN(); got != 51 {
		t.Fatalf("promoted log ends at %d, want 51", got)
	}
	expect(t, fc, "QRY 1000 1000 0 0 7 7", "7")
	if got := fc.Cmd(t, "ROLE"); !strings.HasPrefix(got, "OK role=primary") {
		t.Fatalf("promoted ROLE -> %q", got)
	}
}

func TestSemiSyncHoldsAckUntilFollowerApplies(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	primary.cfg.ReplMinAcks = 1
	primary.cfg.ReplAckTimeout = 300 * time.Millisecond
	paddr := serveOn(t, primary)
	pc := linetest.Dial(t, paddr)

	// No follower connected: the write lands locally but the OK cannot
	// be given — the client learns the write is indeterminate.
	if got := pc.Cmd(t, "INS 1 0 0 1"); !strings.Contains(got, "replication timeout") {
		t.Fatalf("semi-sync INS without followers -> %q", got)
	}

	follower, _ := startReplica(t, t.TempDir(), paddr)
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		return follower.repl.applied() == 1
	})
	// With a live follower the ack arrives and the OK goes out.
	expect(t, pc, "INS 2 0 0 1", "OK")
	if follower.repl.applied() != 2 && !waitApplied(follower, 2) {
		t.Fatal("acked write not applied on the follower")
	}
}

// waitApplied polls briefly for the follower to reach lsn.
func waitApplied(s *Server, lsn uint64) bool {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.repl.applied() >= lsn {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// TestRestartedSemiSyncPrimaryCommitsItsTailOnceHeld: a -repl-min-acks 1
// primary restarted on its data directory does not count the tail it
// recovered as committed. With no follower attached a query over it
// answers the replication timeout within -repl-ack-timeout; once a
// follower holds the tail, the same query answers the value.
func TestRestartedSemiSyncPrimaryCommitsItsTailOnceHeld(t *testing.T) {
	dir := t.TempDir()
	first, _ := newDurableServer(t, dir, 0)
	c := linetest.Dial(t, serveOn(t, first))
	for i := 0; i < 5; i++ {
		expect(t, c, fmt.Sprintf("INS %d %d 0 2", i, i%8), "OK")
	}
	first.Close()

	const ackTimeout = 300 * time.Millisecond
	primary, res := newDurableServer(t, dir, 0)
	if res.CheckpointLSN != 5 {
		t.Fatalf("restart recovery = %+v, want the final checkpoint at LSN 5", res)
	}
	primary.cfg.ReplMinAcks, primary.cfg.ReplAckTimeout = 1, ackTimeout
	paddr := serveOn(t, primary)
	qc := linetest.Dial(t, paddr)
	start := time.Now()
	if got := qc.Cmd(t, "QRY 0 100 0 0 7 7"); !strings.HasPrefix(got, "ERR replication timeout") ||
		strings.Contains(got, "treat the write") {
		t.Fatalf("QRY of the recovered tail with no follower = %q, want the replication timeout worded for a read", got)
	}
	if d := time.Since(start); d < ackTimeout || d > ackTimeout+time.Second {
		t.Fatalf("the timeout answered after %s, want -repl-ack-timeout (%s)", d, ackTimeout)
	}

	follower, _ := startReplica(t, t.TempDir(), paddr)
	waitUntil(t, 5*time.Second, "the follower to hold the tail", func() bool {
		return follower.repl.applied() == 5 && follower.repl.synced.Load()
	})
	expect(t, qc, "QRY 0 100 0 0 7 7", "10")
}
