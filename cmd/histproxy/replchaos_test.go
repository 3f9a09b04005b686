package main

// Replication-chaos harness: build the real histserve and histproxy
// binaries, run a replicated hot shard (semi-sync primary + WAL-
// shipping follower) behind the proxy, SIGKILL the primary mid-append
// under live pipelined write load and verify the failover contract — no acked
// write is ever lost (the final sum is bounded below by the OK count),
// reads keep answering exact non-PARTIAL totals from the replica
// throughout the outage, and the promoted replica accepts writes
// within the prober's failover interval. This is the `make replchaos`
// acceptance test wired into check.sh and CI; it builds and kills real
// processes and is skipped under -short.

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReplChaosPrimaryKillUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("replication chaos test builds and kills real processes")
	}
	serveBin := buildBinary(t, "histserve", "../histserve")
	proxyBin := buildBinary(t, "histproxy", ".")

	// One replicated hot shard. The primary is semi-sync (-repl-min-acks
	// 1): an INS is OK'd only after the follower has durably appended
	// AND applied it, so promotion can never lose an acked write.
	pdir := filepath.Join(t.TempDir(), "primary-data")
	rdir := filepath.Join(t.TempDir(), "replica-data")
	serveArgs := []string{"-addr", "127.0.0.1:0", "-dims", "8,8", "-op", "sum"}
	primary := startProc(t, serveBin, append(serveArgs,
		"-data-dir", pdir, "-fsync", "always",
		"-repl-min-acks", "1", "-repl-ack-timeout", "5s")...)
	replica := startProc(t, serveBin, append(serveArgs,
		"-data-dir", rdir, "-fsync", "always", "-follow", primary.addr)...)

	spec := fmt.Sprintf("%s|%s=0-", primary.addr, replica.addr)
	proxy := startProc(t, proxyBin,
		"-addr", "127.0.0.1:0", "-dims", "8,8", "-shards", spec,
		"-shard-timeout", "2s", "-request-timeout", "10s",
		"-breaker-threshold", "1", "-breaker-cooldown", "100ms",
		"-probe-every", "100ms", "-hedge-after", "20ms")
	c := chaosDial(t, proxy.addr)

	// Seed through the proxy. Every OK means the follower applied it.
	const seedN = 100
	for i := 0; i < seedN; i++ {
		if got := c.cmd(t, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i/3)%8)); got != "OK" {
			t.Fatalf("seed INS %d -> %q", i, got)
		}
	}
	const qry = "QRY 0 1000000 0 0 7 7"
	if got := c.cmd(t, qry); got != strconv.Itoa(seedN) {
		t.Fatalf("seeded QRY -> %q, want %d", got, seedN)
	}

	// Background writer: hammer appends on its own connection, pipelined
	// at depth 4 — four INS lines per write, which the proxy forwards as
	// one run — so the SIGKILL lands mid-run. It tallies OKs (acked —
	// must survive) and ERRs (indeterminate — each may or may not have
	// landed) line by line, and requires exactly one reply, OK or ERR, for
	// every line of every run, the killed one included: the proxy is
	// alive throughout, so its connection has no excuse to break. The
	// first post-kill OK is the proof that a promoted replica took over
	// the write path.
	const depth = 4
	var (
		tallyMu  sync.Mutex
		okCount  int
		errCount int
	)
	killed := make(chan struct{})
	promotedOK := make(chan struct{})
	stopWriter := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", proxy.addr)
		if err != nil {
			writerDone <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		sawKill, promoted := false, false
		for ts := seedN; ; ts += depth {
			select {
			case <-stopWriter:
				writerDone <- nil
				return
			default:
			}
			if !sawKill {
				select {
				case <-killed:
					sawKill = true
				default:
				}
			}
			var run strings.Builder
			for j := ts; j < ts+depth; j++ {
				fmt.Fprintf(&run, "INS %d %d %d 1\n", j, j%8, (j/3)%8)
			}
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			if _, err := conn.Write([]byte(run.String())); err != nil {
				writerDone <- fmt.Errorf("run at t=%d: write: %w", ts, err)
				return
			}
			for j := 0; j < depth; j++ {
				resp, err := r.ReadString('\n')
				if err != nil {
					writerDone <- fmt.Errorf("run at t=%d: line %d of %d got no reply: %w", ts, j+1, depth, err)
					return
				}
				tallyMu.Lock()
				switch resp = strings.TrimSpace(resp); {
				case resp == "OK":
					okCount++
					if sawKill && !promoted {
						promoted = true
						close(promotedOK)
					}
				case strings.HasPrefix(resp, "ERR"):
					errCount++ // explicit shard-unavailable / timeout reply
				default:
					tallyMu.Unlock()
					writerDone <- fmt.Errorf("run at t=%d: line %d answered %q, want OK or ERR", ts, j+1, resp)
					return
				}
				tallyMu.Unlock()
			}
		}
	}()

	// Let the writer get going, then SIGKILL the primary mid-append.
	time.Sleep(150 * time.Millisecond)
	primary.kill(t)
	close(killed)

	// Reads during the outage: the replica replays the primary's exact
	// op stream, so every answer must be a plain, complete number —
	// never PARTIAL, never an error, never a hang.
	for i := 0; i < 20; i++ {
		got := c.cmd(t, qry)
		if strings.HasPrefix(got, "PARTIAL") || strings.HasPrefix(got, "ERR") {
			t.Fatalf("QRY during outage -> %q; the replica must keep answers exact and complete", got)
		}
		if _, err := strconv.ParseFloat(got, 64); err != nil {
			t.Fatalf("QRY during outage -> non-numeric %q", got)
		}
	}

	// The promoted replica must take writes within the probe interval
	// (plus generous slack for the ROLE poll and PROMOTE round-trips).
	select {
	case <-promotedOK:
	case err := <-writerDone:
		t.Fatalf("writer: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("no write succeeded after the primary SIGKILL: failover never re-pointed the write path")
	}
	close(stopWriter)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	tallyMu.Lock()
	ok, errs := okCount, errCount
	tallyMu.Unlock()

	// Zero acked-write loss: every OK'd append must be in the final sum;
	// every errored one may or may not be (indeterminate), but nothing
	// else can appear.
	final := c.cmd(t, qry)
	sum, err := strconv.ParseFloat(final, 64)
	if err != nil {
		t.Fatalf("final QRY -> %q", final)
	}
	lo, hi := float64(seedN+ok), float64(seedN+ok+errs)
	if sum < lo || sum > hi {
		t.Fatalf("final SUM=%v outside [%v, %v] (ok=%d errs=%d): acked writes lost or phantoms appeared",
			sum, lo, hi, ok, errs)
	}

	// The shard map reflects the takeover: the old replica is primary.
	shards := c.cmd(t, "SHARDS")
	var body strings.Builder
	body.WriteString(shards)
	for !strings.HasSuffix(strings.TrimSpace(body.String()), "END") {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SHARDS body: %v", err)
		}
		body.WriteString(line)
	}
	if !strings.Contains(body.String(), replica.addr+":primary=") {
		t.Fatalf("SHARDS does not show the promoted replica as primary:\n%s", body.String())
	}
	t.Logf("outage: %d acked + %d indeterminate writes, final SUM=%v in [%v, %v]; replica promoted to primary",
		ok, errs, sum, lo, hi)
}
