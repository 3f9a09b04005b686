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
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
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
		"-breaker-threshold", "1",
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
	// at depth 4 — three INS lines and a QRY per write, which the proxy
	// serves as one unit, one batch on the primary's connection — so the
	// SIGKILL lands in a mixed unit. It tallies OKs (acked — must survive)
	// and ERRs (indeterminate — each may or may not have landed) line by
	// line, and requires exactly one reply for every line of every unit,
	// the killed one included: the proxy is alive throughout, so its
	// connection has no excuse to break. The unit's QRY is a read: killed
	// unit or not, it must answer a plain number that holds every write
	// acked before it and nothing that was not sent before it. (One
	// exception, in a broken unit only: a leg re-sent after the break may
	// find the INS behind it applied — the one the client is told is
	// indeterminate.) The first post-kill OK is the proof that a promoted
	// replica took over the write path.
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
		for ts := seedN; ; ts += 3 {
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
			ins := func(j int) string { return fmt.Sprintf("INS %d %d %d 1", j, j%8, (j/3)%8) }
			unit := []string{ins(ts), ins(ts + 1), qry, ins(ts + 2)}
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			if _, err := conn.Write([]byte(strings.Join(unit, "\n") + "\n")); err != nil {
				writerDone <- fmt.Errorf("unit at t=%d: write: %w", ts, err)
				return
			}
			// ts+2 facts were sent before the unit's query, okCount of them acked.
			var read string
			lo, hi := 0, ts+2
			for j, line := range unit {
				resp, err := r.ReadString('\n')
				if err != nil {
					writerDone <- fmt.Errorf("unit at t=%d: line %d of %d got no reply: %w", ts, j+1, len(unit), err)
					return
				}
				tallyMu.Lock()
				switch resp = strings.TrimSpace(resp); {
				case line == qry:
					read, lo = resp, seedN+okCount
				case resp == "OK":
					okCount++
					if sawKill && !promoted {
						promoted = true
						close(promotedOK)
					}
				case strings.HasPrefix(resp, "ERR"):
					errCount++ // explicit shard-unavailable / timeout reply
					if read != "" {
						hi++ // the indeterminate INS behind the query: a re-sent leg may see it
					}
				default:
					tallyMu.Unlock()
					writerDone <- fmt.Errorf("unit at t=%d: line %d answered %q, want OK or ERR", ts, j+1, resp)
					return
				}
				tallyMu.Unlock()
			}
			if sum, err := strconv.ParseFloat(read, 64); err != nil || sum < float64(lo) || sum > float64(hi) {
				writerDone <- fmt.Errorf("unit at t=%d: QRY answered %q, want a plain number in [%d, %d]", ts, read, lo, hi)
				return
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

var chaosMetricsRE = regexp.MustCompile(`msg="metrics listening" addr=([^ ]+)`)

// scrape reads one series off a child's /metrics listener (started with
// -metrics 127.0.0.1:0) by name.
func (p *chaosProc) scrape(t *testing.T, series string) float64 {
	t.Helper()
	var addr string
	for _, line := range p.stderr {
		if m := chaosMetricsRE.FindStringSubmatch(line); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("no metrics listener in the child's log:\n%s", strings.Join(p.stderr, "\n"))
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("%s has no series %s", addr, series)
	return 0
}

// TestReplChaosReadsSkipFollowersOutsideTheAckQuorum is the read rule
// against the real binaries: a primary with two followers and
// -repl-min-acks 1 acks a write once one follower holds it, so the
// other may lack it. After a pipelined load of inserts and queries
// through the proxy — hedging after 1 ms, so a follower would get legs
// at the first chance — neither follower has served one QRY, while both
// hold every write, and the primary served every leg.
func TestReplChaosReadsSkipFollowersOutsideTheAckQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	serveBin := buildBinary(t, "histserve", "../histserve")
	proxyBin := buildBinary(t, "histproxy", ".")
	serveArgs := []string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-dims", "8,8", "-op", "sum", "-fsync", "always"}
	primary := startProc(t, serveBin, append(serveArgs, "-data-dir", filepath.Join(t.TempDir(), "p"),
		"-repl-min-acks", "1", "-repl-ack-timeout", "5s")...)
	var followers []*chaosProc
	for i := 0; i < 2; i++ {
		followers = append(followers, startProc(t, serveBin, append(serveArgs,
			"-data-dir", filepath.Join(t.TempDir(), fmt.Sprint("f", i)), "-follow", primary.addr)...))
	}
	pc := chaosDial(t, primary.addr)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(pc.cmd(t, "ROLE"), " followers=2 min_acks=1") {
		if time.Now().After(deadline) {
			t.Fatal("the followers never connected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	proxy := startProc(t, proxyBin, "-addr", "127.0.0.1:0", "-dims", "8,8",
		"-shards", fmt.Sprintf("%s|%s|%s=0-", primary.addr, followers[0].addr, followers[1].addr),
		"-probe-every", "100ms", "-hedge-after", "1ms")
	c := chaosDial(t, proxy.addr)

	// Each round is a window of two inserts, then a window of two
	// queries: a batch of legs alone takes the read path, which is where a
	// follower could be chosen.
	const windows = 100
	const qry = "QRY 0 1000000 0 0 7 7"
	for w := 0; w < windows; w++ {
		sum := fmt.Sprint(2 * (w + 1))
		for _, unit := range [][2]string{
			{fmt.Sprintf("INS %d %d 0 1\nINS %d 0 %d 1\n", 2*w, w%8, 2*w+1, w%8), "OK"},
			{qry + "\n" + qry + "\n", sum},
		} {
			c.conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.WriteString(c.conn, unit[0]); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 2; j++ {
				got, err := c.r.ReadString('\n')
				if err != nil || strings.TrimSpace(got) != unit[1] {
					t.Fatalf("round %d: reply %d to %q = %q, %v; want %q", w, j, unit[0], got, err, unit[1])
				}
			}
		}
	}
	const qrySeries = `histserve_request_seconds_count{cmd="QRY"}`
	for i, f := range followers {
		fc := chaosDial(t, f.addr)
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(fc.cmd(t, "ROLE"), fmt.Sprintf(" applied_lsn=%d ", 2*windows)) {
			if time.Now().After(deadline) {
				t.Fatalf("follower %d never applied the %d writes", i, 2*windows)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if n := f.scrape(t, qrySeries); n != 0 {
			t.Errorf("follower %d served %v QRY legs with -repl-min-acks 1 below its 2 followers", i, n)
		}
	}
	if n := primary.scrape(t, qrySeries); n != 2*windows {
		t.Errorf("the primary served %v QRY legs, want all %d", n, 2*windows)
	}
}
