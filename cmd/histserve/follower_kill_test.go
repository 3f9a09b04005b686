package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"histcube/internal/linetest"
)

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

// TestFollowerKilledBetweenStageAndCommit SIGKILLs a real follower
// whose batch is staged and applied but parked in its fsync. Whatever
// prefix of the batch reached the disk, the restarted follower must
// re-subscribe behind it and end up answering exactly like the primary.
func TestFollowerKilledBetweenStageAndCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-injection test builds and kills real processes")
	}
	bin := buildHistserve(t)
	base := []string{"-dims", "8,8", "-op", "sum", "-fsync", "always", "-checkpoint-every", "0"}
	primary := startHistserve(t, bin, append(base, "-data-dir", filepath.Join(t.TempDir(), "primary"))...)
	defer primary.cmd.Process.Kill()
	fdir := filepath.Join(t.TempDir(), "follower")
	fargs := append(base, "-data-dir", fdir, "-follow", primary.addr)

	pc := linetest.Dial(t, primary.addr)
	send := func(from, n int) {
		t.Helper()
		var batch strings.Builder
		for i := from; i < from+n; i++ {
			fmt.Fprintf(&batch, "INS %d %d %d %g\n", i/4, i%8, (i/3)%8, float64(i%7)+0.125)
		}
		if _, err := io.WriteString(pc.Conn, batch.String()); err != nil { // one write: one group commit, shipped together
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if resp, err := pc.R.ReadString('\n'); err != nil || strings.TrimSpace(resp) != "OK" {
				t.Fatalf("insert %d: %q %v", from+i, resp, err)
			}
		}
	}
	awaitRole := func(c *linetest.Client, want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp := c.Cmd(t, "ROLE")
			if strings.Contains(resp, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("ROLE = %q, want %s", resp, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: a healthy follower commits and ACKs 40 records.
	const acked, burst = 40, 16
	f1 := startHistserve(t, bin, fargs...)
	send(0, acked)
	awaitRole(linetest.Dial(t, f1.addr), fmt.Sprintf("applied_lsn=%d ", acked))
	f1.cmd.Process.Signal(syscall.SIGTERM)
	if stderr, err := f1.waitExit(t, 30*time.Second); err != nil {
		t.Fatalf("follower shutdown: %v\n%s", err, stderr)
	}

	// Phase 2: every fsync of the restarted follower stalls. The burst
	// is staged and applied — STATS counts it — but never committed, so
	// a query, which would count it, gets no answer.
	f2 := startHistserve(t, bin, append(fargs, "-fault-spec", "wal.sync:slow=1h")...)
	fc := linetest.Dial(t, f2.addr)
	appended := func() int {
		t.Helper()
		n, err := strconv.Atoi(statsField(t, fc.Cmd(t, "STATS"), "appended"))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := appended()
	send(acked, burst)
	deadline := time.Now().Add(10 * time.Second)
	for appended() != before+burst {
		if time.Now().After(deadline) {
			t.Fatalf("follower STATS appended=%d, want %d: the burst must be staged while its commit is stalled", appended(), before+burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	awaitRole(fc, fmt.Sprintf("applied_lsn=%d ", acked)) // staged is not applied_lsn: nothing was ACKed
	const all = "QRY 0 100000 0 0 7 7"
	if _, err := fmt.Fprintln(fc.Conn, all); err != nil {
		t.Fatal(err)
	}
	answered := make(chan string, 1)
	go func(r *bufio.Reader) {
		resp, _ := r.ReadString('\n')
		answered <- resp
	}(fc.R)
	select {
	case resp := <-answered:
		t.Fatalf("follower answered %q while the burst it counts is not committed", strings.TrimSpace(resp))
	case <-time.After(300 * time.Millisecond):
	}
	if err := f2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	f2.waitExit(t, 30*time.Second)

	// Phase 3: restart without the fault; the follower re-subscribes
	// from wherever its log really ends and converges on the primary.
	f3 := startHistserve(t, bin, fargs...)
	defer f3.cmd.Process.Kill()
	fc = linetest.Dial(t, f3.addr)
	awaitRole(fc, fmt.Sprintf("applied_lsn=%d lag_lsn=0", acked+burst))
	for _, q := range []string{all, "QRY 3 9 1 2 6 6", "QRY 0 0 0 0 7 7", "QRY 10 13 0 0 7 7", "QRY 7 12 2 0 5 7"} {
		if p, f := pc.Float(t, q), fc.Float(t, q); math.Float64bits(p) != math.Float64bits(f) {
			t.Fatalf("%s: primary %v != restarted follower %v", q, p, f)
		}
	}
	send(acked+burst, 1)
	awaitRole(fc, fmt.Sprintf("applied_lsn=%d ", acked+burst+1))
}
