package main

// Shard-chaos harness: build the real histserve and histproxy
// binaries, run a 3-shard topology, SIGKILL the middle (historic)
// shard mid-query-workload and verify the proxy's degradation
// contract — answers over the dead range come back PARTIAL with the
// exact live sum (never a wrong total presented as complete, never a
// hang), mutations to live shards keep working — and that restarting
// the shard on the same port and data directory restores complete
// answers without restarting the proxy. This is the `make shardchaos`
// acceptance test wired into check.sh and CI; it builds and kills
// real processes and is skipped under -short.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"histcube/internal/linetest"
)

// The commands the drills run as child processes.
const (
	servePkg = "histcube/cmd/histserve"
	proxyPkg = "histcube/cmd/histproxy"
)

func TestShardChaosPartialAnswersAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds and kills real processes")
	}
	// Three shards: two historic, one hot. The middle one is the victim;
	// it gets a data directory so its facts survive the SIGKILL.
	victimDir := filepath.Join(t.TempDir(), "victim-data")
	serveArgs := []string{"-dims", "8,8", "-op", "sum"}
	s0 := linetest.Start(t, servePkg, serveArgs...)
	s1 := linetest.Start(t, servePkg, append(serveArgs, "-data-dir", victimDir, "-fsync", "always")...)
	s2 := linetest.Start(t, servePkg, serveArgs...)
	spec := fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", s0.Addr, s1.Addr, s2.Addr)
	proxy := linetest.Start(t, proxyPkg,
		"-dims", "8,8", "-shards", spec,
		"-shard-timeout", "500ms", "-request-timeout", "5s",
		"-breaker-threshold", "1",
		"-probe-every", "100ms")
	// Without the member-state loop no member would rejoin: refused.
	if out, err := exec.Command(proxy.Cmd.Path, "-addr", "127.0.0.1:0", "-dims", "8,8", "-shards", spec, "-probe-every", "0").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "-probe-every must be > 0") {
		t.Fatalf("-probe-every 0: %v\n%s", err, out)
	}
	c := linetest.Dial(t, proxy.Addr)

	// Seed 300 facts of value 1 through the proxy, 100 per shard: the
	// full-range SUM is 300 and the victim's contribution is 100.
	for i := 0; i < 300; i++ {
		if got := c.Cmd(t, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i/3)%8)); got != "OK" {
			t.Fatalf("seed INS %d -> %q", i, got)
		}
	}
	const full = "300"
	if got := c.Cmd(t, "QRY 0 299 0 0 7 7"); got != full {
		t.Fatalf("seeded QRY -> %q, want %s", got, full)
	}
	wantPartial := fmt.Sprintf("PARTIAL 200 coverage=0.667 covered=0-99,200-299 missing=%s=100-199", s1.Addr)

	// SIGKILL the historic shard mid-workload: from here on, every
	// answer must be either the exact full total (a leg that raced the
	// kill and still answered) or the exact PARTIAL — anything else is
	// a wrong total presented as complete.
	s1.Stop(t, os.Kill)
	partials := 0
	for i := 0; i < 200 && partials < 5; i++ {
		got := c.Cmd(t, "QRY 0 299 0 0 7 7")
		switch got {
		case full:
			// Allowed only before the breaker notices; keep going.
		case wantPartial:
			partials++
		default:
			t.Fatalf("QRY during outage -> %q, want %q or %q", got, full, wantPartial)
		}
	}
	if partials < 5 {
		t.Fatalf("dead shard never degraded the answer to PARTIAL (%d seen)", partials)
	}
	// Ranges not touching the victim stay complete.
	if got := c.Cmd(t, "QRY 0 99 0 0 7 7"); got != "100" {
		t.Fatalf("live-range QRY during outage -> %q, want 100", got)
	}
	// Mutations still route to live shards; the victim rejects loudly.
	if got := c.Cmd(t, "INS 300 0 0 1"); got != "OK" {
		t.Fatalf("hot-shard INS during outage -> %q", got)
	}
	if got := c.Cmd(t, "INS 150 0 0 1"); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("victim INS during outage -> %q, want ERR shard ... unavailable", got)
	}
	// STATS reflects the outage.
	if got := c.Cmd(t, "STATS"); !strings.HasPrefix(got, "shards=3 shards_up=2") {
		t.Fatalf("STATS during outage -> %q, want shards=3 shards_up=2 prefix", got)
	}

	// Rejoin: restart the victim on the same port and data directory.
	// Recovery replays its WAL, the proxy's prober closes the breaker,
	// and complete answers return — the proxy is never restarted.
	s1b := linetest.Start(t, servePkg, "-addr", s1.Addr, "-dims", "8,8", "-op", "sum",
		"-data-dir", victimDir, "-fsync", "always")
	if s1b.Addr != s1.Addr {
		t.Fatalf("victim rebound on %s, want %s", s1b.Addr, s1.Addr)
	}
	const fullAfter = "301" // seed + the hot-shard INS during the outage
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := c.Cmd(t, "QRY 0 300 0 0 7 7")
		if got == fullAfter {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("answers stayed degraded after rejoin: %q", got)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := c.Cmd(t, "STATS"); !strings.HasPrefix(got, "shards=3 shards_up=3") {
		t.Fatalf("STATS after rejoin -> %q, want shards=3 shards_up=3 prefix", got)
	}
	t.Logf("outage produced %d PARTIAL answers; rejoin restored SUM=%s without proxy restart", partials, fullAfter)
}
