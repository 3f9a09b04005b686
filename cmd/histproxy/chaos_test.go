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
	"bufio"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var chaosListenRE = regexp.MustCompile(`msg=listening addr=([^ ]+)`)

// buildBinary compiles one command directory once per test.
func buildBinary(t *testing.T, name, dir string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH; cannot build chaos-test binaries")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// chaosProc is one running child process (shard or proxy).
type chaosProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr []string
	lines  chan string
}

// startProc launches a binary and waits for its "listening" log line.
func startProc(t *testing.T, bin string, args ...string) *chaosProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &chaosProc{cmd: cmd, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // never block the child on a full buffer
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() { p.cmd.Process.Kill(); p.cmd.Wait() })
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("%s exited before listening; stderr:\n%s", bin, strings.Join(p.stderr, "\n"))
			}
			p.stderr = append(p.stderr, line)
			if m := chaosListenRE.FindStringSubmatch(line); m != nil {
				p.addr = m[1]
				return p
			}
		case <-deadline:
			p.cmd.Process.Kill()
			t.Fatalf("%s did not report a listen address; stderr:\n%s", bin, strings.Join(p.stderr, "\n"))
		}
	}
}

// kill SIGKILLs the child and reaps it.
func (p *chaosProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	for range p.lines { // drain to EOF
	}
}

// chaosConn is a line-protocol client with a hang guard: every read
// carries a deadline, so a proxy that stalls fails the test instead of
// wedging it.
type chaosConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func chaosDial(t *testing.T, addr string) *chaosConn {
	t.Helper()
	var conn net.Conn
	var err error
	for i := 0; i < 50; i++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			t.Cleanup(func() { conn.Close() })
			return &chaosConn{conn: conn, r: bufio.NewReader(conn)}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("dialing %s: %v", addr, err)
	return nil
}

func (c *chaosConn) cmd(t *testing.T, line string) string {
	t.Helper()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatalf("%s: write: %v", line, err)
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("%s: read (a hang or dropped conn, both violate the degradation contract): %v", line, err)
	}
	return strings.TrimSpace(resp)
}

func TestShardChaosPartialAnswersAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds and kills real processes")
	}
	serveBin := buildBinary(t, "histserve", "../histserve")
	proxyBin := buildBinary(t, "histproxy", ".")

	// Three shards: two historic, one hot. The middle one is the victim;
	// it gets a data directory so its facts survive the SIGKILL.
	victimDir := filepath.Join(t.TempDir(), "victim-data")
	serveArgs := []string{"-addr", "127.0.0.1:0", "-dims", "8,8", "-op", "sum"}
	s0 := startProc(t, serveBin, serveArgs...)
	s1 := startProc(t, serveBin, append(serveArgs, "-data-dir", victimDir, "-fsync", "always")...)
	s2 := startProc(t, serveBin, serveArgs...)
	spec := fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", s0.addr, s1.addr, s2.addr)
	// Without the member-state loop no member would rejoin: refused.
	if out, err := exec.Command(proxyBin, "-addr", "127.0.0.1:0", "-dims", "8,8", "-shards", spec, "-probe-every", "0").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "-probe-every must be > 0") {
		t.Fatalf("-probe-every 0: %v\n%s", err, out)
	}

	proxy := startProc(t, proxyBin,
		"-addr", "127.0.0.1:0", "-dims", "8,8", "-shards", spec,
		"-shard-timeout", "500ms", "-request-timeout", "5s",
		"-breaker-threshold", "1",
		"-probe-every", "100ms")
	c := chaosDial(t, proxy.addr)

	// Seed 300 facts of value 1 through the proxy, 100 per shard: the
	// full-range SUM is 300 and the victim's contribution is 100.
	for i := 0; i < 300; i++ {
		if got := c.cmd(t, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i/3)%8)); got != "OK" {
			t.Fatalf("seed INS %d -> %q", i, got)
		}
	}
	const full = "300"
	if got := c.cmd(t, "QRY 0 299 0 0 7 7"); got != full {
		t.Fatalf("seeded QRY -> %q, want %s", got, full)
	}
	wantPartial := fmt.Sprintf("PARTIAL 200 coverage=0.667 covered=0-99,200-299 missing=%s=100-199", s1.addr)

	// SIGKILL the historic shard mid-workload: from here on, every
	// answer must be either the exact full total (a leg that raced the
	// kill and still answered) or the exact PARTIAL — anything else is
	// a wrong total presented as complete.
	s1.kill(t)
	partials := 0
	for i := 0; i < 200 && partials < 5; i++ {
		got := c.cmd(t, "QRY 0 299 0 0 7 7")
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
	if got := c.cmd(t, "QRY 0 99 0 0 7 7"); got != "100" {
		t.Fatalf("live-range QRY during outage -> %q, want 100", got)
	}
	// Mutations still route to live shards; the victim rejects loudly.
	if got := c.cmd(t, "INS 300 0 0 1"); got != "OK" {
		t.Fatalf("hot-shard INS during outage -> %q", got)
	}
	if got := c.cmd(t, "INS 150 0 0 1"); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("victim INS during outage -> %q, want ERR shard ... unavailable", got)
	}
	// STATS reflects the outage.
	if got := c.cmd(t, "STATS"); !strings.HasPrefix(got, "shards=3 shards_up=2") {
		t.Fatalf("STATS during outage -> %q, want shards=3 shards_up=2 prefix", got)
	}

	// Rejoin: restart the victim on the same port and data directory.
	// Recovery replays its WAL, the proxy's prober closes the breaker,
	// and complete answers return — the proxy is never restarted.
	port := s1.addr[strings.LastIndex(s1.addr, ":"):]
	s1b := startProc(t, serveBin, "-addr", "127.0.0.1"+port, "-dims", "8,8", "-op", "sum",
		"-data-dir", victimDir, "-fsync", "always")
	if s1b.addr != s1.addr {
		t.Fatalf("victim rebound on %s, want %s", s1b.addr, s1.addr)
	}
	const fullAfter = "301" // seed + the hot-shard INS during the outage
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := c.cmd(t, "QRY 0 300 0 0 7 7")
		if got == fullAfter {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("answers stayed degraded after rejoin: %q", got)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := c.cmd(t, "STATS"); !strings.HasPrefix(got, "shards=3 shards_up=3") {
		t.Fatalf("STATS after rejoin -> %q, want shards=3 shards_up=3 prefix", got)
	}
	t.Logf("outage produced %d PARTIAL answers; rejoin restored SUM=%s without proxy restart", partials, fullAfter)
}
