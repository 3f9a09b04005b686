package histserve

// The latency families on /metrics where they meet the server's own
// state — a follower's link, a cube swapped by -load or a snapshot
// install — and README's STATS block against a follower's reply;
// cmd/histserve's metrics_test.go has the cases main's surface reaches.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"histcube/internal/linetest"
)

// TestFollowerLinkIsAccounted: a follower's link runs on the serving
// core, so a burst of shipped records shows on its /metrics like client
// requests — one timed REC request per record, none of them an error.
func TestFollowerLinkIsAccounted(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	follower, _ := startReplica(t, t.TempDir(), paddr)
	mln, err := follower.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })

	const k = 16
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "INS %d %d %d 1\n", i, i%8, (i/3)%8)
	}
	conn, r := rawConn(t, paddr)
	if _, err := io.WriteString(conn, b.String()); err != nil {
		t.Fatal(err)
	}
	readLines(t, r, k)
	waitUntil(t, 5*time.Second, "every shipped record accounted", func() bool {
		return follower.Latency["REC"].Count() == k
	})

	resp, err := http.Get("http://" + mln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`histserve_request_seconds_count{cmd="REC"} %d`, k),
		`histserve_errors_total{cmd="REC"} 0`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("follower /metrics missing %q", want)
		}
	}
}

// TestCubeStageSurvivesCubeSwaps: the stage family hangs off the server,
// so an insert still lands in cube_insert after -load and after a
// follower's snapshot install replaced the cube — the swaps that used to
// have to re-attach the cube's own instruments.
func TestCubeStageSurvivesCubeSwaps(t *testing.T) {
	src := newQuietServer(t, "8,8", "sum", false)
	if resp, _ := src.safeDispatch(0, "INS 1 2 3 10"); resp != "OK" {
		t.Fatalf("INS -> %q", resp)
	}
	var snap bytes.Buffer
	if err := src.cube.Save(&snap); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/snap.gob"
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded := newQuietServer(t, "8,8", "sum", false)
	if err := loaded.loadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	installed, _ := newDurableServer(t, t.TempDir(), 0)
	t.Cleanup(installed.Close)
	if err := installed.installSnapshot(1, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*Server{"-load": loaded, "snapshot install": installed} {
		if resp, _ := srv.safeDispatch(0, "INS 2 2 3 1"); resp != "OK" {
			t.Fatalf("%s: INS -> %q", name, resp)
		}
		if resp, _ := srv.safeDispatch(0, "QRY 0 5 0 0 7 7"); resp != "11" {
			t.Fatalf("%s: QRY -> %q, want 11", name, resp)
		}
		if n := srv.stage[stageCubeInsert].Count(); n != 1 {
			t.Errorf("%s: cube_insert samples = %d, want 1", name, n)
		}
		if n := srv.stage[stageCubeQuery].Count(); n != 1 {
			t.Errorf("%s: cube_query samples = %d, want 1", name, n)
		}
	}
}

// TestReadmeStatsBlockMatchesServedReply holds README's STATS block to
// the served reply, field by field and in order: outside its brackets
// to what a primary answers, brackets included to what a sealed
// follower answers, where every optional field appears.
func TestReadmeStatsBlockMatchesServedReply(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(readme), "`STATS` answers\n\n```\n")
	block, _, closed := strings.Cut(after, "```")
	if !ok || !closed {
		t.Fatal("README has no STATS block after \"`STATS` answers\"")
	}
	key := regexp.MustCompile(`([a-z_]+)=`)
	names := func(s string) (out []string) {
		for _, m := range key.FindAllStringSubmatch(s, -1) {
			out = append(out, m[1])
		}
		return out
	}

	primary, _ := newDurableServer(t, t.TempDir(), 0)
	paddr := serveOn(t, primary)
	expect(t, linetest.Dial(t, paddr), "INS 1 0 0 1", "OK")
	follower, faddr := startReplica(t, t.TempDir(), paddr)
	waitUntil(t, 5*time.Second, "the follower to catch up", func() bool { return follower.repl.synced.Load() })
	fc := linetest.Dial(t, faddr)
	expect(t, fc, "SEAL 9", "OK sealed_through=9")

	for _, c := range []struct {
		who, readme, served string
	}{
		{"a primary", regexp.MustCompile(`\[[^]]*\]`).ReplaceAllString(block, ""), linetest.Dial(t, paddr).Cmd(t, "STATS")},
		{"a sealed follower", block, fc.Cmd(t, "STATS")},
	} {
		if want, got := names(c.readme), names(c.served); strings.Join(want, " ") != strings.Join(got, " ") {
			t.Errorf("README's STATS block names\n  %v\nbut %s answers\n  %v\n(%q)", want, c.who, got, c.served)
		}
	}
}
