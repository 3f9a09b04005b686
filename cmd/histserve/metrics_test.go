package main

// The latency families on /metrics: histserve_request_seconds{cmd}
// (the serving core times every served request once) and
// histserve_stage_seconds{stage}; and README naming exactly the
// families the binary registers.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"histcube/internal/lineserver"
)

// TestCmdLatencyMetrics checks histserve_request_seconds on /metrics:
// one series per command-table label, and a served INS counted in its
// own series and, through the span the core opened, in the cube_insert
// stage.
func TestCmdLatencyMetrics(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })

	c := dial(t, addr)
	c.expect(t, "INS 1 2 3 4", "OK")

	resp, err := http.Get("http://" + mln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, label := range srv.Labels() {
		if want := fmt.Sprintf(`histserve_request_seconds_count{cmd=%q} `, label); !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, want := range []string{
		`histserve_request_seconds_count{cmd="INS"} 1`,
		`histserve_request_seconds_count{cmd="QRY"} 0`,
		`histserve_stage_seconds_count{stage="cube_insert"} 1`,
		`histserve_stage_seconds_count{stage="cube_query"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// metricValue reads one series off srv's registry, its labels spelled
// as /metrics renders them.
func metricValue(t *testing.T, srv *server, name string) int64 {
	t.Helper()
	var b strings.Builder
	if err := srv.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// TestOutOfOrderInsertRaisesGd: histcube_ooo_pending is the size of
// Sec. 2.5's G_d, the buffer of updates older than the latest instance.
// On an -ooo server an out-of-order INS lands there and raises it by one.
func TestOutOfOrderInsertRaisesGd(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", true)
	for _, line := range []string{"INS 5 1 1 1", "INS 6 2 2 1"} {
		if resp, _ := srv.safeDispatch(0, line); resp != "OK" {
			t.Fatalf("%s -> %q", line, resp)
		}
	}
	before := metricValue(t, srv, "histcube_ooo_pending")
	if resp, _ := srv.safeDispatch(0, "INS 3 1 1 1"); resp != "OK" {
		t.Fatalf("out-of-order INS -> %q", resp)
	}
	if got := metricValue(t, srv, "histcube_ooo_pending"); got != before+1 {
		t.Fatalf("histcube_ooo_pending = %d after an out-of-order INS, want %d", got, before+1)
	}
}

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
	t.Cleanup(installed.shutdown)
	if err := installed.installSnapshot(1, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*server{"-load": loaded, "snapshot install": installed} {
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

// TestReadmeNamesOnlyRealMetrics renders /metrics of a server with
// everything that registers families switched on — durable, -fault-spec
// armed, the runtime collector sampled once — and requires README to name
// exactly the histserve_*/histcube_* families it registers.
func TestReadmeNamesOnlyRealMetrics(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	fs := flag.NewFlagSet("histserve", flag.ContinueOnError)
	shared := lineserver.RegisterFlags(fs, "127.0.0.1:0")
	if err := fs.Parse([]string{"-fault-spec", "serve.dispatch:err@1000000", "-runtime-metrics-every", "1h"}); err != nil {
		t.Fatal(err)
	}
	stop, err := shared.Apply(&srv.Server, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	enableChaosWAL(t, srv, t.TempDir())
	t.Cleanup(srv.shutdown)
	var exposition strings.Builder
	if err := srv.Reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := readmeFamilies(exposition.String(), string(readme), regexp.MustCompile(`^hist(serve|cube)_`))
	if len(missing) > 0 {
		t.Errorf("registered but not named in README: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("named in README but not registered: %s", strings.Join(stale, ", "))
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
	dial(t, paddr).expect(t, "INS 1 0 0 1", "OK")
	follower, faddr := startReplica(t, t.TempDir(), paddr)
	waitUntil(t, 5*time.Second, "the follower to catch up", func() bool { return follower.repl.synced.Load() })
	fc := dial(t, faddr)
	fc.expect(t, "SEAL 9", "OK sealed_through=9")

	for _, c := range []struct {
		who, readme, served string
	}{
		{"a primary", regexp.MustCompile(`\[[^]]*\]`).ReplaceAllString(block, ""), dial(t, paddr).cmd(t, "STATS")},
		{"a sealed follower", block, fc.cmd(t, "STATS")},
	} {
		if want, got := names(c.readme), names(c.served); strings.Join(want, " ") != strings.Join(got, " ") {
			t.Errorf("README's STATS block names\n  %v\nbut %s answers\n  %v\n(%q)", want, c.who, got, c.served)
		}
	}
}

// readmeFamilies compares the families of a rendered exposition that
// match prefix with the metric names README spells out: registered
// families README never names, and names README gives that are no
// family (a histogram's _bucket/_sum/_count series count as the family;
// a trailing "_*" is a wildcard, which names nothing).
func readmeFamilies(exposition, readme string, prefix *regexp.Regexp) (missing, stale []string) {
	registered := make(map[string]bool)
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && prefix.MatchString(f[2]) {
			registered[f[2]] = true
		}
	}
	named := make(map[string]bool)
	for _, m := range regexp.MustCompile(`hist(serve|cube|proxy)_[a-z0-9_]*[a-z0-9*]`).FindAllString(readme, -1) {
		if !prefix.MatchString(m) || strings.HasSuffix(m, "*") {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(m, suffix); base != m && registered[base] {
				m = base
			}
		}
		named[m] = true
	}
	for name := range registered {
		if !named[name] {
			missing = append(missing, name)
		}
	}
	for name := range named {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale
}
