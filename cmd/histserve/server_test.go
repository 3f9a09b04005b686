package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"histcube/internal/histserve"
	"histcube/internal/linetest"
)

// quietConfig is the histserve.Config of -dims dims -op op [-ooo], the other
// flags at their defaults.
func quietConfig(dims, op string, ooo bool) histserve.Config {
	return histserve.Config{Dims: dims, Op: op, OOO: ooo, Fsync: "always", CheckpointEvery: 10000,
		DegradedProbeEvery: 2 * time.Second, ReplAckTimeout: 2 * time.Second}
}

// quietServer builds a server from cfg, its log discarded.
func quietServer(t testing.TB, cfg histserve.Config) *histserve.Server {
	t.Helper()
	srv, err := histserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return srv
}

// newQuietServer builds a server with the given -dims, -op and -ooo, the
// other flags at their defaults, its log discarded (internal/histserve's
// tests have its twin).
func newQuietServer(t testing.TB, dims, op string, ooo bool) *histserve.Server {
	t.Helper()
	return quietServer(t, quietConfig(dims, op, ooo))
}

func serveOn(t *testing.T, srv *histserve.Server) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr().String()
}

func startTestServer(t *testing.T, ooo bool) (addr string) {
	t.Helper()
	return serveOn(t, newQuietServer(t, "8,8", "sum", ooo))
}

func TestProtocolRoundTrip(t *testing.T) {
	addr := startTestServer(t, false)
	c := linetest.Dial(t, addr)

	if got := c.Cmd(t, "INS 1 3 4 5.5"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}
	if got := c.Cmd(t, "INS 2 3 4 2.5"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}
	if got := c.Cmd(t, "QRY 0 5 0 0 7 7"); got != "8" {
		t.Fatalf("QRY -> %q, want 8", got)
	}
	if got := c.Cmd(t, "QRY 2 2 3 4 3 4"); got != "2.5" {
		t.Fatalf("point QRY -> %q", got)
	}
	if got := c.Cmd(t, "DEL 2 3 4 2.5"); got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := c.Cmd(t, "QRY 0 5 0 0 7 7"); got != "5.5" {
		t.Fatalf("QRY after DEL -> %q", got)
	}
	if got := c.Cmd(t, "STATS"); !strings.HasPrefix(got, "slices=2") {
		t.Fatalf("STATS -> %q", got)
	}
	if got := c.Cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

// TestProtocolErrors exercises every ERR branch of dispatch.
func TestProtocolErrors(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	addr := serveOn(t, srv)
	c := linetest.Dial(t, addr)
	cases := []struct {
		line string
		why  string
	}{
		{"FLY 1 2 3", "unknown command"},
		{"INS 1 2 3", "too few INS fields"},
		{"INS 1 2 3 4 5 6", "too many INS fields"},
		{"INS x 2 3 4", "bad time integer"},
		{"INS 1 x 3 4", "bad coordinate integer"},
		{"INS 1 2 3 nope", "bad value float"},
		{"INS 1 4294967296 3 4", "coordinate overflows int32"},
		{"INS 1 -4294967296 3 4", "negative coordinate overflows int32"},
		{"INS 6 9 9 1", "coords out of domain"},
		{"QRY 1 2 3", "too few QRY fields"},
		{"QRY 0 1 x 0 7 7", "bad QRY integer"},
		{"QRY 0 1 4294967296 0 7 7", "QRY coordinate overflows"},
		{"QRY 2 1 0 0 7 7", "inverted time range"},
		{"QRY 0 9 0 0 9 9", "box out of domain"},
		{"SAVE", "SAVE without path"},
		{"SAVE /nonexistent-dir/snap.gob", "SAVE to unwritable path"},
	}
	if got := c.Cmd(t, "INS 5 1 1 1"); got != "OK" {
		t.Fatalf("seed INS -> %q", got)
	}
	cases = append(cases, struct{ line, why string }{"INS 3 1 1 1", "out of order without buffer"})
	for _, tc := range cases {
		if got := c.Cmd(t, tc.line); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%s: %q -> %q, want ERR", tc.why, tc.line, got)
		}
	}
	// The empty-command branch is unreachable over the wire (handle
	// skips blank lines), so hit dispatch directly.
	if got, _ := srv.Do(0, "   "); !strings.HasPrefix(got, "ERR") {
		t.Errorf("blank dispatch -> %q, want ERR", got)
	}
	// Every ERR above must be visible in the error counters.
	total := int64(0)
	for _, cmd := range srv.Labels() {
		total += srv.Errors[cmd].Value()
	}
	if want := int64(len(cases) + 1); total != want {
		t.Errorf("error counter total = %d, want %d", total, want)
	}
}

// TestNoArgumentVerbsRejectArguments pins the table's arity column on
// the verbs that take none — STATS used to answer with stats whatever
// followed it — and QUIT's exemption: it must always close.
func TestNoArgumentVerbsRejectArguments(t *testing.T) {
	c := linetest.Dial(t, startTestServer(t, false))
	for _, verb := range []string{"STATS", "VERSION", "ROLE", "CHECKPOINT", "SLOWLOG"} {
		if got, want := c.Cmd(t, verb+" junk"), "ERR "+verb+" takes no arguments"; got != want {
			t.Errorf("%s junk -> %q, want %q", verb, got, want)
		}
	}
	if got := c.Cmd(t, "QUIT junk"); got != "BYE" {
		t.Fatalf("QUIT junk -> %q, want BYE", got)
	}
	if _, err := c.R.ReadString('\n'); err == nil {
		t.Fatal("connection survived QUIT")
	}
}

func TestOutOfOrderBuffered(t *testing.T) {
	addr := startTestServer(t, true)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 10 1 1 5")
	c.Cmd(t, "INS 20 2 2 3")
	if got := c.Cmd(t, "INS 15 3 3 7"); got != "OK" {
		t.Fatalf("buffered INS -> %q", got)
	}
	if got := c.Cmd(t, "QRY 14 16 0 0 7 7"); got != "7" {
		t.Fatalf("QRY over buffered update -> %q", got)
	}
	if got := c.Cmd(t, "STATS"); !strings.Contains(got, "pending=1") {
		t.Fatalf("STATS -> %q", got)
	}
}

// TestNewServerValidation: New refuses every flag combination main used
// to refuse itself, naming the flag.
func TestNewServerValidation(t *testing.T) {
	ok := histserve.Config{Dims: "4,4", Op: "sum", Fsync: "always", DegradedProbeEvery: time.Second}
	for _, tc := range []struct {
		change func(*histserve.Config)
		want   string
	}{
		{func(c *histserve.Config) { c.Dims = "a,b" }, "bad dimension"},
		{func(c *histserve.Config) { c.Op = "median" }, "unknown operator"},
		{func(c *histserve.Config) { c.DegradedProbeEvery = 0 }, "-degraded-probe-every must be > 0"},
		{func(c *histserve.Config) { c.Load, c.DataDir = "snap", "dir" }, "-load and -data-dir are mutually exclusive"},
		{func(c *histserve.Config) { c.Follow = "127.0.0.1:1" }, "-follow requires -data-dir"},
		{func(c *histserve.Config) { c.DataDir, c.Fsync = "dir", "sometimes" }, "bad -fsync"},
		{func(c *histserve.Config) { c.SealThrough = "yesterday" }, "bad -seal-through"},
	} {
		cfg := ok
		tc.change(&cfg)
		if _, err := histserve.New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("histserve.New(%+v) = %v, want an error naming %q", cfg, err, tc.want)
		}
	}
	if _, err := histserve.New(ok); err != nil {
		t.Fatalf("histserve.New(%+v) = %v", ok, err)
	}
}

func TestSaveAndResume(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snap.gob"
	addr := startTestServer(t, false)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 1 2 3 10")
	c.Cmd(t, "INS 2 2 3 5")
	if got := c.Cmd(t, "SAVE "+path); got != "OK" {
		t.Fatalf("SAVE -> %q", got)
	}
	if got := c.Cmd(t, "SAVE"); got == "OK" {
		t.Fatal("SAVE without path accepted")
	}

	// Resume a fresh server from the snapshot, as -load does.
	cfg := quietConfig("8,8", "sum", false)
	cfg.Load = path
	srv2 := quietServer(t, cfg)
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	resp, _ := srv2.Do(0, "QRY 0 5 0 0 7 7")
	if resp != "15" {
		t.Fatalf("resumed QRY -> %q, want 15", resp)
	}
	resp, _ = srv2.Do(0, "INS 3 2 3 1")
	if resp != "OK" {
		t.Fatalf("resumed INS -> %q", resp)
	}
	cfg.Load = dir + "/missing.gob"
	if err := quietServer(t, cfg).Start(); err == nil {
		t.Error("loading missing snapshot succeeded")
	}
}

// TestLoadChecksDims: a snapshot of another dimensionality is refused
// at Start, as a recovered or a shipped one is, and the server keeps
// its own cube — no request reaches a cube whose arity is not -dims.
func TestLoadChecksDims(t *testing.T) {
	path := t.TempDir() + "/snap.gob"
	if got := linetest.Dial(t, startTestServer(t, false)).Cmd(t, "SAVE "+path); got != "OK" {
		t.Fatalf("SAVE -> %q", got)
	}
	cfg := quietConfig("4,4,4", "sum", false)
	cfg.Load = path
	srv := quietServer(t, cfg)
	want := "loaded snapshot has 2 dimensions, -dims specifies 3"
	if err := srv.Start(); err == nil || err.Error() != want {
		t.Fatalf("Start = %v, want %q", err, want)
	}
	for _, rq := range []struct{ line, want string }{
		{"INS 1 1 2 3 5", "OK"},
		{"QRY 0 5 0 0 0 3 3 3", "5"},
		{"INS 2 1 2 5", "ERR INS needs time, 3 coordinates and a value"},
		{"QRY 0 5 0 0 3 3", "ERR QRY needs tlo, thi and 3 lo + 3 hi coordinates"},
	} {
		if got, _ := srv.Do(0, rq.line); got != rq.want {
			t.Errorf("%s -> %q, want %q", rq.line, got, rq.want)
		}
	}
	if n := linetest.MetricValue(t, srv.Reg, "histserve_panics_recovered_total"); n != 0 {
		t.Errorf("%d requests panicked", n)
	}
}

// TestStatsExtended pins the extended STATS fields: the original four
// stay first (wire compatibility), the new counters follow.
func TestStatsExtended(t *testing.T) {
	addr := startTestServer(t, false)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 1 1 1 2")
	c.Cmd(t, "INS 2 2 2 3")
	c.Cmd(t, "QRY 1 1 0 0 7 7") // historic -> eCube conversions
	got := c.Cmd(t, "STATS")
	if !strings.HasPrefix(got, "slices=2 incomplete=") {
		t.Fatalf("STATS prefix changed: %q", got)
	}
	for _, field := range []string{
		"appended=2", "ooo=0", "conversions=", "cells_touched=",
		"forced_copies=", "copy_ahead=", "cache_accesses=", "store_accesses=",
	} {
		if !strings.Contains(got, field) {
			t.Errorf("STATS missing %q: %q", field, got)
		}
	}
	// The historic query must have converted at least one cell, and
	// STATS must report it.
	if strings.Contains(got, "conversions=0 ") {
		t.Errorf("historic query reported zero conversions: %q", got)
	}
}

// TestMetricsEndpoint drives the server under a small load and
// scrapes /metrics: the cube_query stage's buckets must be populated and
// histcube_ecube_conversions_total must increase monotonically across
// repeated historic queries — the paper's lazy-conversion convergence
// made observable.
func TestMetricsEndpoint(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })
	base := "http://" + mln.Addr().String()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d", path, resp.StatusCode)
		}
		return string(body)
	}

	if got := get("/healthz"); strings.TrimSpace(got) != "ok" {
		t.Errorf("/healthz -> %q", got)
	}

	c := linetest.Dial(t, addr)
	for i := 0; i < 16; i++ {
		if got := c.Cmd(t, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i*3)%8)); got != "OK" {
			t.Fatalf("INS -> %q", got)
		}
	}
	// Queries are the one conversion trigger; the series keeps its
	// trigger label because benchmark/ reads it by that name.
	conversions := func(body string) (v int64) {
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, `histcube_ecube_conversions_total{trigger="query"} `); ok {
				fmt.Sscanf(rest, "%d", &v)
			}
		}
		return v
	}

	c.Cmd(t, "QRY 0 3 0 0 7 7") // historic query
	body1 := get("/metrics")
	for _, want := range []string{
		"# TYPE histserve_stage_seconds histogram",
		`histserve_stage_seconds_bucket{stage="cube_query",le="+Inf"} 1`,
		`histserve_request_seconds_bucket{cmd="QRY",le="+Inf"} 1`,
		"# TYPE histcube_ecube_conversions_total counter",
		`histserve_request_seconds_count{cmd="INS"} 16`,
		`histserve_request_seconds_count{cmd="QRY"} 1`,
		"histserve_connections 1",
		"histserve_connections_total 1",
		"histcube_slices 16",
	} {
		if !strings.Contains(body1, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	conv1 := conversions(body1)
	if conv1 == 0 {
		t.Fatalf("no conversions after historic query:\n%s", body1)
	}

	// Repeated historic queries over fresh regions keep converting;
	// the counter must grow and never shrink.
	prev := conv1
	for _, q := range []string{"QRY 4 6 1 1 6 6", "QRY 0 9 2 0 5 7", "QRY 2 5 0 2 7 5"} {
		c.Cmd(t, q)
		cur := conversions(get("/metrics"))
		if cur < prev {
			t.Fatalf("conversions shrank: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev <= conv1 {
		t.Errorf("conversions did not grow across varied historic queries: %d -> %d", conv1, prev)
	}
	if stats := c.Cmd(t, "STATS"); !strings.Contains(stats, fmt.Sprintf(" conversions=%d ", prev)) {
		t.Errorf("STATS conversions= differs from the query series %d: %q", prev, stats)
	}

	if got := c.Cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

func TestCheckpointCommandWithoutDataDir(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	c := linetest.Dial(t, serveOn(t, srv))
	resp := c.Cmd(t, "CHECKPOINT")
	if !strings.HasPrefix(resp, "ERR") || !strings.Contains(resp, "-data-dir") {
		t.Fatalf("CHECKPOINT without data dir: %q", resp)
	}
}

func TestOverlongLineAfterPipelinedReplies(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.MaxLineLen = 256
	c := linetest.Dial(t, serveOn(t, srv))
	batch := "INS 1 1 1 1\nQRY 0 5 0 0 7 7\nINS " + strings.Repeat("9", 512) + "\nQRY 0 5 0 0 7 7\n"
	got := c.SendAll(t, batch, 3)
	if got[0] != "OK" || got[1] != "1" || !strings.HasPrefix(got[2], "ERR line too long") {
		t.Fatalf("replies = %q, want OK, 1, ERR line too long", got)
	}
	if l, err := c.R.ReadString('\n'); err == nil {
		t.Fatalf("connection survived an overlong line and answered %q", l)
	}
}
