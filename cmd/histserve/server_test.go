package main

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"

	"histcube/internal/trace"
)

func newQuietServer(t testing.TB, dims, op string, ooo bool) *server {
	t.Helper()
	srv, err := newServer(dims, op, ooo)
	if err != nil {
		t.Fatal(err)
	}
	srv.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return srv
}

// safeDispatch runs one request the way the connection loop does at
// depth 1 — a unit of one, executed and settled — the returned text is
// what would be written to the socket.
func (s *server) safeDispatch(tid trace.ID, line string) (resp string, quit bool) {
	return s.Do(tid, line)
}

func serveOn(t *testing.T, srv *server) (addr string) {
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

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
}

func TestProtocolRoundTrip(t *testing.T) {
	addr := startTestServer(t, false)
	c := dial(t, addr)

	if got := c.cmd(t, "INS 1 3 4 5.5"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}
	if got := c.cmd(t, "INS 2 3 4 2.5"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); got != "8" {
		t.Fatalf("QRY -> %q, want 8", got)
	}
	if got := c.cmd(t, "QRY 2 2 3 4 3 4"); got != "2.5" {
		t.Fatalf("point QRY -> %q", got)
	}
	if got := c.cmd(t, "DEL 2 3 4 2.5"); got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); got != "5.5" {
		t.Fatalf("QRY after DEL -> %q", got)
	}
	if got := c.cmd(t, "STATS"); !strings.HasPrefix(got, "slices=2") {
		t.Fatalf("STATS -> %q", got)
	}
	if got := c.cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

// TestProtocolErrors exercises every ERR branch of dispatch.
func TestProtocolErrors(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	addr := serveOn(t, srv)
	c := dial(t, addr)
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
	if got := c.cmd(t, "INS 5 1 1 1"); got != "OK" {
		t.Fatalf("seed INS -> %q", got)
	}
	cases = append(cases, struct{ line, why string }{"INS 3 1 1 1", "out of order without buffer"})
	for _, tc := range cases {
		if got := c.cmd(t, tc.line); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%s: %q -> %q, want ERR", tc.why, tc.line, got)
		}
	}
	// The empty-command branch is unreachable over the wire (handle
	// skips blank lines), so hit dispatch directly.
	if got, _ := srv.safeDispatch(0, "   "); !strings.HasPrefix(got, "ERR") {
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
	c := dial(t, startTestServer(t, false))
	for _, verb := range []string{"STATS", "VERSION", "ROLE", "CHECKPOINT", "SLOWLOG"} {
		if got, want := c.cmd(t, verb+" junk"), "ERR "+verb+" takes no arguments"; got != want {
			t.Errorf("%s junk -> %q, want %q", verb, got, want)
		}
	}
	if got := c.cmd(t, "QUIT junk"); got != "BYE" {
		t.Fatalf("QUIT junk -> %q, want BYE", got)
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection survived QUIT")
	}
}

func TestOutOfOrderBuffered(t *testing.T) {
	addr := startTestServer(t, true)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	c.cmd(t, "INS 20 2 2 3")
	if got := c.cmd(t, "INS 15 3 3 7"); got != "OK" {
		t.Fatalf("buffered INS -> %q", got)
	}
	if got := c.cmd(t, "QRY 14 16 0 0 7 7"); got != "7" {
		t.Fatalf("QRY over buffered update -> %q", got)
	}
	if got := c.cmd(t, "STATS"); !strings.Contains(got, "pending=1") {
		t.Fatalf("STATS -> %q", got)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := newServer("a,b", "sum", false); err == nil {
		t.Error("bad dims accepted")
	}
	if _, err := newServer("4,4", "median", false); err == nil {
		t.Error("bad operator accepted")
	}
}

func TestSaveAndResume(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snap.gob"
	addr := startTestServer(t, false)
	c := dial(t, addr)
	c.cmd(t, "INS 1 2 3 10")
	c.cmd(t, "INS 2 2 3 5")
	if got := c.cmd(t, "SAVE "+path); got != "OK" {
		t.Fatalf("SAVE -> %q", got)
	}
	if got := c.cmd(t, "SAVE"); got == "OK" {
		t.Fatal("SAVE without path accepted")
	}

	// Resume a fresh server from the snapshot.
	srv2 := newQuietServer(t, "8,8", "sum", false)
	if err := srv2.loadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	resp, _ := srv2.safeDispatch(0, "QRY 0 5 0 0 7 7")
	if resp != "15" {
		t.Fatalf("resumed QRY -> %q, want 15", resp)
	}
	resp, _ = srv2.safeDispatch(0, "INS 3 2 3 1")
	if resp != "OK" {
		t.Fatalf("resumed INS -> %q", resp)
	}
	if err := srv2.loadSnapshot(dir + "/missing.gob"); err == nil {
		t.Error("loading missing snapshot succeeded")
	}
}

// TestStatsExtended pins the extended STATS fields: the original four
// stay first (wire compatibility), the new counters follow.
func TestStatsExtended(t *testing.T) {
	addr := startTestServer(t, false)
	c := dial(t, addr)
	c.cmd(t, "INS 1 1 1 2")
	c.cmd(t, "INS 2 2 2 3")
	c.cmd(t, "QRY 1 1 0 0 7 7") // historic -> eCube conversions
	got := c.cmd(t, "STATS")
	if !strings.HasPrefix(got, "slices=2 incomplete=") {
		t.Fatalf("STATS prefix changed: %q", got)
	}
	for _, field := range []string{
		"appended=2", "ooo=0", "conversions=", "conversions_query=",
		"conversions_append=0", "cells_touched=",
		"forced_copies=", "copy_ahead=", "demoted=0",
		"cache_accesses=", "store_accesses=",
	} {
		if !strings.Contains(got, field) {
			t.Errorf("STATS missing %q: %q", field, got)
		}
	}
	// The historic query must have converted at least one cell, STATS
	// must report it, and the trigger split must attribute it to the
	// query leg (appends never run the eCube algorithm).
	if strings.Contains(got, "conversions=0 ") {
		t.Errorf("historic query reported zero conversions: %q", got)
	}
	if strings.Contains(got, "conversions_query=0 ") {
		t.Errorf("conversions not attributed to the query trigger: %q", got)
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

	c := dial(t, addr)
	for i := 0; i < 16; i++ {
		if got := c.cmd(t, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i*3)%8)); got != "OK" {
			t.Fatalf("INS -> %q", got)
		}
	}
	// The conversions counter is split by trigger label; sum the legs
	// for the monotonic total and keep the query leg for attribution.
	conversionsBy := func(body, trigger string) (v int64) {
		prefix := fmt.Sprintf(`histcube_ecube_conversions_total{trigger=%q} `, trigger)
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				fmt.Sscanf(rest, "%d", &v)
			}
		}
		return v
	}
	conversions := func(body string) int64 {
		return conversionsBy(body, "query") + conversionsBy(body, "append")
	}

	c.cmd(t, "QRY 0 3 0 0 7 7") // historic query
	body1 := get("/metrics")
	for _, want := range []string{
		"# TYPE histserve_stage_seconds histogram",
		`histserve_stage_seconds_bucket{stage="cube_query",le="+Inf"} 1`,
		`histserve_request_seconds_bucket{cmd="QRY",le="+Inf"} 1`,
		"# TYPE histcube_ecube_conversions_total counter",
		"# TYPE histserve_requests_total counter",
		`histserve_requests_total{cmd="INS"} 16`,
		`histserve_requests_total{cmd="QRY"} 1`,
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
		c.cmd(t, q)
		cur := conversions(get("/metrics"))
		if cur < prev {
			t.Fatalf("conversions shrank: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev <= conv1 {
		t.Errorf("conversions did not grow across varied historic queries: %d -> %d", conv1, prev)
	}
	if leg := conversionsBy(get("/metrics"), "append"); leg != 0 {
		t.Errorf("append-triggered conversions = %d, want 0 (appends never run the eCube algorithm)", leg)
	}

	if got := c.cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}
