package main

// Tests for the per-command performance windows: the STATS win_*
// fields and the histserve_cmd_latency_* gauges both read the same
// internal/perf sliding windows that dispatch feeds on every request.

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestStatsWindowFields drives a few requests and checks STATS grew
// the sliding-window digest fields with live values.
func TestStatsWindowFields(t *testing.T) {
	addr := startTestServer(t, false)
	c := dial(t, addr)
	for i := 1; i <= 5; i++ {
		if got := c.cmd(t, "INS 1 2 3 1"); got != "OK" {
			t.Fatalf("INS -> %q", got)
		}
	}
	if got := c.cmd(t, "QRY 0 5 0 0 7 7"); got != "5" {
		t.Fatalf("QRY -> %q", got)
	}
	got := c.cmd(t, "STATS")
	for _, field := range []string{
		"win_s=10", "qry_ops=", "qry_p50_us=", "qry_p99_us=",
		"ins_ops=", "ins_p50_us=", "ins_p99_us=",
	} {
		if !strings.Contains(got, field) {
			t.Errorf("STATS missing %q: %q", field, got)
		}
	}
	// Five INS and one QRY are inside the window; their ops rates must
	// be non-zero, which the flat text shows as absence of "=0.0 ".
	if strings.Contains(got, "ins_ops=0.0 ") {
		t.Errorf("ins_ops stayed zero after 5 inserts: %q", got)
	}
}

// TestCmdLatencyMetrics checks the histserve_cmd_latency_* series on
// /metrics: present for every command/stat pair and non-zero for a
// command that served traffic.
func TestCmdLatencyMetrics(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })

	c := dial(t, addr)
	if got := c.cmd(t, "INS 1 2 3 4"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}

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
	for _, want := range []string{
		`histserve_cmd_latency_seconds{cmd="INS",stat="p50"}`,
		`histserve_cmd_latency_seconds{cmd="QRY",stat="p99"}`,
		`histserve_cmd_latency_seconds{cmd="EXPLAIN",stat="max"}`,
		`histserve_cmd_window_ops_per_sec{cmd="INS"}`,
		`histserve_cmd_window_count{cmd="INS"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, `histserve_cmd_latency_seconds{cmd="INS",stat="p50"} 0`+"\n") {
		t.Errorf("INS p50 gauge is zero after a served insert")
	}
}
