package main

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"histcube/internal/linetest"
)

var metricsRE = regexp.MustCompile(`msg="metrics listening" addr=([^ ]+)`)

// TestExplainSmokeRealBinary is the end-to-end smoke for the tracing
// surface: a real histserve binary answers EXPLAIN with a span tree,
// SLOWLOG with retained traces, converges a repeated historic query to
// the PS bound (Fig. 10/11, as TestExplainConvergence pins in
// process), and serves /readyz, /debug/slowlog and /debug/pprof on
// the metrics listener. Run by check.sh and CI; skipped under -short.
func TestExplainSmokeRealBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("real-binary smoke test skipped in -short mode")
	}
	bin := buildHistserve(t)
	p := startHistserve(t, bin, "-dims", "8,8",
		"-metrics", "127.0.0.1:0", "-slow-query-threshold", "0s", "-slowlog-size", "4")
	defer func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		if out, err := p.waitExit(t, 15*time.Second); err != nil {
			t.Errorf("shutdown: %v\n%s", err, out)
		}
	}()
	var metricsAddr string
	for _, line := range p.stderr {
		if m := metricsRE.FindStringSubmatch(line); m != nil {
			metricsAddr = m[1]
		}
	}
	if metricsAddr == "" {
		t.Fatalf("no metrics listen address in stderr:\n%s", strings.Join(p.stderr, "\n"))
	}

	c := linetest.Dial(t, p.addr)
	for _, ins := range []string{"INS 1 1 1 5", "INS 2 2 2 7", "INS 3 3 3 9"} {
		if got := c.Cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
	}
	lines := c.Multi(t, "EXPLAIN QRY 1 1 0 0 7 7")
	if lines[0] != "OK result=5" {
		t.Fatalf("EXPLAIN first line = %q", lines[0])
	}
	tree := strings.Join(lines, "\n")
	for _, want := range []string{"histserve.query", "histcube.query", "histcube.prefix", "totals ", "cells_touched="} {
		if !strings.Contains(tree, want) {
			t.Errorf("EXPLAIN reply missing %q:\n%s", want, tree)
		}
	}
	slow := c.Multi(t, "SLOWLOG")
	if !strings.HasPrefix(slow[0], "OK n=1 cap=4 threshold=0s") {
		t.Fatalf("SLOWLOG header = %q", slow[0])
	}
	// A box whose corners the query above has not converted yet; the
	// PS bound is 2^(d-1) = 4 cells at -dims 8,8.
	requireConvergence(t, func() []string { return c.Multi(t, "EXPLAIN QRY 1 1 1 1 6 6") }, 4)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/readyz -> %d %q (the serving binary must be ready)", code, body)
	}
	if code, body := get("/debug/slowlog"); code != http.StatusOK ||
		!strings.Contains(body, `"histserve.query"`) {
		t.Errorf("/debug/slowlog -> %d, missing the query trace:\n%.300s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ -> %d", code)
	}
}
