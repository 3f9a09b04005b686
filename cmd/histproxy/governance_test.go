package main

// The governance cases of the serving core (internal/lineserver has the
// full conformance table) run thinly against the real proxy: its table
// and its settle function are wired into the same loop as histserve's.
// The panic-containment case breaks the proxy's own state and lives in
// internal/histproxy.

import (
	"io"
	"strings"
	"testing"
	"time"

	"histcube/internal/linetest"
)

func TestProxyGovernanceLimits(t *testing.T) {
	spec, _ := threeMembers(t)
	p := buildProxy(t, spec)
	p.MaxConns = 1
	p.MaxLineLen = 256
	addr := serveProxy(t, p)

	c1 := linetest.Dial(t, addr)
	if got := c1.Cmd(t, "INS 10 1 1 5"); got != "OK" {
		t.Fatalf("INS on first connection -> %q", got)
	}
	c2 := linetest.Dial(t, addr)
	if line, err := c2.R.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR server busy") {
		t.Fatalf("over-cap connection -> %q, %v, want ERR server busy", line, err)
	}
	for series, want := range map[string]int64{
		"histproxy_connections_rejected_total": 1,
		"histproxy_connections":                1,
		"histproxy_connections_total":          1,
	} {
		if n := linetest.MetricValue(t, p.Reg, series); n != want {
			t.Errorf("%s = %d, want %d", series, n, want)
		}
	}
	// An overlong line after a run: the run's replies, the farewell, close.
	got := c1.SendAll(t, "INS 11 1 1 1\nINS 12 1 1 1\nINS "+strings.Repeat("9", 512)+"\n", 3)
	if got[0] != "OK" || got[1] != "OK" || !strings.HasPrefix(got[2], "ERR line too long (max 256 bytes)") {
		t.Fatalf("replies = %q", got)
	}
	if l, err := c1.R.ReadString('\n'); err == nil {
		t.Fatalf("connection survived an overlong line and answered %q", l)
	}
}

func TestProxyIdleTimeoutAndArity(t *testing.T) {
	spec, _ := threeMembers(t)
	p := buildProxy(t, spec)
	p.ReadTimeout = 150 * time.Millisecond
	c := linetest.Dial(t, serveProxy(t, p))
	for _, tc := range []struct{ line, want string }{
		{"STATS junk", "ERR STATS takes no arguments"},
		{"SHARDS junk", "ERR SHARDS takes no arguments"},
		{"TID=feedface12345678", "ERR empty command"},
	} {
		if got := c.Cmd(t, tc.line); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.line, got, tc.want)
		}
	}
	if _, err := c.R.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle connection: %v, want it closed by the proxy", err)
	}
	// QUIT must always close, arguments or not.
	c = linetest.Dial(t, serveProxy(t, p))
	if got := c.Cmd(t, "QUIT junk"); got != "BYE" {
		t.Fatalf("QUIT junk -> %q, want BYE", got)
	}
}
