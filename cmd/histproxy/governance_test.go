package main

// The governance cases of the serving core (internal/lineserver has the
// full conformance table) run thinly against the real proxy: its table
// and its settle function are wired into the same loop as histserve's.

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/shard"
	"histcube/internal/shardclient"
)

func TestProxyGovernanceLimits(t *testing.T) {
	spec, _ := threeShards(t)
	p := buildProxy(t, spec)
	p.MaxConns = 1
	p.MaxLineLen = 256
	addr := serveProxy(t, p)

	c1 := dial(t, addr)
	if got := c1.cmd(t, "INS 10 1 1 5"); got != "OK" {
		t.Fatalf("INS on first connection -> %q", got)
	}
	c2 := dial(t, addr)
	if line, err := c2.r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR server busy") {
		t.Fatalf("over-cap connection -> %q, %v, want ERR server busy", line, err)
	}
	for series, want := range map[string]int64{
		"histproxy_connections_rejected_total": 1,
		"histproxy_connections":                1,
		"histproxy_connections_total":          1,
	} {
		if n := metricValue(t, p, series); n != want {
			t.Errorf("%s = %d, want %d", series, n, want)
		}
	}
	// An overlong line after a run: the run's replies, the farewell, close.
	got := sendAll(t, c1, "INS 11 1 1 1\nINS 12 1 1 1\nINS "+strings.Repeat("9", 512)+"\n", 3)
	if got[0] != "OK" || got[1] != "OK" || !strings.HasPrefix(got[2], "ERR line too long (max 256 bytes)") {
		t.Fatalf("replies = %q", got)
	}
	if l, err := c1.r.ReadString('\n'); err == nil {
		t.Fatalf("connection survived an overlong line and answered %q", l)
	}
}

func TestProxyIdleTimeoutAndArity(t *testing.T) {
	spec, _ := threeShards(t)
	p := buildProxy(t, spec)
	p.ReadTimeout = 150 * time.Millisecond
	c := dial(t, serveProxy(t, p))
	for _, tc := range []struct{ line, want string }{
		{"STATS junk", "ERR STATS takes no arguments"},
		{"SHARDS junk", "ERR SHARDS takes no arguments"},
		{"TID=feedface12345678", "ERR empty command"},
	} {
		if got := c.cmd(t, tc.line); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.line, got, tc.want)
		}
	}
	if _, err := c.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle connection: %v, want it closed by the proxy", err)
	}
	// QUIT must always close, arguments or not.
	c = dial(t, serveProxy(t, p))
	if got := c.cmd(t, "QUIT junk"); got != "BYE" {
		t.Fatalf("QUIT junk -> %q, want BYE", got)
	}
}

// TestProxyPanicContainmentIsPerRun pins the barrier's granularity on
// the proxy. A unit's work happens in one place — the batch round trips
// of settle — so a panic there costs every line the unit was routing:
// each answers ERR internal, none is left without a reply, a line the
// proxy had already refused keeps its own error, and the connection
// keeps serving. A panic in front of a single line (the serve.dispatch
// site) costs that line only, as on histserve.
func TestProxyPanicContainmentIsPerRun(t *testing.T) {
	spec, _ := threeShards(t)
	smap, err := shard.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Never marked ready, so no member-state loop reads the broken groups.
	p := newProxy(smap, 2, 0, testProbeEvery, shardclient.Options{})
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	t.Cleanup(p.close)
	groups := p.groups
	t.Cleanup(func() { p.groups = groups }) // before p.close closes them
	p.groups = append([]*shardclient.Group(nil), groups...)
	p.groups[0] = nil // routing anything to shard 0 dereferences it
	p.Inj = fault.MustParse("serve.dispatch:panic@7", 1)
	c := dial(t, serveProxy(t, p))

	got := sendAll(t, c, "INS 10 1 1 5\nINS 11 1 1\nDEL 12 1 1 5\nINS 13 1 1 5\n", 4)
	for i, l := range got {
		if want := "ERR internal error"; i != 1 && !strings.HasPrefix(l, want) {
			t.Errorf("reply %d = %q, want prefix %q", i, l, want)
		}
	}
	if want := "ERR INS needs time, 2 coordinates and a value"; got[1] != want {
		t.Errorf("reply 1 = %q, want its own %q", got[1], want)
	}
	if n := metricValue(t, p, "histproxy_panics_recovered_total"); n != 1 {
		t.Errorf("recovered-panic counter = %d after one broken run, want 1", n)
	}
	// Lines 5 and 6 are a healthy run to shard 1; line 7 panics alone.
	got = sendAll(t, c, "INS 150 1 1 5\nINS 151 1 1 5\n", 2)
	if fmt.Sprint(got) != "[OK OK]" {
		t.Fatalf("run to a healthy shard after the panic = %q", got)
	}
	got = sendAll(t, c, "INS 152 1 1 5\nINS 153 1 1 5\n", 2)
	if !strings.HasPrefix(got[0], "ERR internal error") || got[1] != "OK" {
		t.Fatalf("panic in front of one line of a run = %q, want that line only to fail", got)
	}
	if n := metricValue(t, p, "histproxy_inflight_requests"); n != 0 {
		t.Errorf("inflight gauge = %d after panics, want 0", n)
	}
}
