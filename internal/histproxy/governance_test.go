package histproxy

// The governance cases of the serving core (internal/lineserver has the
// full conformance table) run thinly against the real proxy: its table
// and its settle function are wired into the same loop as histserve's.

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"

	"histcube/internal/fault"
	"histcube/internal/fleettest"
	"histcube/internal/shardclient"
)

// TestProxyPanicContainmentIsPerRun pins the barrier's granularity on
// the proxy. A unit's work happens in one place — the batch round trips
// of settle — so a panic there costs every line the unit was routing:
// each answers ERR internal, none is left without a reply, a line the
// proxy had already refused keeps its own error, and the connection
// keeps serving. A panic in front of a single line (the serve.dispatch
// site) costs that line only, as on histserve.
func TestProxyPanicContainmentIsPerRun(t *testing.T) {
	spec, _ := threeShards(t)
	// Never started, so no member-state loop reads the broken groups.
	p, err := New(testConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	t.Cleanup(p.Close)
	groups := p.groups
	t.Cleanup(func() { p.groups = groups }) // before p.Close closes them
	p.groups = append([]*shardclient.Group(nil), groups...)
	p.groups[0] = nil // routing anything to shard 0 dereferences it
	p.Inj = fault.MustParse("serve.dispatch:panic@7", 1)
	c := fleettest.Dial(t, serveProxy(t, p))

	got := c.SendAll(t, "INS 10 1 1 5\nINS 11 1 1\nDEL 12 1 1 5\nINS 13 1 1 5\n", 4)
	for i, l := range got {
		if want := "ERR internal error"; i != 1 && !strings.HasPrefix(l, want) {
			t.Errorf("reply %d = %q, want prefix %q", i, l, want)
		}
	}
	if want := "ERR INS needs time, 2 coordinates and a value"; got[1] != want {
		t.Errorf("reply 1 = %q, want its own %q", got[1], want)
	}
	if n := fleettest.MetricValue(t, p.Reg, "histproxy_panics_recovered_total"); n != 1 {
		t.Errorf("recovered-panic counter = %d after one broken run, want 1", n)
	}
	// Lines 5 and 6 are a healthy run to shard 1; line 7 panics alone.
	got = c.SendAll(t, "INS 150 1 1 5\nINS 151 1 1 5\n", 2)
	if fmt.Sprint(got) != "[OK OK]" {
		t.Fatalf("run to a healthy shard after the panic = %q", got)
	}
	got = c.SendAll(t, "INS 152 1 1 5\nINS 153 1 1 5\n", 2)
	if !strings.HasPrefix(got[0], "ERR internal error") || got[1] != "OK" {
		t.Fatalf("panic in front of one line of a run = %q, want that line only to fail", got)
	}
	if n := fleettest.MetricValue(t, p.Reg, "histproxy_inflight_requests"); n != 0 {
		t.Errorf("inflight gauge = %d after panics, want 0", n)
	}
}
