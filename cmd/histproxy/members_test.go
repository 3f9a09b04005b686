package main

// The member-state loop as a client and a fake member see it; the cases
// that read each member's breaker and hedge counts live in
// internal/histproxy.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"histcube/internal/fleettest"
	"histcube/internal/linetest"
)

// TestMemberStateLoopSendsOneRolePerMemberPerTick: in steady state the
// loop costs each member one ROLE per -probe-every.
func TestMemberStateLoopSendsOneRolePerMemberPerTick(t *testing.T) {
	primary, follower, lone := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	follower.Set(func(f *fleettest.FakeShard) { f.Replica = true })
	buildProxy(t, fmt.Sprintf("%s|%s=0-99,%s=100-", primary.Addr, follower.Addr, lone.Addr))
	roles := func(f *fleettest.FakeShard) (n int) {
		f.Set(func(f *fleettest.FakeShard) { n = f.Roles })
		return n
	}
	before := []int{roles(primary), roles(follower), roles(lone)}
	const window = 10 * testProbeEvery
	time.Sleep(window)
	for i, f := range []*fleettest.FakeShard{primary, follower, lone} {
		n := roles(f) - before[i]
		if n > int(window/testProbeEvery)+1 {
			t.Errorf("member %d answered %d ROLEs in %v, want at most one per %v", i, n, window, testProbeEvery)
		}
		if n == 0 {
			t.Errorf("member %d answered no ROLE in %v", i, window)
		}
	}
}

// TestBrokenWriteFailsOverBeforeTheBreakerOpens: a mutation batch that
// breaks on a dead primary wakes the loop, and the ROLE the primary then
// misses is enough to promote its follower — a three-failure breaker has
// seen two, and with an hourly tick no later round comes to add the third.
func TestBrokenWriteFailsOverBeforeTheBreakerOpens(t *testing.T) {
	primary, follower := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	follower.Set(func(f *fleettest.FakeShard) { f.Replica = true })
	cfg := testConfig(fmt.Sprintf("%s|%s=0-", primary.Addr, follower.Addr))
	cfg.ProbeEvery, cfg.BreakerThreshold = time.Hour, 3
	p := startConfigured(t, cfg)
	c := linetest.Dial(t, serveProxy(t, p))
	if got := c.Cmd(t, "INS 1 0 0 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	primary.Stop()
	if got := c.Cmd(t, "INS 2 0 0 5"); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("INS to the dead primary = %q, want ERR shard ... unavailable", got)
	}
	for deadline := time.Now().Add(5 * time.Second); linetest.MetricValue(t, p.Reg, "histproxy_failovers_total") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("waited 5 s for the follower to be promoted")
		}
	}
	if got := c.Cmd(t, "INS 3 0 0 5"); got != "OK" {
		t.Fatalf("INS after failover = %q, want the promoted follower's OK", got)
	}
}
