package main

// The member-state loop: one ROLE per member per -probe-every is how a
// member rejoins, how a primary is replaced, and what decides whether
// followers may serve reads.

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"histcube/internal/shard"
	"histcube/internal/shardclient"
)

// qryLines returns the QRY lines a fake shard received.
func qryLines(f *fakeShard) (n int) {
	for _, l := range f.received() {
		if _, stripped, _ := strings.Cut(l, " "); strings.HasPrefix(stripped, "QRY") {
			n++
		}
	}
	return n
}

// TestReadRuleFollowsPrimaryMinAcks: a replica set of a primary and two
// followers. While the primary's ROLE reports min_acks=1, below the two
// followers the map names, every QRY leg goes to the primary — even
// with the primary slow enough that a hedge is due on every batch. Once
// it reports min_acks=2, legs and hedges reach the followers.
func TestReadRuleFollowsPrimaryMinAcks(t *testing.T) {
	primary, f1, f2 := newFakeShard(t), newFakeShard(t), newFakeShard(t)
	primary.set(func(f *fakeShard) { f.minAcks, f.qryDelay = 1, 20*time.Millisecond })
	for _, f := range []*fakeShard{f1, f2} {
		f.set(func(f *fakeShard) { f.replica = true })
	}
	p := buildProxyWith(t, fmt.Sprintf("%s|%s|%s=0-", primary.addr(), f1.addr(), f2.addr()), 2*time.Millisecond, time.Second)
	c := dial(t, serveProxy(t, p))
	if got := c.cmd(t, "INS 1 0 0 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	for i := 0; i < 8; i++ {
		if got := sendAll(t, c, "QRY 0 9 0 0 7 7\nQRY 0 1 0 0 7 7\n", 2); strings.Join(got, "|") != "5|5" {
			t.Fatalf("window %d answered %q, want the primary's 5|5", i, got)
		}
	}
	if n := qryLines(f1) + qryLines(f2); n != 0 {
		t.Fatalf("followers outside the ack quorum received %d QRY legs", n)
	}
	if n := p.groups[0].Hedged(); n != 0 {
		t.Fatalf("%d read batches hedged to a follower outside the ack quorum", n)
	}

	primary.set(func(f *fakeShard) { f.minAcks = 2 })
	deadline := time.Now().Add(5 * time.Second)
	for qryLines(f1)+qryLines(f2) == 0 || p.groups[0].Hedged() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("min_acks=2 covers both followers, yet after 5 s they received %d legs and %d batches hedged",
				qryLines(f1)+qryLines(f2), p.groups[0].Hedged())
		}
		// The followers hold nothing, the primary 5: either answer is a
		// member's own, and the one to reach the followers shows the rule.
		if got := c.cmd(t, "QRY 0 9 0 0 7 7"); got != "5" && got != "0" {
			t.Fatalf("QRY = %q", got)
		}
	}
}

// TestMemberRejoinsWithinOneProbeInterval: a member that comes back has
// its breaker closed by the next ROLE, within one -probe-every, with no
// client traffic at all — the fake records no line but the loop's ROLEs.
func TestMemberRejoinsWithinOneProbeInterval(t *testing.T) {
	primary, follower := newFakeShard(t), newFakeShard(t)
	follower.set(func(f *fakeShard) { f.replica = true })
	p := buildProxy(t, fmt.Sprintf("%s|%s=0-", primary.addr(), follower.addr()))
	g := p.groups[0]
	follower.stop()
	deadline := time.Now().Add(5 * time.Second)
	for g.Member(1).Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("the loop's ROLE never opened the dead follower's breaker")
		}
		time.Sleep(time.Millisecond)
	}
	follower.restart(t)
	back := time.Now()
	for !g.Member(1).Healthy() {
		if time.Since(back) > 5*time.Second {
			t.Fatal("the rejoined follower's breaker stayed open")
		}
		time.Sleep(time.Millisecond)
	}
	// One tick, plus the round itself and the scheduler's slack.
	if d := time.Since(back); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("breaker closed %v after the follower came back, want within one -probe-every (%v)", d, testProbeEvery)
	}
	if got := follower.received(); len(got) != 0 {
		t.Errorf("the follower received client lines %q; only the loop's ROLE may close a breaker", got)
	}
	if n := p.failovers.Value(); n != 0 {
		t.Errorf("a follower's outage caused %d failovers", n)
	}
}

// TestMemberStateLoopSendsOneRolePerMemberPerTick: in steady state the
// loop costs each member one ROLE per -probe-every.
func TestMemberStateLoopSendsOneRolePerMemberPerTick(t *testing.T) {
	primary, follower, lone := newFakeShard(t), newFakeShard(t), newFakeShard(t)
	follower.set(func(f *fakeShard) { f.replica = true })
	buildProxy(t, fmt.Sprintf("%s|%s=0-99,%s=100-", primary.addr(), follower.addr(), lone.addr()))
	roles := func(f *fakeShard) (n int) {
		f.set(func(f *fakeShard) { n = f.roles })
		return n
	}
	before := []int{roles(primary), roles(follower), roles(lone)}
	const window = 10 * testProbeEvery
	time.Sleep(window)
	for i, f := range []*fakeShard{primary, follower, lone} {
		n := roles(f) - before[i]
		if n > int(window/testProbeEvery)+1 {
			t.Errorf("member %d answered %d ROLEs in %v, want at most one per %v", i, n, window, testProbeEvery)
		}
		if n == 0 {
			t.Errorf("member %d answered no ROLE in %v", i, window)
		}
	}
}

// TestHungPrimaryFailsOverAndOthersStillRejoin: a primary that keeps its
// connections but answers nothing, ROLE included, under a -shard-timeout
// far above the interval. Its probes fail at the interval, so the loop
// promotes its follower within a few ticks, and a member of another
// shard that comes back meanwhile still rejoins within one interval.
func TestHungPrimaryFailsOverAndOthersStillRejoin(t *testing.T) {
	primary, follower, lone := newFakeShard(t), newFakeShard(t), newFakeShard(t)
	follower.set(func(f *fakeShard) { f.replica = true })
	p := buildProxyWith(t, fmt.Sprintf("%s|%s=0-99,%s=100-", primary.addr(), follower.addr(), lone.addr()), 0, 2*time.Second)
	lone.stop()
	waitFor(t, "the stopped member's breaker to open", func() bool { return !p.groups[1].Primary().Healthy() })

	primary.set(func(f *fakeShard) { f.hung = true })
	hung := time.Now()
	waitFor(t, "the hung primary's follower to be promoted", func() bool { return p.failovers.Value() == 1 })
	if d := time.Since(hung); d > 10*testProbeEvery {
		t.Errorf("promoted %v after the primary hung, want within a few -probe-every (%v)", d, testProbeEvery)
	}
	if got := dial(t, serveProxy(t, p)).cmd(t, "INS 5 0 0 1"); got != "OK" {
		t.Fatalf("INS after failover = %q, want the promoted follower's OK", got)
	}

	lone.restart(t)
	back := time.Now()
	waitFor(t, "the returning member's breaker to close", func() bool { return p.groups[1].Primary().Healthy() })
	if d := time.Since(back); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("breaker closed %v after the member came back while another shard's primary hangs, want within one -probe-every (%v)", d, testProbeEvery)
	}
}

// TestBrokenWriteFailsOverBeforeTheBreakerOpens: a mutation batch that
// breaks on a dead primary wakes the loop, and the ROLE the primary then
// misses is enough to promote its follower — a three-failure breaker has
// seen two, and with an hourly tick no later round comes to add the third.
func TestBrokenWriteFailsOverBeforeTheBreakerOpens(t *testing.T) {
	primary, follower := newFakeShard(t), newFakeShard(t)
	follower.set(func(f *fakeShard) { f.replica = true })
	smap, err := shard.Parse(fmt.Sprintf("%s|%s=0-", primary.addr(), follower.addr()))
	if err != nil {
		t.Fatal(err)
	}
	p := newProxy(smap, 2, 0, time.Hour, shardclient.Options{OpTimeout: time.Second, BreakerThreshold: 3})
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	t.Cleanup(p.close)
	p.markReady()
	c := dial(t, serveProxy(t, p))
	if got := c.cmd(t, "INS 1 0 0 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	primary.stop()
	if got := c.cmd(t, "INS 2 0 0 5"); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("INS to the dead primary = %q, want ERR shard ... unavailable", got)
	}
	waitFor(t, "the follower to be promoted", func() bool { return p.failovers.Value() == 1 })
	if got := c.cmd(t, "INS 3 0 0 5"); got != "OK" {
		t.Fatalf("INS after failover = %q, want the promoted follower's OK", got)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 5 s for %s", what)
		}
	}
}
