package histproxy

// The member-state loop: one ROLE per member per -probe-every is how a
// member rejoins, how a primary is replaced, and what decides whether
// followers may serve reads.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"histcube/internal/fleettest"
	"histcube/internal/linetest"
)

// qryLines returns the QRY lines a fake shard received.
func qryLines(f *fleettest.FakeShard) (n int) {
	for _, l := range f.Received() {
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
	primary, f1, f2 := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	primary.Set(func(f *fleettest.FakeShard) { f.MinAcks, f.QryDelay = 1, 20*time.Millisecond })
	for _, f := range []*fleettest.FakeShard{f1, f2} {
		f.Set(func(f *fleettest.FakeShard) { f.Replica = true })
	}
	p := buildProxyWith(t, fmt.Sprintf("%s|%s|%s=0-", primary.Addr, f1.Addr, f2.Addr), 2*time.Millisecond, time.Second)
	c := linetest.Dial(t, serveProxy(t, p))
	if got := c.Cmd(t, "INS 1 0 0 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	for i := 0; i < 8; i++ {
		if got := c.SendAll(t, "QRY 0 9 0 0 7 7\nQRY 0 1 0 0 7 7\n", 2); strings.Join(got, "|") != "0|0" {
			t.Fatalf("window %d answered %q, want 0|0", i, got)
		}
	}
	if n := qryLines(f1) + qryLines(f2); n != 0 {
		t.Fatalf("followers outside the ack quorum received %d QRY legs", n)
	}
	if n := p.groups[0].Hedged(); n != 0 {
		t.Fatalf("%d read batches hedged to a follower outside the ack quorum", n)
	}

	primary.Set(func(f *fleettest.FakeShard) { f.MinAcks = 2 })
	deadline := time.Now().Add(5 * time.Second)
	for qryLines(f1)+qryLines(f2) == 0 || p.groups[0].Hedged() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("min_acks=2 covers both followers, yet after 5 s they received %d legs and %d batches hedged",
				qryLines(f1)+qryLines(f2), p.groups[0].Hedged())
		}
		if got := c.Cmd(t, "QRY 0 9 0 0 7 7"); got != "0" {
			t.Fatalf("QRY = %q", got)
		}
	}
}

// TestReadRuleSkipsASyncingFollower: a primary whose min_acks covers its
// one follower, slow enough that a hedge is due on every batch. While the
// follower's ROLE says synced=0 it is still catching up and gets no QRY
// leg; within one -probe-every of saying synced=1 it serves again.
func TestReadRuleSkipsASyncingFollower(t *testing.T) {
	primary, follower := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	primary.Set(func(f *fleettest.FakeShard) { f.MinAcks, f.QryDelay = 1, 20*time.Millisecond })
	follower.Set(func(f *fleettest.FakeShard) { f.Replica, f.Syncing = true, true })
	p := buildProxyWith(t, fmt.Sprintf("%s|%s=0-", primary.Addr, follower.Addr), 2*time.Millisecond, time.Second)
	c := linetest.Dial(t, serveProxy(t, p))
	if got := c.Cmd(t, "INS 1 0 0 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	for i := 0; i < 8; i++ {
		if got := c.SendAll(t, "QRY 0 9 0 0 7 7\nQRY 0 1 0 0 7 7\n", 2); strings.Join(got, "|") != "0|0" {
			t.Fatalf("window %d answered %q, want 0|0", i, got)
		}
	}
	if n := qryLines(follower); n != 0 {
		t.Fatalf("a follower that said synced=0 received %d QRY legs", n)
	}
	if n := p.groups[0].Hedged(); n != 0 {
		t.Fatalf("%d read batches hedged to a follower that said synced=0", n)
	}

	follower.Set(func(f *fleettest.FakeShard) { f.Syncing = false })
	synced := time.Now()
	for qryLines(follower) == 0 {
		if time.Since(synced) > 5*time.Second {
			t.Fatal("the follower said synced=1, yet after 5 s it had received no QRY leg")
		}
		if got := c.Cmd(t, "QRY 0 9 0 0 7 7"); got != "0" {
			t.Fatalf("QRY = %q", got)
		}
	}
	// One tick, plus the round, one hedged query and the scheduler's slack.
	if d := time.Since(synced); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("the follower served %v after saying synced=1, want within one -probe-every (%v)", d, testProbeEvery)
	}
}

// TestRejoiningFollowerServesNoReadBeforeItsRound: a follower whose
// breaker is open comes back still catching up while another shard's
// member hangs, so every round lasts the whole interval. Its ROLE closes
// its breaker early in the round, yet it gets no QRY leg: follower reads
// stay off until the round has applied its synced=0.
func TestRejoiningFollowerServesNoReadBeforeItsRound(t *testing.T) {
	primary, follower, hung := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	primary.Set(func(f *fleettest.FakeShard) { f.MinAcks = 1 })
	follower.Set(func(f *fleettest.FakeShard) { f.Replica = true })
	hung.Set(func(f *fleettest.FakeShard) { f.Hung = true })
	p := buildProxy(t, fmt.Sprintf("%s|%s=0-99,%s=100-", primary.Addr, follower.Addr, hung.Addr))
	g := p.groups[0]
	follower.Stop()
	waitFor(t, "the stopped follower's breaker to open", func() bool { return !g.Member(1).Healthy() })

	follower.Set(func(f *fleettest.FakeShard) { f.Syncing = true })
	follower.Restart(t)
	c := linetest.Dial(t, serveProxy(t, p))
	for back := time.Now(); time.Since(back) < 4*testProbeEvery || !g.Member(1).Healthy(); {
		if time.Since(back) > 5*time.Second {
			t.Fatal("the rejoined follower's breaker stayed open")
		}
		if got := c.Cmd(t, "QRY 0 9 0 0 7 7"); got != "0" {
			t.Fatalf("QRY = %q, want 0", got)
		}
	}
	if n := qryLines(follower); n != 0 {
		t.Fatalf("a rejoining follower that says synced=0 received %d QRY legs", n)
	}
}

// TestMemberRejoinsWithinOneProbeInterval: a member that comes back has
// its breaker closed by the next ROLE, within one -probe-every, with no
// client traffic at all — the fake records no line but the loop's ROLEs.
func TestMemberRejoinsWithinOneProbeInterval(t *testing.T) {
	primary, follower := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	follower.Set(func(f *fleettest.FakeShard) { f.Replica = true })
	p := buildProxy(t, fmt.Sprintf("%s|%s=0-", primary.Addr, follower.Addr))
	g := p.groups[0]
	follower.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for g.Member(1).Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("the loop's ROLE never opened the dead follower's breaker")
		}
		time.Sleep(time.Millisecond)
	}
	follower.Restart(t)
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
	if got := follower.Received(); len(got) != 0 {
		t.Errorf("the follower received client lines %q; only the loop's ROLE may close a breaker", got)
	}
	if n := p.failovers.Value(); n != 0 {
		t.Errorf("a follower's outage caused %d failovers", n)
	}
}

// TestHungPrimaryFailsOverAndOthersStillRejoin: a primary that keeps its
// connections but answers nothing, ROLE included, under a -shard-timeout
// far above the interval. Its probes fail at the interval, so the loop
// promotes its follower within a few ticks, and a member of another
// shard that comes back meanwhile still rejoins within one interval.
func TestHungPrimaryFailsOverAndOthersStillRejoin(t *testing.T) {
	primary, follower, lone := fleettest.NewFakeShard(t), fleettest.NewFakeShard(t), fleettest.NewFakeShard(t)
	follower.Set(func(f *fleettest.FakeShard) { f.Replica = true })
	p := buildProxyWith(t, fmt.Sprintf("%s|%s=0-99,%s=100-", primary.Addr, follower.Addr, lone.Addr), 0, 2*time.Second)
	lone.Stop()
	waitFor(t, "the stopped member's breaker to open", func() bool { return !p.groups[1].Primary().Healthy() })

	primary.Set(func(f *fleettest.FakeShard) { f.Hung = true })
	hung := time.Now()
	waitFor(t, "the hung primary's follower to be promoted", func() bool { return p.failovers.Value() == 1 })
	if d := time.Since(hung); d > 10*testProbeEvery {
		t.Errorf("promoted %v after the primary hung, want within a few -probe-every (%v)", d, testProbeEvery)
	}
	if got := linetest.Dial(t, serveProxy(t, p)).Cmd(t, "INS 5 0 0 1"); got != "OK" {
		t.Fatalf("INS after failover = %q, want the promoted follower's OK", got)
	}

	lone.Restart(t)
	back := time.Now()
	waitFor(t, "the returning member's breaker to close", func() bool { return p.groups[1].Primary().Healthy() })
	if d := time.Since(back); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("breaker closed %v after the member came back while another shard's primary hangs, want within one -probe-every (%v)", d, testProbeEvery)
	}
}
