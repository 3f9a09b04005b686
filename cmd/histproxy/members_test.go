package main

// The member-state loop: one ROLE per member per -probe-every is how a
// member rejoins, how a primary is replaced, and what decides whether
// followers may serve reads. Real members throughout; a relay
// (fleettest.Relay) in front of one makes it report another min_acks=
// or synced=, or hang. Member health is read off SHARDS, hedges and
// failovers off /metrics, and what a member served off its own /metrics.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/fleettest"
	"histcube/internal/histproxy"
	"histcube/internal/linetest"
	"histcube/internal/oracle"
)

// replicaSet starts a durable primary with -repl-min-acks minAcks and n
// followers of it, all with -fsync fsync, and returns once every
// follower is connected (semi-sync needs the link up before the first
// write) and says synced=1.
func replicaSet(t *testing.T, fsync string, minAcks, n int) (primary *fleettest.Member, followers []*fleettest.Member) {
	t.Helper()
	cfg := fleettest.DurableConfig("sum", t.TempDir(), fsync)
	cfg.ReplMinAcks = minAcks
	primary = fleettest.StartMember(t, cfg)
	for range n {
		cfg := fleettest.DurableConfig("sum", t.TempDir(), fsync)
		cfg.Follow = primary.Addr
		followers = append(followers, fleettest.StartMember(t, cfg))
	}
	pc := linetest.Dial(t, primary.Addr)
	waitFor(t, "the followers to connect", func() bool {
		return strings.Contains(pc.Cmd(t, "ROLE"), fmt.Sprintf(" followers=%d ", n))
	})
	for _, f := range followers {
		fc := linetest.Dial(t, f.Addr)
		waitFor(t, "a follower to catch up", func() bool { return strings.Contains(fc.Cmd(t, "ROLE"), " synced=1 ") })
	}
	return primary, followers
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

// memberUp reports whether the proxy's SHARDS says member addr is up: a
// replica set's members as "<addr>:<role>=up|down", a lone member as
// its shard's state.
func memberUp(t *testing.T, c *linetest.Client, addr string) bool {
	t.Helper()
	for _, l := range c.Multi(t, "SHARDS")[1:] {
		f := strings.Fields(l)
		if members, ok := strings.CutPrefix(f[len(f)-1], "members="); ok {
			for _, m := range strings.Split(members, ",") {
				if rest, ok := strings.CutPrefix(m, addr+":"); ok {
					return strings.HasSuffix(rest, "=up")
				}
			}
		} else if f[0] == addr {
			return f[2] == "up"
		}
	}
	t.Fatalf("SHARDS names no member %s", addr)
	return false
}

// steadyConfig is testConfig with the given -hedge-after and a
// three-failure breaker, for the tests that count a follower's legs or
// assert no failover: one ROLE that a loaded test machine answers past
// the interval neither opens a member's breaker nor fails the primary
// over to a follower.
func steadyConfig(spec string, hedgeAfter time.Duration) histproxy.Config {
	cfg := testConfig(spec)
	cfg.HedgeAfter, cfg.BreakerThreshold = hedgeAfter, 3
	return cfg
}

// counting is an injector that fires on no verb ("-" is none) and counts
// every line a relay checks.
func counting() *fault.Injector { return fault.MustParse("-:err", 1) }

// hung stalls every line a proxy sends a member, ROLE included.
const hung = "ROLE:stall=1m;INS:stall=1m;DEL:stall=1m;QRY:stall=1m;EXPLAIN:stall=1m;STATS:stall=1m"

// hedgedReads reads off the proxy's /metrics how many read batches to
// shard it has hedged.
func hedgedReads(t *testing.T, p *histproxy.Proxy, shard string) int64 {
	t.Helper()
	return linetest.MetricValue(t, p.Reg, fmt.Sprintf("histproxy_hedged_reads{shard=%q}", shard))
}

// failovers reads the proxy's failover count off its /metrics.
func failovers(t *testing.T, p *histproxy.Proxy) int64 {
	t.Helper()
	return linetest.MetricValue(t, p.Reg, "histproxy_failovers_total")
}

// mustAck sends a mutation that must be acknowledged and feeds it to ref.
func mustAck(t *testing.T, c *linetest.Client, ref *oracle.Points, line string) {
	t.Helper()
	if got := c.Cmd(t, line); got != "OK" {
		t.Fatalf("%s = %q, want OK", line, got)
	}
	fleettest.Apply(t, ref, strings.Fields(line))
}

// answers sends each query of one window in one write and checks every
// reply against the oracle over ref.
func answers(t *testing.T, c *linetest.Client, ref oracle.Points, qrys ...string) {
	t.Helper()
	got := c.SendAll(t, strings.Join(qrys, "\n")+"\n", len(qrys))
	for i, qry := range qrys {
		if want := fleettest.Answer(t, ref, "sum", strings.Fields(qry)[1:]); got[i] != want {
			t.Fatalf("%s = %q, want %q", qry, got[i], want)
		}
	}
}

// TestMemberStateLoopSendsOneRolePerMemberPerTick: in steady state the
// loop costs each member one ROLE per -probe-every.
func TestMemberStateLoopSendsOneRolePerMemberPerTick(t *testing.T) {
	primary, followers := replicaSet(t, "never", 0, 1)
	lone := fleettest.StartMember(t, fleettest.MemberConfig("sum"))
	var relays []*fleettest.Relay
	var roles []*fault.Injector
	for _, m := range []*fleettest.Member{primary, followers[0], lone} {
		roles = append(roles, counting())
		relays = append(relays, fleettest.StartRelay(t, m, fleettest.Script{Faults: roles[len(roles)-1]}))
	}
	buildProxy(t, fmt.Sprintf("%s|%s=0-99,%s=100-", relays[0].Addr, relays[1].Addr, relays[2].Addr))
	var before []int64
	for _, r := range roles {
		before = append(before, r.Ops("ROLE"))
	}
	const window = 10 * testProbeEvery
	time.Sleep(window)
	for i, r := range roles {
		n := r.Ops("ROLE") - before[i]
		if n > int64(window/testProbeEvery)+1 {
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
	primary, followers := replicaSet(t, "never", 1, 1)
	cfg := testConfig(fmt.Sprintf("%s|%s=0-", primary.Addr, followers[0].Addr))
	cfg.ProbeEvery, cfg.BreakerThreshold = time.Hour, 3
	p := startConfigured(t, cfg)
	c := linetest.Dial(t, serveProxy(t, p))
	var acked oracle.Points
	mustAck(t, c, &acked, "INS 1 0 0 5")
	primary.Stop()
	const broken = "INS 2 0 0 5"
	if got := c.Cmd(t, broken); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("INS to the dead primary = %q, want ERR shard ... unavailable", got)
	}
	waitFor(t, "the follower to be promoted", func() bool { return failovers(t, p) == 1 })
	mustAck(t, c, &acked, "INS 3 0 0 5") // the promoted follower's OK
	// The semi-sync follower held the acked INS. The broken one was sent
	// after the primary had stopped, so no member applied it.
	answers(t, c, acked, "QRY 0 9 0 0 7 7")
}

// TestReadRuleFollowsPrimaryMinAcks: a replica set of a -repl-min-acks 2
// primary and two followers. While the primary's ROLE reports
// min_acks=1 (its relay's script), below the two followers the map
// names, every QRY leg goes to the primary — even with the primary slow
// enough that a hedge is due on every batch. Once it reports its own
// min_acks=2, legs and hedges reach the followers, and their answers are
// as exact as the primary's.
func TestReadRuleFollowsPrimaryMinAcks(t *testing.T) {
	primary, followers := replicaSet(t, "never", 2, 2)
	slow := fault.MustParse("QRY:slow=20ms", 1)
	relay := fleettest.StartRelay(t, primary, fleettest.Script{MinAcks: "1", Faults: slow})
	p := startConfigured(t, steadyConfig(fmt.Sprintf("%s|%s|%s=0-", relay.Addr, followers[0].Addr, followers[1].Addr), 2*time.Millisecond))
	c := linetest.Dial(t, serveProxy(t, p))
	var ref oracle.Points
	mustAck(t, c, &ref, "INS 1 0 0 5")
	mustAck(t, c, &ref, "INS 2 3 3 2")
	followerLegs := func() int64 { return served(t, followers[0], "QRY") + served(t, followers[1], "QRY") }
	for range 8 {
		answers(t, c, ref, "QRY 0 9 0 0 7 7", "QRY 0 1 0 0 7 7")
	}
	if n := followerLegs(); n != 0 {
		t.Fatalf("followers outside the ack quorum served %d QRY legs", n)
	}
	if n := hedgedReads(t, p, relay.Addr); n != 0 {
		t.Fatalf("%d read batches hedged to a follower outside the ack quorum", n)
	}

	relay.Set(fleettest.Script{Faults: slow})
	deadline := time.Now().Add(5 * time.Second)
	for followerLegs() == 0 || hedgedReads(t, p, relay.Addr) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("min_acks=2 covers both followers, yet after 5 s they served %d legs and %d batches were hedged",
				followerLegs(), hedgedReads(t, p, relay.Addr))
		}
		answers(t, c, ref, "QRY 0 9 0 0 7 7")
	}
}

// TestReadRuleSkipsASyncingFollower: a primary whose min_acks covers its
// one follower, slow enough that a hedge is due on every batch. While the
// follower's ROLE says synced=0 (its relay's script) it gets no QRY leg;
// within one -probe-every of saying its own synced=1 it serves again.
func TestReadRuleSkipsASyncingFollower(t *testing.T) {
	primary, followers := replicaSet(t, "never", 1, 1)
	toPrimary := fleettest.StartRelay(t, primary, fleettest.Script{Faults: fault.MustParse("QRY:slow=20ms", 1)})
	toFollower := fleettest.StartRelay(t, followers[0], fleettest.Script{Synced: "0"})
	p := startConfigured(t, steadyConfig(fmt.Sprintf("%s|%s=0-", toPrimary.Addr, toFollower.Addr), 2*time.Millisecond))
	c := linetest.Dial(t, serveProxy(t, p))
	var ref oracle.Points
	mustAck(t, c, &ref, "INS 1 0 0 5")
	for range 8 {
		answers(t, c, ref, "QRY 0 9 0 0 7 7", "QRY 0 1 0 0 7 7")
	}
	if n := served(t, followers[0], "QRY"); n != 0 {
		t.Fatalf("a follower that said synced=0 served %d QRY legs", n)
	}
	if n := hedgedReads(t, p, toPrimary.Addr); n != 0 {
		t.Fatalf("%d read batches hedged to a follower that said synced=0", n)
	}

	toFollower.Set(fleettest.Script{})
	synced := time.Now()
	for served(t, followers[0], "QRY") == 0 {
		if time.Since(synced) > 5*time.Second {
			t.Fatal("the follower said synced=1, yet after 5 s it had served no QRY leg")
		}
		answers(t, c, ref, "QRY 0 9 0 0 7 7")
	}
	// One tick, plus the round, one hedged query and the scheduler's slack.
	if d := time.Since(synced); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("the follower served %v after saying synced=1, want within one -probe-every (%v)", d, testProbeEvery)
	}
}

// TestRejoiningFollowerServesNoReadBeforeItsRound: a follower that was
// marked down comes back still catching up (synced=0, its relay's script)
// while another shard's member hangs, so every round lasts the whole
// interval. Its ROLE closes its breaker early in the round, yet it
// serves no QRY leg: follower reads stay off until the round has applied
// its synced=0.
func TestRejoiningFollowerServesNoReadBeforeItsRound(t *testing.T) {
	primary, followers := replicaSet(t, "never", 1, 1)
	follower := followers[0]
	toFollower := fleettest.StartRelay(t, follower, fleettest.Script{})
	toHung := fleettest.StartRelay(t, fleettest.StartMember(t, fleettest.MemberConfig("sum")),
		fleettest.Script{Faults: fault.MustParse(hung, 1)})
	p := startConfigured(t, steadyConfig(fmt.Sprintf("%s|%s=0-99,%s=100-", primary.Addr, toFollower.Addr, toHung.Addr), 0))
	c := linetest.Dial(t, serveProxy(t, p))
	var ref oracle.Points
	mustAck(t, c, &ref, "INS 1 0 0 5")
	follower.Stop()
	waitFor(t, "the stopped follower to be down", func() bool { return !memberUp(t, c, toFollower.Addr) })

	toFollower.Set(fleettest.Script{Synced: "0"})
	follower.Restart(t)
	for back := time.Now(); time.Since(back) < 4*testProbeEvery || !memberUp(t, c, toFollower.Addr); {
		if time.Since(back) > 5*time.Second {
			t.Fatal("the rejoined follower stayed down")
		}
		answers(t, c, ref, "QRY 0 9 0 0 7 7")
	}
	if n := served(t, follower, "QRY"); n != 0 {
		t.Fatalf("a rejoining follower that says synced=0 served %d QRY legs", n)
	}
	if n := failovers(t, p); n != 0 {
		t.Fatalf("%d failovers: the follower served as a primary", n)
	}
}

// TestMemberRejoinsWithinOneProbeInterval: a member that comes back has
// its breaker closed by the next ROLE, within one -probe-every, with no
// client traffic at all: the member serves no line but the loop's ROLEs.
func TestMemberRejoinsWithinOneProbeInterval(t *testing.T) {
	primary, followers := replicaSet(t, "never", 0, 1)
	follower := followers[0]
	p := startConfigured(t, steadyConfig(fmt.Sprintf("%s|%s=0-", primary.Addr, follower.Addr), 0))
	c := linetest.Dial(t, serveProxy(t, p))
	follower.Stop()
	waitFor(t, "the loop's ROLEs to mark the dead follower down", func() bool { return !memberUp(t, c, follower.Addr) })
	follower.Restart(t)
	back := time.Now()
	for !memberUp(t, c, follower.Addr) {
		if time.Since(back) > 5*time.Second {
			t.Fatal("the rejoined follower stayed down")
		}
		time.Sleep(time.Millisecond)
	}
	// One tick, plus the round itself and the scheduler's slack.
	if d := time.Since(back); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("breaker closed %v after the follower came back, want within one -probe-every (%v)", d, testProbeEvery)
	}
	if n := servedLines(t, follower); n != 0 {
		t.Errorf("the follower served %d client lines; only the loop's ROLE may close a breaker", n)
	}
	if n := failovers(t, p); n != 0 {
		t.Errorf("a follower's outage caused %d failovers", n)
	}
}

// TestHungPrimaryFailsOverAndOthersStillRejoin: a primary that keeps its
// connections but answers nothing, ROLE included (every line stalls in
// its relay), under a -shard-timeout far above the interval. Its probes
// fail at the interval, so the loop promotes its follower within a few
// ticks, and a member of another shard that comes back meanwhile still
// rejoins within one interval.
func TestHungPrimaryFailsOverAndOthersStillRejoin(t *testing.T) {
	primary, followers := replicaSet(t, "never", 1, 1)
	toPrimary := fleettest.StartRelay(t, primary, fleettest.Script{})
	lone := fleettest.StartMember(t, fleettest.MemberConfig("sum"))
	p := buildProxyWith(t, fmt.Sprintf("%s|%s=0-99,%s=100-", toPrimary.Addr, followers[0].Addr, lone.Addr), 0, 2*time.Second)
	c := linetest.Dial(t, serveProxy(t, p))
	var ref oracle.Points
	mustAck(t, c, &ref, "INS 1 0 0 5")
	lone.Stop()
	waitFor(t, "the stopped member to be down", func() bool { return !memberUp(t, c, lone.Addr) })

	toPrimary.Set(fleettest.Script{Faults: fault.MustParse(hung, 1)})
	hungAt := time.Now()
	waitFor(t, "the hung primary's follower to be promoted", func() bool { return failovers(t, p) == 1 })
	if d := time.Since(hungAt); d > 10*testProbeEvery {
		t.Errorf("promoted %v after the primary hung, want within a few -probe-every (%v)", d, testProbeEvery)
	}
	mustAck(t, c, &ref, "INS 5 0 0 1") // the promoted follower's OK
	answers(t, c, ref, "QRY 0 9 0 0 7 7")

	lone.Restart(t)
	back := time.Now()
	waitFor(t, "the returning member to be up", func() bool { return memberUp(t, c, lone.Addr) })
	if d := time.Since(back); d > testProbeEvery+150*time.Millisecond {
		t.Errorf("breaker closed %v after the member came back while another shard's primary hangs, want within one -probe-every (%v)", d, testProbeEvery)
	}
}
