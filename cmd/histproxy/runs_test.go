package main

// Units: the INS/DEL/QRY lines a connection had buffered travel as one
// batch round trip per shard. Nothing of that may be visible to a
// client except as speed — the same replies, in the same order, as one
// line at a time — and a unit that breaks must still answer every line.

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/fleettest"
	"histcube/internal/histproxy"
	"histcube/internal/linetest"
	"histcube/internal/oracle"
	"histcube/internal/trace"
)

func TestRunSpansOwnersRepliesInRequestOrder(t *testing.T) {
	spec, members := threeMembers(t)
	addr, p := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	lines := []string{
		"INS 10 1 1 5",   // shard 0
		"INS 250 2 2 7",  // shard 2
		"INS 20 1 1",     // arity error inside the run
		"DEL 10 1 1 2",   // shard 0, after its INS
		"INS 150 3 3 11", // shard 1
		"INS x 1 1 1",    // bad integer inside the run
		"INS 260 2 2 1",  // shard 2
		"QRY 0 300 0 0 7 7",
		"INS 270 0 0 100",
		"QRY 0 300 0 0 7 7",
	}
	got := c.SendAll(t, strings.Join(lines, "\n")+"\n", len(lines))
	want := []string{"OK", "OK", "ERR INS needs time, 2 coordinates and a value", "OK", "OK",
		`ERR bad integer "x"`, "OK", "22", "OK", "122"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replies\n %q\nwant\n %q", got, want)
	}
	// Within an owner the run keeps request order: each member served
	// its mutations in it (its recent ring lists the newest first).
	for i, wantLines := range [][]string{
		{"INS 10 1 1 5", "DEL 10 1 1 2"},
		{"INS 150 3 3 11"},
		{"INS 250 2 2 7", "INS 260 2 2 1", "INS 270 0 0 100"},
	} {
		var muts []string
		for _, e := range members[i].Server().Recent.Entries() {
			if strings.HasPrefix(e.Line, "INS") || strings.HasPrefix(e.Line, "DEL") {
				muts = append([]string{e.Line}, muts...)
			}
		}
		if strings.Join(muts, "|") != strings.Join(wantLines, "|") {
			t.Errorf("member %d served mutations %q, want %q", i, muts, wantLines)
		}
	}
	// Every line is accounted under its own verb, errors included.
	if n := linetest.MetricValue(t, p.Reg, `histproxy_request_seconds_count{cmd="INS"}`); n != 7 {
		t.Errorf("INS requests accounted = %d, want 7", n)
	}
	if n := linetest.MetricValue(t, p.Reg, `histproxy_errors_total{cmd="INS"}`); n != 2 {
		t.Errorf("INS errors accounted = %d, want 2", n)
	}
	if n := linetest.MetricValue(t, p.Reg, `histproxy_request_seconds_count{cmd="DEL"}`); n != 1 {
		t.Errorf("DEL requests accounted = %d, want 1", n)
	}
}

// batchOf returns the batch attribute — the lines that shared the round
// trip — of the retained trace of line: the root's for a mutation, its
// proxy.leg children's for a query.
func batchOf(t *testing.T, p *histproxy.Proxy, line string) []string {
	t.Helper()
	for _, e := range p.Recent.Entries() {
		if e.Line != line {
			continue
		}
		var out []string
		for _, sp := range append([]*trace.Span{e.Span}, e.Span.Children()...) {
			if v, ok := sp.JSON().Attrs["batch"]; ok {
				out = append(out, fmt.Sprint(v))
			}
		}
		return out
	}
	t.Fatalf("no retained trace for %q", line)
	return nil
}

// TestUnitIsOneRoundTripPerShard pins the unit rule's proxy face: the
// complete INS/DEL/QRY lines of one write are one unit — one batch round
// trip per shard, every reply in one flush — and the trailing partial
// line neither joins nor delays them. Shard 1's relay holds every QRY for
// 400 ms, and the two OKs wait for its leg with the rest of their window;
// shard 0 serves exactly the unit's three lines to it. EXPLAIN, STATS and
// SHARDS still end a unit.
func TestUnitIsOneRoundTripPerShard(t *testing.T) {
	spec, members := threeMembers(t)
	slow := fault.MustParse("QRY:slow=400ms", 1)
	relay := fleettest.StartRelay(t, members[1], fleettest.Script{Faults: slow})
	addr, p := startProxy(t, strings.Replace(spec, members[1].Addr, relay.Addr, 1))
	c := linetest.Dial(t, addr)
	var ref oracle.Points
	if _, err := io.WriteString(c.Conn, "INS 10 1 1 5\nINS 11 1 1 5\nQRY 0 150 0 0 7 7\nINS 12 1 1 5"); err != nil {
		t.Fatal(err)
	}
	c.Conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if l, err := c.R.ReadString('\n'); err == nil {
		t.Fatalf("reply %q left before the unit's slow leg was in: a unit has one flush", l)
	}
	c.Conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fleettest.Apply(t, &ref, strings.Fields("INS 10 1 1 5"))
	fleettest.Apply(t, &ref, strings.Fields("INS 11 1 1 5"))
	for i, want := range []string{"OK\n", "OK\n", fleettest.Answer(t, ref, "sum", strings.Fields("0 150 0 0 7 7")) + "\n"} {
		if l, err := c.R.ReadString('\n'); err != nil || l != want {
			t.Fatalf("reply %d = %q, %v, want %q", i, l, err, want)
		}
	}
	for line, want := range map[string]string{
		"INS 10 1 1 5": "[3]", "INS 11 1 1 5": "[3]", "QRY 0 150 0 0 7 7": "[3 1]",
	} {
		if got := fmt.Sprint(batchOf(t, p, line)); got != want {
			t.Errorf("%q shared its round trips with %s lines, want %s", line, got, want)
		}
	}
	if n, legs := servedLines(t, members[0]), slow.Ops("QRY"); n != 3 || legs != 1 {
		t.Errorf("shard 0 served %d lines and shard 1 was sent %d legs, want the unit's 3 and 1", n, legs)
	}
	// The trailing partial line neither joined the unit nor was answered.
	c.Conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if l, err := c.R.ReadString('\n'); err == nil {
		t.Fatalf("partial line was answered %q", l)
	}
	c.Conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	slow.Heal()
	if got := c.Cmd(t, ""); got != "OK" { // completes "INS 12 1 1 5"
		t.Fatalf("completed partial line -> %q", got)
	}
	fleettest.Apply(t, &ref, strings.Fields("INS 12 1 1 5"))

	// A line of any other verb is a unit of one and splits the window.
	if _, err := io.WriteString(c.Conn, "INS 20 1 1 1\nEXPLAIN QRY 0 50 0 0 7 7\nINS 21 1 1 1\nSTATS\n"+
		"INS 22 1 1 1\nSHARDS\nINS 23 1 1 1\nQRY 0 50 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	readLine := func() string {
		l, err := c.R.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(l)
	}
	for ends := 0; ends < 2; { // through the END of EXPLAIN's reply and of SHARDS'
		if readLine() == "END" {
			ends++
		}
	}
	for _, ins := range []string{"INS 20 1 1 1", "INS 21 1 1 1", "INS 22 1 1 1", "INS 23 1 1 1"} {
		fleettest.Apply(t, &ref, strings.Fields(ins))
	}
	if ok, sum, want := readLine(), readLine(), fleettest.Answer(t, ref, "sum", strings.Fields("0 50 0 0 7 7")); ok != "OK" || sum != want {
		t.Fatalf("last two replies of the split window = %q, %q, want OK, %s", ok, sum, want)
	}
	for line, want := range map[string]string{
		"INS 20 1 1 1": "[1]", "EXPLAIN QRY 0 50 0 0 7 7": "[1]", "INS 21 1 1 1": "[1]",
		"INS 22 1 1 1": "[1]", "INS 23 1 1 1": "[2]", "QRY 0 50 0 0 7 7": "[2]",
	} {
		if got := fmt.Sprint(batchOf(t, p, line)); got != want {
			t.Errorf("%q shared its round trips with %s lines, want %s", line, got, want)
		}
	}
}

// brokenReplicaSet is a semi-sync primary and its follower behind a
// proxy whose loop ticks hourly: only a broken batch wakes it. The
// primary's relay cuts the link at its third INS, and answers no ROLE
// after the first round's, so the nudged round fails the primary over.
func brokenReplicaSet(t *testing.T) (addr string, p *histproxy.Proxy, toPrimary *fleettest.Relay, follower *fleettest.Member) {
	t.Helper()
	primary, followers := replicaSet(t, "never", 1, 1)
	toPrimary = fleettest.StartRelay(t, primary, fleettest.Script{Faults: fault.MustParse("INS:drop@3;ROLE:drop@2+", 1)})
	cfg := testConfig(fmt.Sprintf("%s|%s=0-", toPrimary.Addr, followers[0].Addr))
	cfg.ProbeEvery = time.Hour
	p = startConfigured(t, cfg)
	return serveProxy(t, p), p, toPrimary, followers[0]
}

// TestBrokenRunAnswersEveryLineAndFailsOver breaks the primary's link in
// the middle of a run: the lines it answered keep their answers, every
// other line gets the explicit unavailable error — none retried, none
// dropped — and one failover later the client's retry succeeds. An
// unavailable line is in general indeterminate (the member may have
// applied it before the break); here the relay cuts the link before the
// third INS reaches the primary, so the member's state is known exactly.
func TestBrokenRunAnswersEveryLineAndFailsOver(t *testing.T) {
	addr, p, toPrimary, follower := brokenReplicaSet(t)
	c := linetest.Dial(t, addr)
	run := []string{"INS 1 0 0 1", "INS 2 0 0 1", "INS 3 0 0 1", "INS 4 0 0 1", "INS 5 0 0 1"}
	got := c.SendAll(t, strings.Join(run, "\n")+"\n", len(run))
	var acked oracle.Points
	var broken []string
	for i, l := range got {
		switch {
		case i < 2 && l != "OK":
			t.Errorf("reply %d = %q, want the primary's own OK", i, l)
		case i >= 2 && !strings.HasPrefix(l, "ERR shard "+toPrimary.Addr+" unavailable"):
			t.Errorf("reply %d = %q, want the explicit unavailable error", i, l)
		case i < 2:
			fleettest.Apply(t, &acked, strings.Fields(run[i]))
		default:
			broken = append(broken, run[i])
		}
	}
	waitFor(t, "the broken run to trigger a failover", func() bool { return failovers(t, p) != 0 })
	if n := failovers(t, p); n != 1 {
		t.Fatalf("failovers = %d after one broken run, want 1", n)
	}
	// The relay cut the link before the third INS reached the primary, so
	// the promoted follower holds exactly the two acked ones: a proxy that
	// re-sent a line of the broken run would show here.
	if n := follower.Stat(t, "appended"); n != 2 {
		t.Fatalf("the promoted member appended %v inserts before the retry, want the 2 acked", n)
	}
	if got := c.SendAll(t, strings.Join(broken, "\n")+"\n", 3); strings.Join(got, "|") != "OK|OK|OK" {
		t.Fatalf("client retry after failover -> %q", got)
	}
	for _, l := range broken {
		fleettest.Apply(t, &acked, strings.Fields(l))
	}
	// Each retried line reached the promoted member exactly once.
	if n := follower.Stat(t, "appended"); n != 5 {
		t.Errorf("the promoted member appended %v inserts after the retry, want the 5 acked", n)
	}
	const qry = "QRY 0 100 0 0 7 7"
	if got, want := c.Cmd(t, qry), fleettest.Answer(t, acked, "sum", strings.Fields(qry)[1:]); got != want {
		t.Errorf("%s = %q after the retry, want %q", qry, got, want)
	}
}

// TestBrokenMixedUnitAnswersEveryLineAndFailsOver breaks the primary's
// link in the middle of a unit that holds mutations and query legs. What
// it answered stands; a mutation beyond the break gets exactly one
// explicit unavailable error and is not re-sent; a leg beyond the break
// is a read, so it is re-sent once down the read path and answered — not
// PARTIAL — by the follower (the primary's min_acks=1 covers it, so it
// serves reads); and the whole unit triggers one failover. The relay
// cuts the link before the third INS reaches the primary, so the two
// unavailable mutations were applied nowhere and every leg's answer is
// exact.
func TestBrokenMixedUnitAnswersEveryLineAndFailsOver(t *testing.T) {
	addr, p, toPrimary, follower := brokenReplicaSet(t)
	const qry = "QRY 0 100 0 0 7 7"
	unit := []string{"INS 1 0 0 1", qry, "INS 2 0 0 1", qry, "INS 3 0 0 1", qry, "DEL 3 0 0 1", qry}
	got := linetest.Dial(t, addr).SendAll(t, strings.Join(unit, "\n")+"\n", len(unit))
	unavailable := "ERR shard " + toPrimary.Addr + " unavailable"
	var acked oracle.Points
	for i, line := range unit {
		switch {
		case i == 4 || i == 6:
			if !strings.HasPrefix(got[i], unavailable) {
				t.Errorf("reply %d to %q = %q, want %q", i, line, got[i], unavailable)
			}
		case line == qry:
			if want := fleettest.Answer(t, acked, "sum", strings.Fields(qry)[1:]); got[i] != want {
				t.Errorf("reply %d to %q = %q, want %q", i, line, got[i], want)
			}
		case got[i] != "OK":
			t.Errorf("reply %d to %q = %q, want the primary's own OK", i, line, got[i])
		default:
			fleettest.Apply(t, &acked, strings.Fields(line))
		}
	}
	if n := served(t, follower, "QRY"); n != 2 {
		t.Errorf("the follower served %d legs, want exactly the two the break left unanswered", n)
	}
	if n := linetest.MetricValue(t, p.Reg, "histproxy_partial_answers_total"); n != 0 {
		t.Errorf("%d answers were PARTIAL with a live follower", n)
	}
	waitFor(t, "the broken unit to trigger a failover", func() bool { return failovers(t, p) != 0 })
	if n := failovers(t, p); n != 1 {
		t.Fatalf("failovers = %d after one broken unit, want 1", n)
	}
	if n := follower.Stat(t, "appended"); n != 2 {
		t.Errorf("the promoted member appended %v mutations, want the 2 acked: a mutation beyond the break must never be re-sent", n)
	}
}

// TestUnitReadsRepliesBufferedBehindASlowShard: settle reads the shards
// of a unit one after another, so a fast shard's replies can sit on their
// connection past its deadline while a slow shard is read first. They are
// still the fast shard's answers. Here the query's only leg goes to shard
// B, whose relay holds it 1.5 s against a 1 s shard timeout, and the
// insert behind it goes to shard A, which answers at once: the query
// degrades to PARTIAL, and the insert A acknowledged answers OK.
func TestUnitReadsRepliesBufferedBehindASlowShard(t *testing.T) {
	a, b := fleettest.StartMember(t, fleettest.MemberConfig("sum")), fleettest.StartMember(t, fleettest.MemberConfig("sum"))
	toB := fleettest.StartRelay(t, b, fleettest.Script{Faults: fault.MustParse("QRY:slow=1500ms", 1)})
	c := linetest.Dial(t, serveProxy(t, buildProxyWith(t, fmt.Sprintf("%s=0-99,%s=100-", a.Addr, toB.Addr), 0, time.Second)))
	var ref oracle.Points
	mustAck(t, c, &ref, "INS 120 2 2 7")
	got := c.SendAll(t, "QRY 100 150 0 0 7 7\nINS 10 1 1 5\n", 2)
	if !strings.HasPrefix(got[0], "PARTIAL 0 coverage=0.000 ") || got[1] != "OK" {
		t.Fatalf("replies %q, want [PARTIAL 0 coverage=0.000 ..., OK]", got)
	}
	fleettest.Apply(t, &ref, strings.Fields("INS 10 1 1 5"))
	if n := a.Stat(t, "appended"); n != 1 {
		t.Fatalf("shard A appended %v inserts, want the acknowledged one", n)
	}
	answers(t, c, ref, "QRY 0 99 0 0 7 7")
}

// TestUnitDoesNotHedgeBufferedReadBatch: while settle waits for a slow
// shard, another shard's read batch can pass its hedge point with every
// reply already on the connection. Those replies are its answer, so the
// batch is not duplicated. Shard A's relay holds each query leg 60 ms;
// shard B — a semi-sync primary and its follower, hedged after 5 ms —
// answers at once.
func TestUnitDoesNotHedgeBufferedReadBatch(t *testing.T) {
	a := fleettest.StartMember(t, fleettest.MemberConfig("sum"))
	toA := fleettest.StartRelay(t, a, fleettest.Script{Faults: fault.MustParse("QRY:slow=60ms", 1)})
	b0, b1 := replicaSet(t, "never", 1, 1) // min_acks=1 covers B's follower: it serves reads
	p := buildProxyWith(t, fmt.Sprintf("%s=0-99,%s|%s=100-", toA.Addr, b0.Addr, b1[0].Addr), 5*time.Millisecond, time.Second)
	c := linetest.Dial(t, serveProxy(t, p))
	var ref oracle.Points
	mustAck(t, c, &ref, "INS 10 1 1 5")
	mustAck(t, c, &ref, "INS 120 2 2 7")
	for range 5 {
		answers(t, c, ref, "QRY 0 150 0 0 7 7")
	}
	if n := hedgedReads(t, p, b0.Addr); n != 0 {
		t.Fatalf("shard B hedged %d read batches whose replies were already in", n)
	}
}

// semiSyncFleet starts two real replica sets in process — a semi-sync
// primary plus a WAL-shipping follower each, everything -fsync always —
// behind an in-process proxy, and returns the proxy address and the four
// member addresses (primary0, follower0, primary1, follower1). The proxy
// starts from steadyConfig: one late ROLE must not fail a primary over
// mid-script.
func semiSyncFleet(t *testing.T) (string, []string) {
	t.Helper()
	var members []string
	for range 2 {
		primary, followers := replicaSet(t, "always", 1, 1)
		members = append(members, primary.Addr, followers[0].Addr)
	}
	p := startConfigured(t, steadyConfig(fmt.Sprintf("%s|%s=0-99,%s|%s=100-", members[0], members[1], members[2], members[3]), 0))
	return serveProxy(t, p), members
}

// TestRunConformanceThroughSemiSyncFleet sends one script at depth 1
// and again pipelined through a 2-shard semi-sync topology of real
// in-process members: the reply transcripts must be byte-identical, and every QRY
// in them must equal a naive scan over the mutations acked before it — a
// query sees every earlier line of its connection and no later one. The
// script's first part goes out in a single write; its second part, a
// seeded 50/50 INS/QRY mix whose queries span both owners, in windows of
// random depth 1-8, each cut into two writes at an arbitrary byte. Reads
// rotate over primaries and followers (no hedging here), so a QRY that
// travels without a mutation to its shard also checks that an acked
// unit is already applied on whichever member answers.
func TestRunConformanceThroughSemiSyncFleet(t *testing.T) {
	const all = "QRY 0 100000 0 0 7 7"
	script := []string{
		"INS 1 1 1 5",
		all,
		"INS 100 2 2 7", // a run spanning both owners
		"INS 2 2 2 3",
		"DEL 100 2 2 4",
		"INS 3 1 1", // arity error inside the run
		"INS 101 1 1 1.5",
		"INS x 1 1 1",
		"INS 0 0 0 1", // the shard's own ERR (out of order, no -ooo) inside the run
		"TID=feedface12345678 INS 102 9 9 1",
		all,
		"DEL 101 1 1 0.5",
		"QRY 0 99 0 0 7 7",
		"QRY 100 200 0 0 7 7",
		"NOPE",
	}
	// A run longer than the cap, alternating owners, then reads that
	// must see all of it.
	var long float64
	for i := 0; i < 300; i++ {
		script = append(script, fmt.Sprintf("INS %d %d %d 2", 3+(i%2)*100+i/4, i%8, (i/3)%8))
		long += 2
	}
	script = append(script, all, all, all, all, "INS 400 1 1 9")
	// The mixed part: both owners' clocks move on from where the first
	// part left them (no -ooo on the shards), every query spans both.
	rng := rand.New(rand.NewSource(19))
	var mixed []string
	for t0, t1 := int64(78), int64(401); len(mixed) < 400; {
		switch c1, c2 := rng.Intn(8), rng.Intn(8); {
		case rng.Intn(2) == 0:
			lo1, lo2 := rng.Intn(8), rng.Intn(8)
			mixed = append(mixed, fmt.Sprintf("QRY %d %d %d %d %d %d", rng.Intn(100), 100+rng.Intn(500),
				lo1, lo2, lo1+rng.Intn(8-lo1), lo2+rng.Intn(8-lo2)))
		case rng.Intn(2) == 0:
			t0 = min(99, t0+int64(rng.Intn(2)))
			mixed = append(mixed, fmt.Sprintf("INS %d %d %d %d", t0, c1, c2, 1+rng.Intn(9)))
		default:
			t1 += int64(rng.Intn(3))
			mixed = append(mixed, fmt.Sprintf("INS %d %d %d %d", t1, c1, c2, 1+rng.Intn(9)))
		}
	}

	transcript := func(piped bool) []string {
		addr, members := semiSyncFleet(t)
		c := linetest.Dial(t, addr)
		var got []string
		if piped {
			// Everything but the last line's newline in one write: the
			// trailing partial line must not withhold a single reply.
			payload := strings.Join(script, "\n")
			got = c.SendAll(t, payload, len(script)-1)
			got = append(got, c.Cmd(t, ""))
		} else {
			for _, line := range script {
				got = append(got, c.Cmd(t, line))
			}
		}
		// Directly after the last ack, every member of both replica sets
		// holds its shard's share.
		for i, m := range members {
			want := fmt.Sprint(5 + 3 + long/2)
			if i >= 2 {
				want = fmt.Sprint(7 - 4 + 1.5 - 0.5 + long/2 + 9)
			}
			if got := linetest.Dial(t, m).Cmd(t, all); got != want {
				t.Errorf("member %d (%s) answers %s right after the acked script, want %s", i, m, got, want)
			}
		}
		cuts := rand.New(rand.NewSource(23))
		for rest := mixed; len(rest) > 0; {
			depth := 1
			if piped {
				depth = min(len(rest), 1+cuts.Intn(8))
			}
			payload := strings.Join(rest[:depth], "\n") + "\n"
			cut := cuts.Intn(len(payload) + 1)
			if _, err := io.WriteString(c.Conn, payload[:cut]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Duration(cuts.Intn(300)) * time.Microsecond) // lets the proxy see the cut
			got = append(got, c.SendAll(t, payload[cut:], depth)...)
			rest = rest[depth:]
		}
		return got
	}
	depth1 := transcript(false)
	piped := transcript(true)
	script = append(script, mixed...)
	if len(depth1) != len(piped) {
		t.Fatalf("depth 1 answered %d lines, pipelined %d", len(depth1), len(piped))
	}
	// The oracle is fed the mutations the fleet acked and scans them for
	// each query.
	var ref oracle.Points
	checked := 0
	for i, line := range script {
		if depth1[i] != piped[i] {
			t.Errorf("line %d %q: depth 1 answered %q, pipelined %q", i, line, depth1[i], piped[i])
		}
		_, line = trace.CutRequestID(line)
		f := strings.Fields(line)
		switch {
		case len(f) == 5 && (f[0] == "INS" || f[0] == "DEL") && depth1[i] == "OK":
			fleettest.Apply(t, &ref, f)
		case len(f) == 7 && f[0] == "QRY":
			checked++
			if want := fleettest.Answer(t, ref, "sum", f[1:]); depth1[i] != want {
				t.Errorf("line %d %q answered %q, a naive scan of the %d mutations acked before it %s", i, line, depth1[i], len(ref), want)
			}
		case i >= len(script)-len(mixed):
			t.Errorf("line %d %q of the mixed part answered %q", i, line, depth1[i])
		}
	}
	t.Logf("%d queries equal a naive scan, the last over %d acked mutations", checked, len(ref))
	// And the transcript is the right one, not merely the same one.
	for i, want := range []string{"OK", "5", "OK", "OK", "OK",
		"ERR INS needs time, 2 coordinates and a value", "OK", `ERR bad integer "x"`} {
		if depth1[i] != want {
			t.Errorf("line %d %q answered %q, want %q", i, script[i], depth1[i], want)
		}
	}
	if !strings.HasPrefix(depth1[8], "ERR") || !strings.HasPrefix(depth1[9], "ERR bad coordinate") {
		t.Errorf("shard-side errors inside the run answered %q and %q", depth1[8], depth1[9])
	}
	total := fmt.Sprint(5 + 3 + 7 - 4 + 1.5 - 0.5 + long)
	for i := len(script) - len(mixed) - 5; i < len(script)-len(mixed)-1; i++ {
		if depth1[i] != total {
			t.Errorf("read %d after the long run = %q, want %s on every member", i, depth1[i], total)
		}
	}
}

// TestNonFiniteValueIsRefused: every stored cell is a running total over
// all history, so one NaN or Inf that got in would turn each later
// cumulative answer non-finite, with no DEL able to take it out again.
// Against a real durable member behind the proxy, each such line is
// refused with the shard's own ERR (the proxy relays it unchanged),
// appends nothing to the WAL, and leaves the answers finite — for the
// cell it named and for another cell at a later time.
func TestNonFiniteValueIsRefused(t *testing.T) {
	cfg := fleettest.DurableConfig("sum", t.TempDir(), "always")
	cfg.OOO = true
	srv := fleettest.StartMember(t, cfg)
	addr, _ := startProxy(t, srv.Addr+"=0-")
	direct, proxied := linetest.Dial(t, srv.Addr), linetest.Dial(t, addr)
	// The log's own count: a segment is created at its full size, so
	// its file size says nothing about what was appended.
	walBytes := func() int64 { return linetest.MetricValue(t, srv.Server().Reg, "histcube_wal_appended_bytes_total") }
	if got := proxied.Cmd(t, "INS 1 1 1 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	before := walBytes()
	const refused = "ERR bad value: not finite"
	for _, line := range []string{
		"INS 2 1 1 NaN", "INS 2 1 1 Inf", "INS 2 1 1 -Inf", "INS 2 1 1 +Infinity",
		"DEL 1 1 1 NaN", "DEL 1 1 1 Inf", "DEL 2 1 1 -inf", "INS 0 1 1 nan", // the last one out of order
	} {
		if got := direct.Cmd(t, line); got != refused {
			t.Errorf("histserve: %s = %q, want %q", line, got, refused)
		}
		if got := proxied.Cmd(t, line); got != refused {
			t.Errorf("histproxy: %s = %q, want %q", line, got, refused)
		}
		if after := walBytes(); after != before {
			t.Fatalf("%s appended %v WAL bytes", line, after-before)
		}
		for qry, want := range map[string]float64{"QRY 0 9 0 0 7 7": 5, "QRY 3 3 2 2 2 2": 0} {
			if v, err := strconv.ParseFloat(proxied.Cmd(t, qry), 64); err != nil || v != want {
				t.Fatalf("after %s: %s = %v (%v), want %v", line, qry, v, err, want)
			}
		}
	}
	if got := proxied.Cmd(t, "INS 3 2 2 1"); got != "OK" {
		t.Fatalf("INS after the refusals = %q", got)
	}
	if after := walBytes(); after <= before {
		t.Fatalf("an accepted INS left the WAL at %v bytes: the byte count above proves nothing", after)
	}
	if got := proxied.Cmd(t, "QRY 3 3 2 2 2 2"); got != "1" {
		t.Fatalf("QRY 3 3 2 2 2 2 = %q, want 1", got)
	}
}
