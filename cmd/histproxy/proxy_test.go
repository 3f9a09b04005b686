package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"histcube/internal/fleettest"
	"histcube/internal/histproxy"
	"histcube/internal/linetest"
	"histcube/internal/oracle"
	"histcube/internal/trace"
)

// The proxy's tests drive it only through what main uses — its Config,
// the wire, /metrics and the feeds — against real in-process members
// (internal/fleettest), each answer checked against internal/oracle.
// The one test that breaks the proxy's own state lives in
// internal/histproxy and builds its proxy there.

// testProbeEvery is the in-process proxies' -probe-every: short, so
// rejoin and failover tests run in milliseconds.
const testProbeEvery = 50 * time.Millisecond

// testConfig is the histproxy.Config the in-process proxies start from: -dims 8,8
// over spec, a one-failure breaker, no hedging, a 1 s -shard-timeout.
func testConfig(spec string) histproxy.Config {
	return histproxy.Config{Dims: "8,8", Shards: spec, ShardTimeout: time.Second, BreakerThreshold: 1, ProbeEvery: testProbeEvery}
}

// startConfigured builds a proxy from cfg as main does, quietly, with a
// slow log that keeps every query, and returns it after Start.
func startConfigured(t *testing.T, cfg histproxy.Config) *histproxy.Proxy {
	t.Helper()
	p, err := histproxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	// Threshold 0 admits every fan-out query, so SLOWLOG assertions do
	// not depend on test-machine timing.
	p.Slow = trace.NewSlowLog(32, 0)
	p.ReqTimeout = 5 * time.Second
	t.Cleanup(p.Close)
	p.Start()
	return p
}

// buildProxy starts an in-process proxy over spec with testConfig.
func buildProxy(t *testing.T, spec string) *histproxy.Proxy {
	t.Helper()
	return startConfigured(t, testConfig(spec))
}

// buildProxyWith is buildProxy with the given -hedge-after and
// -shard-timeout.
func buildProxyWith(t *testing.T, spec string, hedgeAfter, shardTimeout time.Duration) *histproxy.Proxy {
	t.Helper()
	cfg := testConfig(spec)
	cfg.HedgeAfter, cfg.ShardTimeout = hedgeAfter, shardTimeout
	return startConfigured(t, cfg)
}

// serveProxy serves p on a loopback listener.
func serveProxy(t *testing.T, p *histproxy.Proxy) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go p.Serve(ln)
	return ln.Addr().String()
}

func startProxy(t *testing.T, spec string) (addr string, p *histproxy.Proxy) {
	t.Helper()
	p = buildProxy(t, spec)
	return serveProxy(t, p), p
}

// threeMembers is a map over three real -op sum members: 0-99,
// 100-199, 200-.
func threeMembers(t *testing.T) (spec string, members []*fleettest.Member) {
	t.Helper()
	for range 3 {
		members = append(members, fleettest.StartMember(t, fleettest.MemberConfig("sum")))
	}
	spec = fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", members[0].Addr, members[1].Addr, members[2].Addr)
	return spec, members
}

// served reads off a member's own /metrics how many lines of verb it
// has served: histserve times every request line under its verb.
func served(t *testing.T, m *fleettest.Member, verb string) int64 {
	t.Helper()
	return linetest.MetricValue(t, m.Server().Reg, fmt.Sprintf("histserve_request_seconds_count{cmd=%q}", verb))
}

// servedLines is what a member has served of the lines a proxy routes:
// INS, DEL and QRY.
func servedLines(t *testing.T, m *fleettest.Member) int64 {
	t.Helper()
	return served(t, m, "INS") + served(t, m, "DEL") + served(t, m, "QRY")
}

func TestProxyRoutesAndMerges(t *testing.T) {
	spec, members := threeMembers(t)
	addr, _ := startProxy(t, spec)
	c := linetest.Dial(t, addr)

	// Mutations land on the owner by timestamp.
	for _, ins := range []string{"INS 10 1 1 5", "INS 150 1 1 7", "INS 250 1 1 11", "INS 180 2 2 13"} {
		if got := c.Cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
	}
	for i, want := range []float64{1, 2, 1} {
		if n := members[i].Stat(t, "appended"); n != want {
			t.Fatalf("member %d appended %v mutations, want %v", i, n, want)
		}
	}

	// A query across all three shards merges to the full sum.
	if got := c.Cmd(t, "QRY 0 300 0 0 7 7"); got != "36" {
		t.Fatalf("QRY full -> %q, want 36", got)
	}
	// Clamped: only the middle shard's range.
	if got := c.Cmd(t, "QRY 100 199 0 0 7 7"); got != "20" {
		t.Fatalf("QRY middle -> %q, want 20", got)
	}
	// Box filtering forwarded intact.
	if got := c.Cmd(t, "QRY 0 300 2 2 7 7"); got != "13" {
		t.Fatalf("QRY box -> %q, want 13", got)
	}
	// A range before the map covers no shard: the operator's zero.
	if got := c.Cmd(t, "QRY 300 100 0 0 7 7"); got != "0" {
		t.Fatalf("inverted QRY -> %q, want 0", got)
	}
	if got := c.Cmd(t, "DEL 180 1 1 7"); got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := c.Cmd(t, "QRY 0 300 0 0 7 7"); got != "29" {
		t.Fatalf("QRY after DEL -> %q, want 29", got)
	}
}

func TestProxyPartialOnDeadShardAndRejoin(t *testing.T) {
	a, c := fleettest.StartMember(t, fleettest.MemberConfig("sum")), fleettest.StartMember(t, fleettest.MemberConfig("sum"))
	b := fleettest.StartMember(t, fleettest.DurableConfig("sum", t.TempDir(), "never"))
	members := []*fleettest.Member{a, b, c}
	spec := fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", a.Addr, b.Addr, c.Addr)
	addr, p := startProxy(t, spec)
	cl := linetest.Dial(t, addr)

	for _, ins := range []string{"INS 10 1 1 5", "INS 150 1 1 7", "INS 250 1 1 11"} {
		if got := cl.Cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
	}
	// Stop the middle (historic) shard; it writes a final checkpoint.
	members[1].Stop()

	// Queries overlapping the dead range answer PARTIAL: live ranges
	// summed, hole named, no error, no hang.
	got := cl.Cmd(t, "QRY 0 300 0 0 7 7")
	want := fmt.Sprintf("PARTIAL 16 coverage=0.668 covered=0-99,200-300 missing=%s=100-199", b.Addr)
	if got != want {
		t.Fatalf("QRY over dead shard:\n got %q\nwant %q", got, want)
	}
	// Queries not touching the dead range stay complete.
	if got := cl.Cmd(t, "QRY 0 99 0 0 7 7"); got != "5" {
		t.Fatalf("QRY live-only -> %q, want 5", got)
	}
	// Mutations to the dead shard fail explicitly.
	if got := cl.Cmd(t, "INS 150 1 1 1"); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("INS to dead shard -> %q, want ERR shard ... unavailable", got)
	}
	if linetest.MetricValue(t, p.Reg, "histproxy_partial_answers_total") == 0 {
		t.Fatal("histproxy_partial_answers_total not incremented")
	}
	if linetest.MetricValue(t, p.Reg, "histproxy_leg_failures_total") == 0 {
		t.Error("histproxy_leg_failures_total not incremented")
	}
	shardUp := fmt.Sprintf(`histproxy_shard_up{shard=%q}`, b.Addr)
	if n := linetest.MetricValue(t, p.Reg, shardUp); n != 0 {
		t.Errorf("%s = %d during the outage, want 0", shardUp, n)
	}

	// Rejoin: restart on the same address and data directory; once the
	// member-state loop's ROLE gets an answer the next query is complete
	// again — no proxy restart.
	b.Restart(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got = cl.Cmd(t, "QRY 0 300 0 0 7 7")
		if got == "23" { // complete again: the member reopened its checkpoint
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard rejoined but answers stayed partial: %q", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := linetest.MetricValue(t, p.Reg, shardUp); n != 1 {
		t.Errorf("%s = %d after the rejoin, want 1", shardUp, n)
	}
}

func TestProxyExplain(t *testing.T) {
	spec, _ := threeMembers(t)
	addr, _ := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 10 1 1 5")
	c.Cmd(t, "INS 250 1 1 7")

	lines := c.Multi(t, "EXPLAIN QRY 0 300 0 0 7 7")
	if lines[0] != "OK result=12" {
		t.Fatalf("EXPLAIN first line = %q", lines[0])
	}
	body := strings.Join(lines, "\n")
	if !strings.Contains(body, "proxy.query") {
		t.Fatalf("EXPLAIN missing proxy.query root:\n%s", body)
	}
	if got := strings.Count(body, "proxy.leg"); got != 3 {
		t.Fatalf("EXPLAIN has %d proxy.leg spans, want 3:\n%s", got, body)
	}
	// Every leg carries its member's grafted span tree.
	if got := strings.Count(body, "histserve.query"); got != 3 {
		t.Fatalf("EXPLAIN has %d grafted member trees, want 3:\n%s", got, body)
	}
	if got := strings.Count(body, "histcube.query"); got != 3 {
		t.Fatalf("EXPLAIN has %d grafted member children, want 3:\n%s", got, body)
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "totals ") || !strings.Contains(last, "cells_touched=") {
		t.Fatalf("EXPLAIN totals = %q, want the merged tree's counters", last)
	}
}

func TestProxyExplainPartial(t *testing.T) {
	spec, members := threeMembers(t)
	addr, _ := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 10 1 1 5")
	members[2].Stop()
	lines := c.Multi(t, "EXPLAIN QRY 0 300 0 0 7 7")
	if !strings.HasPrefix(lines[0], "PARTIAL result=5 coverage=0.664 covered=0-199 missing=") {
		t.Fatalf("EXPLAIN over dead shard first line = %q", lines[0])
	}
}

// explainTotals checks the grafting invariant on the retained trace of
// an answered EXPLAIN line: the proxy's totals line (the last of lines)
// is Total over the merged tree, which must equal the sum of the grafted
// member subtrees' totals bit-exactly — and those are the only counters
// anywhere in the tree. It returns the number of legs that grafted one.
func explainTotals(t *testing.T, p *histproxy.Proxy, line string, lines []string) (grafts int) {
	t.Helper()
	rest, ok := strings.CutPrefix(lines[len(lines)-1], "totals ")
	if !ok {
		t.Fatalf("EXPLAIN last line = %q, want totals", lines[len(lines)-1])
	}
	rendered := make(map[string]int64)
	for _, tok := range strings.Fields(rest) {
		k, v, _ := strings.Cut(tok, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("totals token %q: %v", tok, err)
		}
		rendered[k] = n
	}
	// The retained trace is the merged tree itself.
	var root *trace.Span
	for _, e := range p.Recent.Entries() {
		if e.Line == line {
			root = e.Span
			break
		}
	}
	if root == nil || root.Name() != "proxy.query" {
		t.Fatalf("merged tree not retained in the recent ring")
	}
	grafted := make(map[trace.Counter]int64)
	for _, leg := range root.Children() {
		if leg.Name() != "proxy.leg" || len(leg.Children()) == 0 {
			continue
		}
		grafts++
		for _, sub := range leg.Children() {
			for cn := trace.Counter(0); cn < trace.NumCounters; cn++ {
				grafted[cn] += sub.Total(cn)
			}
		}
	}
	for cn := trace.Counter(0); cn < trace.NumCounters; cn++ {
		if got := root.Total(cn); got != grafted[cn] {
			t.Errorf("counter %s: merged total %d != grafted sum %d", cn, got, grafted[cn])
		}
		if got := rendered[cn.String()]; got != grafted[cn] {
			t.Errorf("counter %s: rendered total %d != grafted sum %d", cn, got, grafted[cn])
		}
	}
	var all int64
	for _, n := range grafted {
		all += n
	}
	if all == 0 {
		t.Errorf("the grafted member trees counted nothing: the check above is vacuous")
	}
	return grafts
}

// TestProxyExplainMergedTreeTotals pins the grafting invariant over
// three members' real span trees.
func TestProxyExplainMergedTreeTotals(t *testing.T) {
	spec, _ := threeMembers(t)
	addr, p := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 10 1 1 5")
	c.Cmd(t, "INS 250 1 1 7")
	line := "EXPLAIN QRY 0 300 0 0 7 7"
	if n := explainTotals(t, p, line, c.Multi(t, line)); n != 3 {
		t.Fatalf("%d proxy.leg spans grafted a member tree, want 3", n)
	}
}

// TestProxyExplainDeadShardKeepsSurvivors: a dead leg grafts nothing
// and is marked with an error attr, while the surviving members' trees
// stay in the merged answer and make its totals.
func TestProxyExplainDeadShardKeepsSurvivors(t *testing.T) {
	spec, members := threeMembers(t)
	addr, p := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 10 1 1 5")
	c.Cmd(t, "INS 150 1 1 7")
	members[2].Stop()

	line := "EXPLAIN QRY 0 300 0 0 7 7"
	lines := c.Multi(t, line)
	if !strings.HasPrefix(lines[0], "PARTIAL result=12 ") {
		t.Fatalf("EXPLAIN over dead shard first line = %q", lines[0])
	}
	body := strings.Join(lines, "\n")
	if got := strings.Count(body, "histserve.query"); got != 2 {
		t.Fatalf("want the 2 surviving grafted trees, got %d:\n%s", got, body)
	}
	if !strings.Contains(body, "error=") {
		t.Fatalf("dead leg's span carries no error attr:\n%s", body)
	}
	if n := explainTotals(t, p, line, lines); n != 2 {
		t.Fatalf("%d proxy.leg spans grafted a member tree, want the 2 survivors", n)
	}
}

// TestProxyTraceIDPropagation: a client-supplied TID= token is adopted
// by the proxy root, stamped on every member-bound line — each member's
// own trace of its leg carries it — and shows up in the proxy's SLOWLOG
// and recent-trace feed.
func TestProxyTraceIDPropagation(t *testing.T) {
	spec, members := threeMembers(t)
	addr, p := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	id := trace.NewID()
	tok := trace.FormatRequestID(id)

	if got := c.Cmd(t, tok+"INS 10 1 1 5"); got != "OK" {
		t.Fatalf("INS with TID -> %q", got)
	}
	if got := c.Cmd(t, tok+"QRY 0 300 0 0 7 7"); got != "5" {
		t.Fatalf("QRY with TID -> %q", got)
	}
	// traced reports whether m retained a trace of a line with prefix
	// whose ID matches.
	traced := func(m *fleettest.Member, prefix string, match func(trace.ID) bool) bool {
		for _, e := range m.Server().Recent.Entries() {
			if strings.HasPrefix(e.Line, prefix) && match(e.Span.TraceID()) {
				return true
			}
		}
		return false
	}
	is := func(want trace.ID) func(trace.ID) bool { return func(got trace.ID) bool { return got == want } }
	// The owner adopted the routed mutation's ID.
	if !traced(members[0], "INS 10 1 1 5", is(id)) {
		t.Fatal("the owner member never traced the mutation under the client's ID")
	}
	// Every member's fan-out leg carried it.
	for i, m := range members {
		if !traced(m, "QRY ", is(id)) {
			t.Errorf("member %d never traced a QRY leg under the client's ID", i)
		}
	}

	// Proxy-side observability: SLOWLOG (threshold 0 in startProxy) and
	// the recent ring both carry the same trace_id.
	slowlog := strings.Join(c.Multi(t, "SLOWLOG"), "\n")
	if !strings.Contains(slowlog, "trace_id="+id.String()) {
		t.Fatalf("proxy SLOWLOG missing trace_id=%s:\n%s", id, slowlog)
	}
	var found bool
	for _, e := range p.Recent.Entries() {
		if e.Span.TraceID() == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("recent ring has no entry with trace_id=%s", id)
	}

	// Without a token the proxy generates its own ID and still stamps
	// the legs.
	if got := c.Cmd(t, "QRY 0 300 0 0 7 7"); got != "5" {
		t.Fatalf("QRY -> %q", got)
	}
	if !traced(members[0], "QRY ", func(got trace.ID) bool { return got != 0 && got != id }) {
		t.Fatal("proxy-generated trace ID not adopted by the member's leg")
	}
}

func TestProxyMergedStats(t *testing.T) {
	spec, _ := threeMembers(t)
	addr, _ := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 10 1 1 5")
	c.Cmd(t, "INS 250 1 1 7")

	got := c.Cmd(t, "STATS")
	if !strings.HasPrefix(got, "shards=3 shards_up=3 partial_answers_total=0") {
		t.Fatalf("STATS prefix: %q", got)
	}
	// appended and slices sum across members: 1+0+1 = 2 each. degraded
	// maxes to 0. git_rev (non-numeric) is dropped.
	for _, want := range []string{" appended=2 ", " slices=2 ", " degraded=0 "} {
		if !strings.Contains(got+" ", want) {
			t.Fatalf("STATS missing %q: %q", want, got)
		}
	}
	if strings.Contains(got, "git_rev") {
		t.Fatalf("STATS carries non-numeric field: %q", got)
	}
}

// TestProxyStatsAsksThePrimary: a replica set's STATS is its primary's.
// Round-robin over the members used to sum the follower-only replica
// fields into the fleet line whenever the follower answered. The proxy
// starts from steadyConfig, so one late ROLE cannot make the follower the
// primary whose STATS the test reads.
func TestProxyStatsAsksThePrimary(t *testing.T) {
	primary := fleettest.StartMember(t, fleettest.DurableConfig("sum", t.TempDir(), "never"))
	cfg := fleettest.DurableConfig("sum", t.TempDir(), "never")
	cfg.Follow = primary.Addr
	follower := fleettest.StartMember(t, cfg)
	addr := serveProxy(t, startConfigured(t, steadyConfig(fmt.Sprintf("%s|%s=0-", primary.Addr, follower.Addr), 0)))
	c := linetest.Dial(t, addr)
	if got := c.Cmd(t, "INS 1 1 1 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	if got := linetest.Dial(t, follower.Addr).Cmd(t, "STATS"); !strings.Contains(got, " replica=1 ") {
		t.Fatalf("the follower's own STATS = %q, want its replica fields", got)
	}
	for i := 0; i < 8; i++ {
		if got := c.Cmd(t, "STATS"); !strings.Contains(got, " appended=1") || strings.Contains(got, "replica") {
			t.Fatalf("STATS #%d = %q, want the primary's appended=1 and no replica fields", i+1, got)
		}
	}
}

func TestProxyProtocolErrors(t *testing.T) {
	spec, _ := threeMembers(t)
	addr, _ := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	cases := []struct{ line, prefix string }{
		{"QRY 0 300 0 0 7", "ERR QRY needs"},
		{"QRY 0 x 0 0 7 7", "ERR bad integer"},
		{"INS 10 1 1", "ERR INS needs"},
		{"INS x 1 1 5", "ERR bad integer"},
		{"DEL -50 1 1 5", "ERR no shard owns time -50"},
		{"EXPLAIN STATS", "ERR EXPLAIN wraps a query"},
		{"SAVE /tmp/x", "ERR SAVE is not proxied"},
		{"NOPE", "ERR unknown command"},
	}
	for _, tc := range cases {
		if got := c.Cmd(t, tc.line); !strings.HasPrefix(got, tc.prefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.line, got, tc.prefix)
		}
	}
}

// TestProxyUnitEdgesKeepTheirAnswers: joining a unit changes no answer.
// Each case is one window written in one write, over three real
// members. A line the proxy answers by itself — no legs to send, or
// refused on arity or a bad integer — sends nothing and costs its
// neighbours no round trip of their own: shard 0 serves exactly the
// case's lines to it, and every line with a leg records (batchOf) that
// it shared one round trip per shard with all of the unit's lines to
// that shard. Shard 1 is a -dims 4,4 member, so every leg to it with a
// coordinate past 3 gets its deterministic ERR. An empty want is the
// oracle's answer over the mutations acked before the line.
func TestProxyUnitEdgesKeepTheirAnswers(t *testing.T) {
	const boom = "ERR bad coordinate d0: 7 outside [0, 4)"
	cases := []struct {
		name   string
		shard0 int64 // lines shard 0 serves
		lines  []string
		want   []string
		batch  []string // batchOf each line, one size per leg in shard order; "" for a line with no leg
	}{
		{"no legs: inverted and pre-map ranges answer the operator's zero", 3, []string{
			"INS 10 1 1 5", "QRY 300 100 0 0 7 7", "QRY -9 -1 0 0 7 7", "QRY 0 99 0 0 7 7", "INS 11 1 1 1", "QRY 50 20 0 0 7 7",
		}, []string{"OK", "0", "0", "", "OK", "0"}, []string{"[3]", "", "", "[3]", "[3]", ""}},
		{"arity and integer errors answer at the proxy", 4, []string{
			"INS 10 1 1 5", "QRY 0 99 0 0 7", "QRY 0 99 0 0 7 7", "QRY 0 x 0 0 7 7", "INS 11 1 1", "DEL 10 1 1 2", "QRY 0 99 0 0 7 7",
		}, []string{"OK", "ERR QRY needs tlo, thi and 2 lo + 2 hi coordinates", "", `ERR bad integer "x"`,
			"ERR INS needs time, 2 coordinates and a value", "OK", ""}, []string{"[4]", "", "[4]", "", "", "[4]", "[4]"}},
		{"a shard's deterministic ERR on one leg is relayed, not PARTIAL", 3, []string{
			"INS 10 1 1 5", "QRY 0 150 0 0 7 7", "QRY 0 99 0 0 7 7", "INS 250 1 1 1", "QRY 100 300 0 0 7 7", "QRY 200 300 0 0 7 7",
		}, []string{"OK", boom, "", "OK", boom, ""}, []string{"[3]", "[3 2]", "[3]", "[3]", "[2 3]", "[3]"}},
		{"a unit of nothing but zero-leg queries sends nothing", 0, []string{
			"QRY 9 1 0 0 7 7", "QRY -3 -2 0 0 7 7",
		}, []string{"0", "0"}, []string{"", ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			small := fleettest.MemberConfig("sum")
			small.Dims = "4,4"
			members := []*fleettest.Member{fleettest.StartMember(t, fleettest.MemberConfig("sum")),
				fleettest.StartMember(t, small), fleettest.StartMember(t, fleettest.MemberConfig("sum"))}
			addr, p := startProxy(t, fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", members[0].Addr, members[1].Addr, members[2].Addr))
			got := linetest.Dial(t, addr).SendAll(t, strings.Join(tc.lines, "\n")+"\n", len(tc.lines))
			var ref oracle.Points
			for i, line := range tc.lines {
				want, f := tc.want[i], strings.Fields(line)
				if want == "" {
					want = linetest.Answer(t, ref, "sum", f[1:])
				}
				if got[i] != want {
					t.Errorf("reply %d to %q = %q, want %q", i, line, got[i], want)
				}
				if got[i] == "OK" {
					linetest.Apply(t, &ref, f)
				}
			}
			if n := servedLines(t, members[0]); n != tc.shard0 {
				t.Errorf("shard 0 served %d lines, want %d", n, tc.shard0)
			}
			for i, line := range tc.lines {
				if tc.batch[i] == "" {
					continue
				}
				if got := fmt.Sprint(batchOf(t, p, line)); got != tc.batch[i] {
					t.Errorf("%q shared its round trips with %s lines, want %s", line, got, tc.batch[i])
				}
			}
			if n := linetest.MetricValue(t, p.Reg, "histproxy_partial_answers_total"); n != 0 {
				t.Errorf("%d answers were PARTIAL", n)
			}
		})
	}
}

func TestProxyVersionAndShards(t *testing.T) {
	spec, shards := threeMembers(t)
	addr, _ := startProxy(t, spec)
	c := linetest.Dial(t, addr)
	if got := c.Cmd(t, "VERSION"); !strings.HasPrefix(got, "OK histproxy rev=") || !strings.Contains(got, "shards=3") {
		t.Fatalf("VERSION -> %q", got)
	}
	lines := c.Multi(t, "SHARDS")
	if lines[0] != "OK n=3 up=3" {
		t.Fatalf("SHARDS first line = %q", lines[0])
	}
	if len(lines) != 4 || !strings.Contains(lines[1], shards[0].Addr) || !strings.HasSuffix(lines[1], " up") {
		t.Fatalf("SHARDS body = %q", lines[1:])
	}
	if got := c.Cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

func TestProxySealHistoric(t *testing.T) {
	spec, members := threeMembers(t)
	cfg := testConfig(spec)
	cfg.SealHistoric = true // Start seals in the background, as -seal-historic does
	startConfigured(t, cfg)
	for i := range 2 {
		c := linetest.Dial(t, members[i].Addr)
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(c.Cmd(t, "STATS"), "sealed_through="); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("historic member %d was never sealed", i)
			}
		}
	}
	for i, want := range []float64{99, 199} {
		if got := members[i].Stat(t, "sealed_through"); got != want {
			t.Fatalf("historic member %d sealed_through=%v, want %v", i, got, want)
		}
	}
	if got := linetest.Dial(t, members[2].Addr).Cmd(t, "STATS"); strings.Contains(got, "sealed_through") {
		t.Fatalf("hot member must not be sealed: %q", got)
	}
	if got := linetest.Dial(t, members[1].Addr).Cmd(t, "INS 150 1 1 1"); !strings.HasPrefix(got, "ERR sealed") {
		t.Fatalf("INS into a sealed member's range = %q, want ERR sealed", got)
	}
}
