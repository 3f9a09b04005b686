package main

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"encoding/json"

	"histcube/internal/shard"
	"histcube/internal/shardclient"
	"histcube/internal/trace"
)

// fakeShard is an in-process histserve stand-in: it keeps raw facts
// and answers QRY by brute-force summation, which makes the expected
// scatter-gather totals exact without booting real cubes. It records
// every received request line verbatim (TID= token included) so tests
// can assert what the proxy stamped on the wire.
type fakeShard struct {
	ln net.Listener

	mu      sync.Mutex
	facts   []fact
	lines   []string
	sealed  int64
	hasSeal bool
	conns   map[net.Conn]struct{}

	// Knobs for the unit tests (zero values: a healthy lone primary).
	replica   bool          // answers ROLE as a follower until PROMOTEd
	syncing   bool          // a follower's ROLE says synced=0
	minAcks   int           // the min_acks a primary's ROLE reports
	roles     int           // ROLE requests answered
	qryDelay  time.Duration // every QRY takes this long
	qryErr    string        // non-empty: every QRY is answered with this line
	dropAfter int           // > 0: crash (stop) instead of answering mutation number dropAfter+1
	hold      int           // > 0: a connection answers nothing before it has received this many lines, so only a batch gets through
	hung      bool          // accepts connections and reads lines, ROLE included, but answers none of them
	stats     string        // non-empty: STATS is answered with this line
	explain   string        // non-empty: EXPLAIN JSON is answered "OK " + this body
}

type fact struct {
	t      int64
	coords []int
	v      float64
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeShard{ln: ln, conns: make(map[net.Conn]struct{})}
	go f.acceptLoop(ln)
	t.Cleanup(f.stop)
	return f
}

func (f *fakeShard) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		go f.serve(conn)
	}
}

// restart brings the shard back on its previous address (rejoin).
func (f *fakeShard) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", f.addr())
	if err != nil {
		t.Fatalf("rebind %s: %v", f.addr(), err)
	}
	f.ln = ln
	go f.acceptLoop(ln)
	t.Cleanup(f.stop)
}

func (f *fakeShard) addr() string { return f.ln.Addr().String() }

// set changes the fake's knobs under its lock.
func (f *fakeShard) set(change func(*fakeShard)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	change(f)
}

// stop simulates a crash: the listener and every accepted connection
// (including ones sitting in the proxy's pool) die at once.
func (f *fakeShard) stop() {
	f.ln.Close()
	f.mu.Lock()
	for c := range f.conns {
		c.Close()
	}
	f.conns = make(map[net.Conn]struct{})
	f.mu.Unlock()
}

func (f *fakeShard) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	var held strings.Builder
	for n := 0; sc.Scan(); {
		f.mu.Lock()
		hung := f.hung
		f.mu.Unlock()
		if hung {
			continue
		}
		line := strings.TrimSpace(sc.Text())
		tid, stripped := trace.CutRequestID(line)
		fields := strings.Fields(stripped)
		if len(fields) > 0 && strings.ToUpper(fields[0]) == "ROLE" {
			// The proxy's member-state loop, not a client's line: answered
			// at once, counted apart from the recorded lines and the hold.
			fmt.Fprint(conn, f.reply(tid, fields))
			continue
		}
		n++
		f.mu.Lock()
		f.lines = append(f.lines, line)
		hold := f.hold
		f.mu.Unlock()
		if len(fields) == 0 {
			continue
		}
		if verb := strings.ToUpper(fields[0]); verb == "INS" || verb == "DEL" {
			f.mu.Lock()
			crash := f.dropAfter > 0 && len(f.facts) >= f.dropAfter
			f.mu.Unlock()
			if crash {
				f.stop()
				return
			}
		}
		held.WriteString(f.reply(tid, fields))
		if n >= hold {
			fmt.Fprint(conn, held.String())
			held.Reset()
		}
	}
}

// received returns every raw request line the shard has seen.
func (f *fakeShard) received() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.lines...)
}

func (f *fakeShard) reply(tid trace.ID, fields []string) string {
	switch strings.ToUpper(fields[0]) {
	case "VERSION":
		return "OK histserve rev=faketest dirty=false go=go0.0\n"
	case "SEAL":
		t, _ := strconv.ParseInt(fields[1], 10, 64)
		f.mu.Lock()
		if !f.hasSeal || t > f.sealed {
			f.sealed, f.hasSeal = t, true
		}
		v := f.sealed
		f.mu.Unlock()
		return fmt.Sprintf("OK sealed_through=%d\n", v)
	case "INS", "DEL":
		// INS <t> <c1> <c2> <v> (2-dim fixture)
		t, _ := strconv.ParseInt(fields[1], 10, 64)
		f.mu.Lock()
		if f.hasSeal && t <= f.sealed {
			f.mu.Unlock()
			return fmt.Sprintf("ERR sealed: time %d is in the sealed range\n", t)
		}
		v, _ := strconv.ParseFloat(fields[len(fields)-1], 64)
		if strings.ToUpper(fields[0]) == "DEL" {
			v = -v
		}
		c1, _ := strconv.Atoi(fields[2])
		c2, _ := strconv.Atoi(fields[3])
		f.facts = append(f.facts, fact{t: t, coords: []int{c1, c2}, v: v})
		f.mu.Unlock()
		return "OK\n"
	case "ROLE", "PROMOTE":
		f.mu.Lock()
		defer f.mu.Unlock()
		if fields[0] == "PROMOTE" {
			f.replica = false
		} else {
			f.roles++
		}
		if f.replica {
			synced := 1
			if f.syncing {
				synced = 0
			}
			return fmt.Sprintf("OK role=replica applied_lsn=%d lag_lsn=0 primary=fake synced=%d\n", len(f.facts), synced)
		}
		return fmt.Sprintf("OK role=primary last_lsn=%d followers=0 min_acks=%d\n", len(f.facts), f.minAcks)
	case "QRY":
		f.mu.Lock()
		delay, qryErr := f.qryDelay, f.qryErr
		f.mu.Unlock()
		time.Sleep(delay)
		if qryErr != "" {
			return qryErr + "\n"
		}
		return strconv.FormatFloat(f.query(fields[1:]), 'g', -1, 64) + "\n"
	case "EXPLAIN":
		// The proxy always asks for the structured variant: EXPLAIN JSON
		// QRY .... Answer a real span tree (7 cells, 2 conversions per
		// shard) carrying the adopted trace ID, like histserve would.
		if len(fields) >= 3 && strings.ToUpper(fields[1]) == "JSON" {
			f.mu.Lock()
			body := f.explain
			f.mu.Unlock()
			if body != "" {
				return "OK " + body + "\n"
			}
			v := f.query(fields[3:])
			root := trace.New("histserve.query")
			root.SetTraceID(tid)
			child := root.StartChild("histcube.query")
			child.Add(trace.CellsTouched, 7)
			child.Add(trace.Conversions, 2)
			child.End()
			root.End()
			doc, err := json.Marshal(map[string]any{"result": v, "trace": root.JSON()})
			if err != nil {
				return "ERR fake shard: " + err.Error() + "\n"
			}
			return "OK " + string(doc) + "\n"
		}
		v := f.query(fields[2:])
		return fmt.Sprintf("OK result=%s\nhistserve.query dur=1us\ntotals cells_touched=7 conversions=2\nEND\n",
			strconv.FormatFloat(v, 'g', -1, 64))
	case "STATS":
		f.mu.Lock()
		n, stats := len(f.facts), f.stats
		f.mu.Unlock()
		if stats != "" {
			return stats + "\n"
		}
		return fmt.Sprintf("slices=1 appended=%d degraded=0 git_rev=faketest\n", n)
	case "QUIT":
		return "BYE\n"
	default:
		return "ERR unknown command " + fields[0] + "\n"
	}
}

func (f *fakeShard) query(args []string) float64 {
	tlo, _ := strconv.ParseInt(args[0], 10, 64)
	thi, _ := strconv.ParseInt(args[1], 10, 64)
	lo1, _ := strconv.Atoi(args[2])
	lo2, _ := strconv.Atoi(args[3])
	hi1, _ := strconv.Atoi(args[4])
	hi2, _ := strconv.Atoi(args[5])
	var sum float64
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fc := range f.facts {
		if fc.t >= tlo && fc.t <= thi &&
			fc.coords[0] >= lo1 && fc.coords[0] <= hi1 &&
			fc.coords[1] >= lo2 && fc.coords[1] <= hi2 {
			sum += fc.v
		}
	}
	return sum
}

// testProbeEvery is the in-process proxies' -probe-every: short, so
// rejoin and failover tests run in milliseconds.
const testProbeEvery = 50 * time.Millisecond

// buildProxy builds an in-process proxy over the given shard spec with
// a one-failure breaker and no hedging, its member-state loop released
// and through its first round, as main does before it serves.
func buildProxy(t *testing.T, spec string) *proxy {
	t.Helper()
	return buildProxyWith(t, spec, 0, time.Second)
}

// buildProxyWith is buildProxy with the given -hedge-after and
// -shard-timeout.
func buildProxyWith(t *testing.T, spec string, hedgeAfter, shardTimeout time.Duration) *proxy {
	t.Helper()
	smap, err := shard.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := newProxy(smap, 2, hedgeAfter, testProbeEvery, shardclient.Options{
		OpTimeout:        shardTimeout,
		BreakerThreshold: 1,
	})
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	// Threshold 0 admits every fan-out query, so SLOWLOG assertions do
	// not depend on test-machine timing.
	p.Slow = trace.NewSlowLog(32, 0)
	p.ReqTimeout = 5 * time.Second
	t.Cleanup(p.close)
	p.markReady()
	return p
}

// serveProxy serves p on a loopback listener.
func serveProxy(t *testing.T, p *proxy) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go p.Serve(ln)
	return ln.Addr().String()
}

func startProxy(t *testing.T, spec string) (addr string, p *proxy) {
	t.Helper()
	p = buildProxy(t, spec)
	return serveProxy(t, p), p
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
}

// multi reads an END-terminated response after the given command.
func (c *client) multi(t *testing.T, line string) []string {
	t.Helper()
	first := c.cmd(t, line)
	if strings.HasPrefix(first, "ERR") {
		return []string{first}
	}
	lines := []string{first}
	for {
		l, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l = strings.TrimSpace(l)
		if l == "END" {
			return lines
		}
		lines = append(lines, l)
	}
}

func threeShards(t *testing.T) (spec string, shards []*fakeShard) {
	t.Helper()
	a, b, c := newFakeShard(t), newFakeShard(t), newFakeShard(t)
	spec = fmt.Sprintf("%s=0-99,%s=100-199,%s=200-", a.addr(), b.addr(), c.addr())
	return spec, []*fakeShard{a, b, c}
}

func TestProxyRoutesAndMerges(t *testing.T) {
	spec, shards := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)

	// Mutations land on the owner by timestamp.
	for _, ins := range []string{"INS 10 1 1 5", "INS 150 1 1 7", "INS 250 1 1 11", "INS 180 2 2 13"} {
		if got := c.cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
	}
	counts := []int{1, 2, 1}
	for i, f := range shards {
		f.mu.Lock()
		n := len(f.facts)
		f.mu.Unlock()
		if n != counts[i] {
			t.Fatalf("shard %d holds %d facts, want %d", i, n, counts[i])
		}
	}

	// A query across all three shards merges to the full sum.
	if got := c.cmd(t, "QRY 0 300 0 0 7 7"); got != "36" {
		t.Fatalf("QRY full -> %q, want 36", got)
	}
	// Clamped: only the middle shard's range.
	if got := c.cmd(t, "QRY 100 199 0 0 7 7"); got != "20" {
		t.Fatalf("QRY middle -> %q, want 20", got)
	}
	// Box filtering forwarded intact.
	if got := c.cmd(t, "QRY 0 300 2 2 7 7"); got != "13" {
		t.Fatalf("QRY box -> %q, want 13", got)
	}
	// A range before the map covers no shard: the operator's zero.
	if got := c.cmd(t, "QRY 300 100 0 0 7 7"); got != "0" {
		t.Fatalf("inverted QRY -> %q, want 0", got)
	}
	if got := c.cmd(t, "DEL 150 1 1 7"); got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := c.cmd(t, "QRY 0 300 0 0 7 7"); got != "29" {
		t.Fatalf("QRY after DEL -> %q, want 29", got)
	}
}

func TestProxyPartialOnDeadShardAndRejoin(t *testing.T) {
	spec, shards := threeShards(t)
	addr, p := startProxy(t, spec)
	c := dial(t, addr)

	for _, ins := range []string{"INS 10 1 1 5", "INS 150 1 1 7", "INS 250 1 1 11"} {
		if got := c.cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
	}
	// Kill the middle (historic) shard.
	shards[1].stop()

	// Queries overlapping the dead range answer PARTIAL: live ranges
	// summed, hole named, no error, no hang.
	got := c.cmd(t, "QRY 0 300 0 0 7 7")
	want := fmt.Sprintf("PARTIAL 16 coverage=0.668 covered=0-99,200-300 missing=%s=100-199", shards[1].addr())
	if got != want {
		t.Fatalf("QRY over dead shard:\n got %q\nwant %q", got, want)
	}
	// Queries not touching the dead range stay complete.
	if got := c.cmd(t, "QRY 0 99 0 0 7 7"); got != "5" {
		t.Fatalf("QRY live-only -> %q, want 5", got)
	}
	// Mutations to the dead shard fail explicitly.
	if got := c.cmd(t, "INS 150 1 1 1"); !strings.HasPrefix(got, "ERR shard") {
		t.Fatalf("INS to dead shard -> %q, want ERR shard ... unavailable", got)
	}
	if p.partials.Value() == 0 {
		t.Fatal("histproxy_partial_answers_total not incremented")
	}
	if metricValue(t, p, "histproxy_leg_failures_total") == 0 {
		t.Error("histproxy_leg_failures_total not incremented")
	}
	shardUp := fmt.Sprintf(`histproxy_shard_up{shard=%q}`, shards[1].addr())
	if n := metricValue(t, p, shardUp); n != 0 {
		t.Errorf("%s = %d during the outage, want 0", shardUp, n)
	}

	// Rejoin: restart on the same address; once the member-state loop's
	// ROLE gets an answer the next query is complete again — no proxy
	// restart.
	shards[1].restart(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got = c.cmd(t, "QRY 0 300 0 0 7 7")
		if got == "23" { // complete again: the fake kept its facts
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard rejoined but answers stayed partial: %q", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := metricValue(t, p, shardUp); n != 1 {
		t.Errorf("%s = %d after the rejoin, want 1", shardUp, n)
	}
}

func TestProxyExplain(t *testing.T) {
	spec, _ := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	c.cmd(t, "INS 250 1 1 7")

	lines := c.multi(t, "EXPLAIN QRY 0 300 0 0 7 7")
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
	// Every leg carries its shard's grafted span tree.
	if got := strings.Count(body, "histserve.query"); got != 3 {
		t.Fatalf("EXPLAIN has %d grafted shard trees, want 3:\n%s", got, body)
	}
	if got := strings.Count(body, "histcube.query"); got != 3 {
		t.Fatalf("EXPLAIN has %d grafted shard children, want 3:\n%s", got, body)
	}
	// Each fake leg reports cells_touched=7 conversions=2; three legs.
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "totals ") ||
		!strings.Contains(last, "cells_touched=21") || !strings.Contains(last, "conversions=6") {
		t.Fatalf("EXPLAIN totals = %q, want summed shard totals", last)
	}
}

func TestProxyExplainPartial(t *testing.T) {
	spec, shards := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	shards[2].stop()
	lines := c.multi(t, "EXPLAIN QRY 0 300 0 0 7 7")
	if !strings.HasPrefix(lines[0], "PARTIAL result=5 coverage=0.664 covered=0-199 missing=") {
		t.Fatalf("EXPLAIN over dead shard first line = %q", lines[0])
	}
}

// TestProxyExplainRejectsNamelessShardTrace: a shard's EXPLAIN JSON
// reply whose trace root has no name is not a span tree; its leg fails
// as a malformed reply does — a PARTIAL answer with the error on the
// leg — instead of being grafted as a nameless span.
func TestProxyExplainRejectsNamelessShardTrace(t *testing.T) {
	spec, shards := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	shards[2].set(func(f *fakeShard) { f.explain = `{"result":5,"trace":{}}` })
	lines := c.multi(t, "EXPLAIN QRY 0 300 0 0 7 7")
	if !strings.HasPrefix(lines[0], "PARTIAL result=5 coverage=0.664 covered=0-199 missing=") {
		t.Fatalf("EXPLAIN over a nameless shard trace: first line = %q", lines[0])
	}
	if body := strings.Join(lines, "\n"); !strings.Contains(body, "no named trace root") {
		t.Fatalf("the failed leg carries no error attr:\n%s", body)
	}
}

// TestProxyExplainMergedTreeTotals pins the grafting invariant: the
// proxy's totals line is Total over the merged tree, which must equal
// the sum of the grafted shard subtrees' totals bit-exactly — and those
// are the only counters anywhere in the tree.
func TestProxyExplainMergedTreeTotals(t *testing.T) {
	spec, _ := threeShards(t)
	addr, p := startProxy(t, spec)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	c.cmd(t, "INS 250 1 1 7")

	line := "EXPLAIN QRY 0 300 0 0 7 7"
	lines := c.multi(t, line)
	last := lines[len(lines)-1]
	rest, ok := strings.CutPrefix(last, "totals ")
	if !ok {
		t.Fatalf("EXPLAIN last line = %q, want totals", last)
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
	legs := 0
	for _, leg := range root.Children() {
		if leg.Name() != "proxy.leg" {
			continue
		}
		legs++
		if len(leg.Children()) == 0 {
			t.Fatalf("proxy.leg span has no grafted shard tree")
		}
		for _, sub := range leg.Children() {
			for cn := trace.Counter(0); cn < trace.NumCounters; cn++ {
				grafted[cn] += sub.Total(cn)
			}
		}
	}
	if legs != 3 {
		t.Fatalf("merged tree has %d proxy.leg spans, want 3", legs)
	}
	for cn := trace.Counter(0); cn < trace.NumCounters; cn++ {
		if got := root.Total(cn); got != grafted[cn] {
			t.Errorf("counter %s: merged total %d != grafted sum %d", cn, got, grafted[cn])
		}
		if got := rendered[cn.String()]; got != grafted[cn] {
			t.Errorf("counter %s: rendered total %d != grafted sum %d", cn, got, grafted[cn])
		}
	}
}

// TestProxyExplainDeadShardKeepsSurvivors: a dead leg grafts nothing
// and is marked with an error attr, while the surviving shards' trees
// stay in the merged answer.
func TestProxyExplainDeadShardKeepsSurvivors(t *testing.T) {
	spec, shards := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	c.cmd(t, "INS 150 1 1 7")
	shards[2].stop()

	lines := c.multi(t, "EXPLAIN QRY 0 300 0 0 7 7")
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
	last := lines[len(lines)-1]
	if !strings.Contains(last, "cells_touched=14") || !strings.Contains(last, "conversions=4") {
		t.Fatalf("totals over survivors = %q, want 2 shards' worth", last)
	}
}

// TestProxyTraceIDPropagation: a client-supplied TID= token is adopted
// by the proxy root, stamped on every shard-bound line, and shows up in
// the proxy's SLOWLOG and recent-trace feed.
func TestProxyTraceIDPropagation(t *testing.T) {
	spec, shards := threeShards(t)
	addr, p := startProxy(t, spec)
	c := dial(t, addr)
	id := trace.NewID()
	tok := trace.FormatRequestID(id)

	if got := c.cmd(t, tok+"INS 10 1 1 5"); got != "OK" {
		t.Fatalf("INS with TID -> %q", got)
	}
	if got := c.cmd(t, tok+"QRY 0 300 0 0 7 7"); got != "5" {
		t.Fatalf("QRY with TID -> %q", got)
	}

	// The owner shard saw the routed mutation with the same token.
	var sawIns bool
	for _, ln := range shards[0].received() {
		if ln == tok+"INS 10 1 1 5" {
			sawIns = true
		}
	}
	if !sawIns {
		t.Fatalf("owner shard never received the TID-stamped mutation: %q", shards[0].received())
	}
	// Every shard's fan-out leg carried the token.
	for i, f := range shards {
		var sawQry bool
		for _, ln := range f.received() {
			if strings.HasPrefix(ln, tok+"QRY ") {
				sawQry = true
			}
		}
		if !sawQry {
			t.Errorf("shard %d never received a TID-stamped QRY leg: %q", i, f.received())
		}
	}

	// Proxy-side observability: SLOWLOG (threshold 0 in startProxy) and
	// the recent ring both carry the same trace_id.
	slowlog := strings.Join(c.multi(t, "SLOWLOG"), "\n")
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
	if got := c.cmd(t, "QRY 0 300 0 0 7 7"); got != "5" {
		t.Fatalf("QRY -> %q", got)
	}
	var stamped bool
	for _, ln := range shards[0].received() {
		if strings.HasPrefix(ln, "TID=") && !strings.HasPrefix(ln, tok) && strings.Contains(ln, "QRY ") {
			stamped = true
		}
	}
	if !stamped {
		t.Fatalf("proxy-generated trace ID not stamped on shard legs: %q", shards[0].received())
	}
}

func TestProxyMergedStats(t *testing.T) {
	spec, _ := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	c.cmd(t, "INS 10 1 1 5")
	c.cmd(t, "INS 250 1 1 7")

	got := c.cmd(t, "STATS")
	if !strings.HasPrefix(got, "shards=3 shards_up=3 partial_answers_total=0") {
		t.Fatalf("STATS prefix: %q", got)
	}
	// appended sums across shards (the fake reports len(facts)):
	// 1+0+1 = 2. slices sums to 3. degraded maxes to 0. git_rev
	// (non-numeric) is dropped.
	for _, want := range []string{" appended=2", " slices=3", " degraded=0"} {
		if !strings.Contains(got, want) {
			t.Fatalf("STATS missing %q: %q", want, got)
		}
	}
	if strings.Contains(got, "git_rev") {
		t.Fatalf("STATS carries non-numeric field: %q", got)
	}
}

// TestProxyStatsAsksThePrimary: a replica set's STATS is its primary's.
// Round-robin over the members used to report a degraded primary as
// degraded=0 whenever the follower answered, and sum the follower-only
// replica fields into the fleet line.
func TestProxyStatsAsksThePrimary(t *testing.T) {
	primary, replica := newFakeShard(t), newFakeShard(t)
	primary.set(func(f *fakeShard) { f.stats = "slices=1 degraded=1 git_rev=faketest" })
	replica.set(func(f *fakeShard) {
		f.replica = true
		f.stats = "slices=1 degraded=0 replica=1 replica_applied_lsn=5 replica_lag_lsn=0 git_rev=faketest"
	})
	addr, _ := startProxy(t, fmt.Sprintf("%s|%s=0-", primary.addr(), replica.addr()))
	c := dial(t, addr)
	for i := 0; i < 8; i++ {
		got := c.cmd(t, "STATS")
		if !strings.Contains(got, " degraded=1") || strings.Contains(got, "replica=") {
			t.Fatalf("STATS #%d = %q, want the primary's degraded=1 and no replica fields", i+1, got)
		}
	}
}

func TestProxyProtocolErrors(t *testing.T) {
	spec, _ := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
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
		if got := c.cmd(t, tc.line); !strings.HasPrefix(got, tc.prefix) {
			t.Errorf("%q -> %q, want prefix %q", tc.line, got, tc.prefix)
		}
	}
}

// TestProxyUnitEdgesKeepTheirAnswers: joining a unit changes no answer.
// Each case is one window written in one write. Shard 0 answers nothing
// before it has the case's hold lines, so a line the proxy answers by
// itself — no legs to send, or refused on arity or a bad integer — can
// have cost its neighbours no round trip of their own; shard 1 answers
// every QRY with a deterministic ERR.
func TestProxyUnitEdgesKeepTheirAnswers(t *testing.T) {
	const boom = "ERR bad coordinate 9 for dimension 0"
	cases := []struct {
		name  string
		hold  int // lines shard 0 must see together
		lines []string
		want  []string
	}{
		{"no legs: inverted and pre-map ranges answer the operator's zero", 3, []string{
			"INS 10 1 1 5", "QRY 300 100 0 0 7 7", "QRY -9 -1 0 0 7 7", "QRY 0 99 0 0 7 7", "INS 11 1 1 1", "QRY 50 20 0 0 7 7",
		}, []string{"OK", "0", "0", "5", "OK", "0"}},
		{"arity and integer errors answer at the proxy", 4, []string{
			"INS 10 1 1 5", "QRY 0 99 0 0 7", "QRY 0 99 0 0 7 7", "QRY 0 x 0 0 7 7", "INS 11 1 1", "DEL 10 1 1 2", "QRY 0 99 0 0 7 7",
		}, []string{"OK", "ERR QRY needs tlo, thi and 2 lo + 2 hi coordinates", "5", `ERR bad integer "x"`,
			"ERR INS needs time, 2 coordinates and a value", "OK", "3"}},
		{"a shard's deterministic ERR on one leg is relayed, not PARTIAL", 3, []string{
			"INS 10 1 1 5", "QRY 0 150 0 0 7 7", "QRY 0 99 0 0 7 7", "INS 250 1 1 1", "QRY 100 300 0 0 7 7", "QRY 200 300 0 0 7 7",
		}, []string{"OK", boom, "5", "OK", boom, "1"}},
		{"a unit of nothing but zero-leg queries sends nothing", 0, []string{
			"QRY 9 1 0 0 7 7", "QRY -3 -2 0 0 7 7",
		}, []string{"0", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, shards := threeShards(t)
			shards[0].set(func(f *fakeShard) { f.hold = tc.hold })
			shards[1].set(func(f *fakeShard) { f.qryErr = boom })
			addr, p := startProxy(t, spec)
			got := sendAll(t, dial(t, addr), strings.Join(tc.lines, "\n")+"\n", len(tc.lines))
			if strings.Join(got, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("replies\n %q\nwant\n %q", got, tc.want)
			}
			if n := len(shards[0].received()); n != tc.hold {
				t.Errorf("shard 0 received %d lines, want %d", n, tc.hold)
			}
			if n := p.partials.Value(); n != 0 {
				t.Errorf("%d answers were PARTIAL", n)
			}
		})
	}
}

func TestProxyVersionAndShards(t *testing.T) {
	spec, shards := threeShards(t)
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	if got := c.cmd(t, "VERSION"); !strings.HasPrefix(got, "OK histproxy rev=") || !strings.Contains(got, "shards=3") {
		t.Fatalf("VERSION -> %q", got)
	}
	lines := c.multi(t, "SHARDS")
	if lines[0] != "OK n=3 up=3" {
		t.Fatalf("SHARDS first line = %q", lines[0])
	}
	if len(lines) != 4 || !strings.Contains(lines[1], shards[0].addr()) || !strings.HasSuffix(lines[1], " up") {
		t.Fatalf("SHARDS body = %q", lines[1:])
	}
	if got := c.cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
}

func TestProxySealHistoric(t *testing.T) {
	spec, shards := threeShards(t)
	_, p := startProxy(t, spec)
	p.sealHistoric()
	for i, f := range shards[:2] {
		f.mu.Lock()
		sealed, has := f.sealed, f.hasSeal
		f.mu.Unlock()
		want := []int64{99, 199}[i]
		if !has || sealed != want {
			t.Fatalf("historic shard %d sealed_through=%d (set=%t), want %d", i, sealed, has, want)
		}
	}
	shards[2].mu.Lock()
	hotSealed := shards[2].hasSeal
	shards[2].mu.Unlock()
	if hotSealed {
		t.Fatal("hot shard must not be sealed")
	}
}
