// Package fleettest runs a histcube fleet's parts in process for the
// proxy's tests, in cmd/histproxy and in internal/histproxy: real
// histserve members on loopback, a scripted stand-in for the states a
// member reaches only by timing or by failing, a line-protocol client,
// and the naive reference every proxied answer is checked against.
//
// Nothing in the program calls it: each export that no other export
// reaches is a cross-package test seam, and its deadexport ignore names
// the tests that use it.
package fleettest

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

	"histcube/internal/histserve"
	"histcube/internal/obs"
	"histcube/internal/trace"
)

// Member is a real histserve, run in process on loopback: every value a
// proxy test checks comes from members like it. Stop drops its listener
// and every connection it accepted, as a crash would, then closes the
// server; Restart brings the same Config back on the same address.
type Member struct {
	Addr string
	cfg  histserve.Config

	mu    sync.Mutex
	srv   *histserve.Server // nil while stopped
	ln    net.Listener
	conns []net.Conn
}

// MemberConfig is a member's Config for the proxies' two-dimensional
// fixtures: -dims 8,8 and the given -op, in memory.
func MemberConfig(op string) histserve.Config {
	return histserve.Config{Dims: "8,8", Op: op, DegradedProbeEvery: time.Second, ReplAckTimeout: 10 * time.Second}
}

// DurableConfig is MemberConfig with a data directory under dir, so a
// restarted member recovers what it held.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy
func DurableConfig(op, dir, fsync string) histserve.Config {
	cfg := MemberConfig(op)
	cfg.DataDir, cfg.Fsync = dir, fsync
	return cfg
}

// StartMember starts a member from cfg on a free loopback port; the
// test's cleanup stops it.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func StartMember(t *testing.T, cfg histserve.Config) *Member {
	t.Helper()
	m := &Member{cfg: cfg}
	m.start(t, "127.0.0.1:0")
	return m
}

// start does what cmd/histserve's main does, quietly, and serves on addr.
func (m *Member) start(t *testing.T, addr string) {
	t.Helper()
	srv, err := histserve.New(m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		t.Fatalf("listen %s: %v", addr, err)
	}
	m.mu.Lock()
	m.srv, m.ln, m.Addr = srv, ln, ln.Addr().String()
	m.mu.Unlock()
	go srv.Serve(trackingListener{ln, m})
	t.Cleanup(m.Stop)
}

// Restart brings the member back on its previous address (rejoin).
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy
func (m *Member) Restart(t *testing.T) {
	t.Helper()
	m.start(t, m.Addr)
}

// Stop crashes the member: its listener and every connection it
// accepted close at once, then the server closes.
func (m *Member) Stop() {
	m.mu.Lock()
	srv, ln, conns := m.srv, m.ln, m.conns
	m.srv, m.conns = nil, nil
	m.mu.Unlock()
	if srv == nil {
		return
	}
	_ = ln.Close() // a crash: nothing to report
	for _, c := range conns {
		_ = c.Close()
	}
	srv.Close()
}

// Server returns the running server.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy
func (m *Member) Server() *histserve.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.srv
}

// trackingListener hands the member every connection it accepts, so
// Stop can drop them, those in the proxy's pools included.
type trackingListener struct {
	net.Listener
	m *Member
}

func (l trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.m.mu.Lock()
		l.m.conns = append(l.m.conns, c)
		l.m.mu.Unlock()
	}
	return c, err
}

// Stat reads one numeric field of the member's own STATS.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy
func (m *Member) Stat(t *testing.T, key string) float64 {
	t.Helper()
	for _, tok := range strings.Fields(Dial(t, m.Addr).Cmd(t, "STATS")) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("STATS %s=%q: %v", key, v, err)
			}
			return n
		}
	}
	t.Fatalf("member %s's STATS has no %s", m.Addr, key)
	return 0
}

// FakeShard is a scripted stand-in for the states a real member reaches
// only by timing or by failing: it computes nothing. It answers a
// mutation OK, a QRY 0, an EXPLAIN JSON with a one-span tree and ROLE
// from its script (always naming op=sum), and it records every line it
// receives verbatim (TID= token included) so tests can assert what the
// proxy put on the wire. Tests change the script with Set.
type FakeShard struct {
	Addr string
	ln   net.Listener

	mu       sync.Mutex
	lines    []string
	answered int // mutations answered, which DropAfter counts
	conns    map[net.Conn]struct{}

	// The script (zero values: a healthy lone primary).
	Replica   bool          // ROLE: a follower, until PROMOTEd
	Syncing   bool          // ROLE: a follower still catching up (synced=0)
	MinAcks   int           // ROLE: the min_acks a primary reports
	Roles     int           // ROLE requests answered
	Hung      bool          // reads every line, ROLE included, and answers none
	Hold      int           // a connection answers nothing before it has received this many lines
	DropAfter int           // > 0: crash instead of answering mutation number DropAfter+1
	QryErr    string        // non-empty: every QRY is answered with this line
	QryDelay  time.Duration // every QRY takes this long
	Explain   string        // non-empty: EXPLAIN JSON is answered "OK " + this body
}

// NewFakeShard starts a fake on a free loopback port; the test's cleanup
// stops it.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func NewFakeShard(t *testing.T) *FakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &FakeShard{Addr: ln.Addr().String(), ln: ln, conns: make(map[net.Conn]struct{})}
	go f.acceptLoop(ln)
	t.Cleanup(f.Stop)
	return f
}

func (f *FakeShard) acceptLoop(ln net.Listener) {
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

// Restart brings the shard back on its previous address (rejoin).
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (f *FakeShard) Restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", f.Addr, err)
	}
	f.mu.Lock()
	f.ln = ln
	f.mu.Unlock()
	go f.acceptLoop(ln)
	t.Cleanup(f.Stop)
}

// Set changes the fake's script under its lock.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (f *FakeShard) Set(change func(*FakeShard)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	change(f)
}

// Stop simulates a crash: the listener and every accepted connection
// (including ones sitting in the proxy's pool) die at once.
func (f *FakeShard) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = f.ln.Close() // a crash: nothing to report
	for c := range f.conns {
		_ = c.Close()
	}
	f.conns = make(map[net.Conn]struct{})
}

func (f *FakeShard) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	sc := bufio.NewScanner(conn)
	var held strings.Builder
	for n := 0; sc.Scan(); {
		f.mu.Lock()
		hung := f.Hung
		f.mu.Unlock()
		if hung {
			continue
		}
		line := strings.TrimSpace(sc.Text())
		_, stripped := trace.CutRequestID(line)
		verb, _, _ := strings.Cut(stripped, " ")
		if verb == "ROLE" || verb == "PROMOTE" {
			// The proxy's member-state loop, not a client's line: answered
			// at once, counted apart from the recorded lines and the hold.
			fmt.Fprint(conn, f.role(verb == "PROMOTE"))
			continue
		}
		n++
		f.mu.Lock()
		f.lines = append(f.lines, line)
		hold := f.Hold
		crash := (verb == "INS" || verb == "DEL") && f.DropAfter > 0 && f.answered >= f.DropAfter
		f.mu.Unlock()
		if crash {
			f.Stop()
			return
		}
		held.WriteString(f.reply(verb))
		if n >= hold {
			fmt.Fprint(conn, held.String())
			held.Reset()
		}
	}
}

// Received returns every raw request line the shard has seen.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (f *FakeShard) Received() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.lines...)
}

// role answers ROLE, or PROMOTE, from the script.
func (f *FakeShard) role(promote bool) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if promote {
		f.Replica = false
	} else {
		f.Roles++
	}
	if f.Replica {
		synced := 1
		if f.Syncing {
			synced = 0
		}
		return fmt.Sprintf("OK role=replica applied_lsn=0 lag_lsn=0 primary=fake synced=%d op=sum\n", synced)
	}
	return fmt.Sprintf("OK role=primary last_lsn=0 followers=0 min_acks=%d op=sum\n", f.MinAcks)
}

func (f *FakeShard) reply(verb string) string {
	f.mu.Lock()
	delay, qryErr, explain := f.QryDelay, f.QryErr, f.Explain
	if verb == "INS" || verb == "DEL" {
		f.answered++
	}
	f.mu.Unlock()
	switch verb {
	case "QRY":
		time.Sleep(delay)
		if qryErr != "" {
			return qryErr + "\n"
		}
		return "0\n"
	case "EXPLAIN":
		if explain != "" {
			return "OK " + explain + "\n"
		}
		return `OK {"result":0,"trace":{"name":"fake.query"}}` + "\n"
	default:
		return "OK\n"
	}
}

// Client is one line-protocol connection, to a proxy or a member.
type Client struct {
	Conn net.Conn
	R    *bufio.Reader
}

// Dial connects to addr; the test's cleanup closes the connection.
func Dial(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &Client{Conn: conn, R: bufio.NewReader(conn)}
}

// Cmd sends one line and returns the one-line reply, trimmed.
func (c *Client) Cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.Conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := c.R.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
}

// Multi reads an END-terminated response after the given command.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (c *Client) Multi(t *testing.T, line string) []string {
	t.Helper()
	first := c.Cmd(t, line)
	if strings.HasPrefix(first, "ERR") {
		return []string{first}
	}
	lines := []string{first}
	for {
		l, err := c.R.ReadString('\n')
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

// SendAll writes payload in one write and reads n reply lines.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (c *Client) SendAll(t *testing.T, payload string, n int) []string {
	t.Helper()
	if err := c.Conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c.Conn, payload); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, n)
	for len(out) < n {
		l, err := c.R.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(out), n, err)
		}
		out = append(out, strings.TrimRight(l, "\n"))
	}
	return out
}

// MetricValue reads one series off a registry, its labels spelled as
// /metrics renders them.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func MetricValue(t *testing.T, reg *obs.Registry, series string) int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// Naive is the proxy tests' reference: every acknowledged mutation as a
// point, and each query answered by scanning all of them. It shares no
// code with the cube, so a bug of the engine under test cannot hide in
// it too.
type Naive []point

// point is one acknowledged INS (sign 1) or DEL (sign -1).
type point struct {
	t      int64
	c1, c2 int64
	v      float64
	sign   int64
}

// Apply records one acknowledged mutation line, split at white space:
// "INS|DEL <t> <c1> <c2> <v>".
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (n *Naive) Apply(t *testing.T, f []string) {
	t.Helper()
	p := point{sign: 1}
	if f[0] == "DEL" {
		p.sign = -1
	}
	p.t = naiveInt(t, f[1])
	p.c1, p.c2 = naiveInt(t, f[2]), naiveInt(t, f[3])
	v, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		t.Fatalf("naive reference: value %q: %v", f[4], err)
	}
	p.v = v
	*n = append(*n, p)
}

// Query answers op (sum, count or avg) over the fields after a QRY verb:
// <tlo> <thi> <lo1> <lo2> <hi1> <hi2>. A DEL takes its value off the sum
// and one off the count; an average of nothing is 0, as on histserve.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func (n Naive) Query(t *testing.T, op string, args []string) float64 {
	t.Helper()
	var b [6]int64
	for i := range b {
		b[i] = naiveInt(t, args[i])
	}
	var sum float64
	var count int64
	for _, p := range n {
		if p.t >= b[0] && p.t <= b[1] &&
			p.c1 >= b[2] && p.c1 <= b[4] &&
			p.c2 >= b[3] && p.c2 <= b[5] {
			sum += float64(p.sign) * p.v
			count += p.sign
		}
	}
	switch op {
	case "sum":
		return sum
	case "count":
		return float64(count)
	case "avg":
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	}
	t.Fatalf("naive reference: unknown operator %q", op)
	return 0
}

func naiveInt(t *testing.T, field string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(field, 10, 64)
	if err != nil {
		t.Fatalf("naive reference: %q: %v", field, err)
	}
	return v
}
