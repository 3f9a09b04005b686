// Package fleettest runs a histcube fleet's parts in process for the
// proxy's tests, in cmd/histproxy and in internal/histproxy: real
// histserve members on loopback, a scripted stand-in for the states a
// member reaches only by timing or by failing, and the adaptor that
// feeds the wire's mutations to internal/oracle and renders its
// answers as the wire does, the reference every proxied answer is
// checked against.
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
	"histcube/internal/linetest"
	"histcube/internal/oracle"
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
	for _, tok := range strings.Fields(linetest.Dial(t, m.Addr).Cmd(t, "STATS")) {
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

// Apply feeds one acknowledged mutation line, split at white space
// ("INS|DEL <t> <c1> <c2> <v>"), to the reference.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func Apply(t *testing.T, ref *oracle.Points, f []string) {
	t.Helper()
	tm, coords := int64(wireInt(t, f[1])), []int{wireInt(t, f[2]), wireInt(t, f[3])}
	v, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		t.Fatalf("reference: value %q: %v", f[4], err)
	}
	if f[0] == "DEL" {
		ref.Delete(tm, coords, v)
	} else {
		ref.Insert(tm, coords, v)
	}
}

// Answer is the reply a correct fleet of operator op (sum, count or
// avg) gives to QRY with the fields after the verb, <tlo> <thi> <lo1>
// <lo2> <hi1> <hi2>, as the wire renders it.
//
//histlint:ignore deadexport test seam: the proxy tests of cmd/histproxy and internal/histproxy
func Answer(t *testing.T, ref oracle.Points, op string, args []string) string {
	t.Helper()
	var b [6]int
	for i := range b {
		b[i] = wireInt(t, args[i])
	}
	pair := ref.Query(int64(b[0]), int64(b[1]), b[2:4], b[4:6])
	return strconv.FormatFloat(pair.Of(op), 'g', -1, 64)
}

func wireInt(t *testing.T, field string) int {
	t.Helper()
	v, err := strconv.Atoi(field)
	if err != nil {
		t.Fatalf("reference: %q: %v", field, err)
	}
	return v
}
