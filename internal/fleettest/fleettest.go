// Package fleettest runs a histcube fleet's parts in process for the
// proxy's tests: real histserve members on loopback; a line relay in
// front of a member, for the states a member reaches only by timing or
// by failing (a slow or stalled line, a link cut between two replies,
// an injected ERR, a ROLE that reports another min_acks= or synced=).
// What they answer is checked against internal/oracle through
// internal/linetest.
//
// Nothing in the program calls it: each export that no other export
// reaches is a cross-package test seam, and its deadexport ignore names
// the tests that use it.
package fleettest

import (
	"bufio"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/histserve"
	"histcube/internal/linetest"
	"histcube/internal/trace"
)

// Member is a real histserve, run in process on loopback: every value a
// proxy test checks comes from members like it. Stop takes it down and
// Restart brings the same Config back on the same address.
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
//histlint:ignore deadexport test seam: the tests of cmd/histproxy and internal/fleettest
func DurableConfig(op, dir, fsync string) histserve.Config {
	cfg := MemberConfig(op)
	cfg.DataDir, cfg.Fsync = dir, fsync
	return cfg
}

// StartMember starts a member from cfg on a free loopback port; the
// test's cleanup stops it.
//
//histlint:ignore deadexport test seam: the tests of cmd/histproxy, internal/histproxy and internal/fleettest
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
//histlint:ignore deadexport test seam: the tests of cmd/histproxy
func (m *Member) Restart(t *testing.T) {
	t.Helper()
	m.start(t, m.Addr)
}

// Stop takes the member down: its listener and every connection it
// accepted close at once, then histserve.Server.Close closes the
// server, and a durable one writes a final checkpoint first. It is a
// clean stop, not a crash: a restart finds no log tail to replay. A
// test that needs a crash runs the histserve binary and SIGKILLs it, as
// TestTranscriptThroughCheckpointAndRestart does.
func (m *Member) Stop() {
	m.mu.Lock()
	srv, ln, conns := m.srv, m.ln, m.conns
	m.srv, m.conns = nil, nil
	m.mu.Unlock()
	if srv == nil {
		return
	}
	_ = ln.Close() // the member is going away: nothing to report
	for _, c := range conns {
		_ = c.Close()
	}
	srv.Close()
}

// Server returns the running server.
//
//histlint:ignore deadexport test seam: the tests of cmd/histproxy
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
//histlint:ignore deadexport test seam: the tests of cmd/histproxy and internal/fleettest
func (m *Member) Stat(t *testing.T, key string) float64 {
	t.Helper()
	v := linetest.Field(t, linetest.Dial(t, m.Addr).Cmd(t, "STATS"), key)
	n, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("STATS %s=%q: %v", key, v, err)
	}
	return n
}

// Relay is a line relay in front of one member, for the states a real
// member reaches only by timing or by failing. It sends the member each
// request line and relays the one reply line that answers it, changing
// only what its Script says: the min_acks= and synced= fields of a ROLE
// reply, and the faults its injector puts on a line. Each relayed
// connection has one of its own to the member, so a member that is down
// refuses it and the relay closes the client's.
type Relay struct {
	Addr   string
	member string
	ln     net.Listener
	stop   chan struct{} // closed by Stop: ends every delayed line
	wg     sync.WaitGroup

	mu     sync.Mutex
	script Script
	conns  map[net.Conn]struct{} // nil once stopped
}

// Script is what a relay changes; its zero value changes nothing.
type Script struct {
	MinAcks string // non-empty: the min_acks= a ROLE reply reports
	Synced  string // non-empty: the synced= a ROLE reply reports
	// Faults is checked once per request line, at the line's first word
	// after any TID= token (QRY, INS, DEL, ROLE, ...; an AVG leg's is
	// PAIR): slow= and stall= delay the line, err answers it with the
	// injected ERR, and drop relays nothing more and closes both sides.
	// Its Ops count the lines by that word.
	Faults *fault.Injector
}

// StartRelay starts a relay in front of m on a free loopback port; the
// test's cleanup stops it.
//
//histlint:ignore deadexport test seam: the tests of cmd/histproxy and internal/fleettest
func StartRelay(t *testing.T, m *Member, s Script) *Relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &Relay{Addr: ln.Addr().String(), member: m.Addr, ln: ln, stop: make(chan struct{}),
		script: s, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go r.serve(client)
		}
	}()
	t.Cleanup(r.Stop)
	return r
}

// Set replaces the script: every line after it follows s.
//
//histlint:ignore deadexport test seam: the tests of cmd/histproxy
func (r *Relay) Set(s Script) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.script = s
}

// Stop closes the listener and every relayed connection, ends every
// delayed line, and returns once nothing of the relay runs.
func (r *Relay) Stop() {
	r.mu.Lock()
	if r.conns != nil {
		close(r.stop)
		_ = r.ln.Close() // the relay is going: nothing to report
		for c := range r.conns {
			_ = c.Close()
		}
		r.conns = nil
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// serve relays one connection line by line until a side closes, a drop
// or Stop. Replies leave when the client has sent nothing more, as a
// member flushes them.
func (r *Relay) serve(client net.Conn) {
	defer r.wg.Done()
	member, err := net.DialTimeout("tcp", r.member, time.Second)
	r.mu.Lock()
	stopped := r.conns == nil
	if err == nil && !stopped {
		r.conns[client], r.conns[member] = struct{}{}, struct{}{}
	}
	r.mu.Unlock()
	in, out := bufio.NewReader(client), bufio.NewWriter(client)
	defer func() {
		_ = out.Flush() // the replies already due; the client may be gone
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, c := range []net.Conn{client, member} {
			if c != nil {
				_ = c.Close()
				delete(r.conns, c)
			}
		}
	}()
	if err != nil || stopped {
		return // the member is down, and so is the link
	}
	replies := bufio.NewReader(member)
	for {
		if in.Buffered() == 0 && out.Flush() != nil {
			return
		}
		line, err := in.ReadString('\n')
		if err != nil {
			return
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue // a member answers a blank line with nothing
		}
		_, stripped := trace.CutRequestID(trimmed)
		verb, _, _ := strings.Cut(stripped, " ")
		r.mu.Lock()
		s := r.script
		r.mu.Unlock()
		o := s.Faults.Check(verb)
		if o.Delay > 0 && (out.Flush() != nil || !r.wait(o.Delay)) {
			return
		}
		var reply string
		switch {
		case o.Drop:
			return
		case o.Err != nil:
			reply = "ERR " + o.Err.Error() + "\n"
		default:
			if _, err := io.WriteString(member, line); err != nil {
				return
			}
			if reply, err = replies.ReadString('\n'); err != nil {
				return
			}
			if verb == "ROLE" {
				reply = s.role(reply)
			}
		}
		if _, err := out.WriteString(reply); err != nil {
			return
		}
	}
}

// wait sleeps d, or until Stop; it reports whether the relay still runs.
func (r *Relay) wait(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-r.stop:
		return false
	}
}

// role rewrites a ROLE reply's min_acks= and synced= as s says; every
// other byte passes.
func (s Script) role(reply string) string {
	set := map[string]string{"min_acks": s.MinAcks, "synced": s.Synced}
	fields := strings.Split(strings.TrimSuffix(reply, "\n"), " ")
	for i, f := range fields {
		if k, _, _ := strings.Cut(f, "="); set[k] != "" {
			fields[i] = k + "=" + set[k]
		}
	}
	return strings.Join(fields, " ") + "\n"
}
