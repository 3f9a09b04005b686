package shardclient

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeShard is a minimal line-protocol backend: it answers ROLE,
// QRY (fixed value), ERRME (ERR reply) and DROPME (closes the conn
// mid-request).
type fakeShard struct {
	ln       net.Listener
	accepted atomic.Int64
}

func startFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeShard{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			go f.serve(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeShard) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "ROLE":
			conn.Write([]byte("OK role=primary last_lsn=0 followers=0 min_acks=0\n"))
		case strings.HasPrefix(line, "QRY"):
			conn.Write([]byte("42\n"))
		case line == "ERRME":
			conn.Write([]byte("ERR bad request\n"))
		case line == "DROPME":
			return
		default:
			conn.Write([]byte("OK\n"))
		}
	}
}

func (f *fakeShard) addr() string { return f.ln.Addr().String() }

func newTestClient(t *testing.T, addr string) *Client {
	t.Helper()
	c := New(addr, Options{BreakerThreshold: 2, OpTimeout: 2 * time.Second})
	t.Cleanup(c.Close)
	return c
}

func TestDoAndPooling(t *testing.T) {
	f := startFakeShard(t)
	c := newTestClient(t, f.addr())
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		resp, err := c.Do(ctx, "QRY 0 10 0 0 1 1", true)
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if resp != "42" {
			t.Fatalf("Do %d: resp %q", i, resp)
		}
	}
	if n := f.accepted.Load(); n != 1 {
		t.Fatalf("accepted %d conns, want 1 (pooling broken)", n)
	}
	if !c.Healthy() {
		t.Fatal("client unhealthy after successes")
	}
}

func TestErrReplyDoesNotTripBreaker(t *testing.T) {
	f := startFakeShard(t)
	c := newTestClient(t, f.addr())
	for i := 0; i < 5; i++ {
		resp, err := c.Do(context.Background(), "ERRME", true)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("resp %q", resp)
		}
	}
	if !c.Healthy() {
		t.Fatal("ERR replies tripped the breaker; they are application errors, not transport failures")
	}
}

func TestBreakerOpensAndFailsFast(t *testing.T) {
	// A listener we immediately close: dials fail with conn refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := newTestClient(t, addr)
	ctx := context.Background()

	// Threshold is 2: two real failures, then fast-fail.
	for i := 0; i < 2; i++ {
		if _, err := c.Do(ctx, "QRY 0 1 0 0", true); err == nil {
			t.Fatalf("Do %d against dead addr succeeded", i)
		}
	}
	if c.Healthy() {
		t.Fatal("breaker still closed after threshold failures")
	}
	_, err = c.Do(ctx, "QRY 0 1 0 0", true)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("open breaker returned %v, want ErrShardDown", err)
	}
}

// TestBreakerStaysOpenUntilProbe: an open breaker refuses a read and a
// mutating batch however much time passes — neither is ever a health
// probe — even once the shard is back, and Probe, which passes it,
// closes it as soon as the shard answers.
func TestBreakerStaysOpenUntilProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := newTestClient(t, addr)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		c.Do(ctx, "QRY 0 1 0 0", true)
	}
	if c.Healthy() {
		t.Fatal("breaker should be open")
	}
	if _, err := c.Probe(ctx); err == nil {
		t.Fatal("probe of a dead shard succeeded")
	}

	// Shard comes back on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	f := &fakeShard{ln: ln2}
	go func() {
		for {
			conn, err := ln2.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			go f.serve(conn)
		}
	}()
	defer ln2.Close()

	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		if _, err := c.Do(ctx, "QRY 0 1 0 0", true); !errors.Is(err, ErrShardDown) {
			t.Fatalf("read on an open breaker got %v, want ErrShardDown", err)
		}
		if _, err := c.DoBatch(ctx, []string{"INS 1 0 0 1", "INS 2 0 0 1"}, false); !errors.Is(err, ErrShardDown) {
			t.Fatalf("mutating batch on an open breaker got %v, want ErrShardDown", err)
		}
	}
	if n := f.accepted.Load(); n != 0 {
		t.Fatalf("an open breaker let %d connections through", n)
	}
	resp, err := c.Probe(ctx)
	if err != nil || !strings.HasPrefix(resp, "OK role=primary") {
		t.Fatalf("probe of the rejoined shard = %q, %v", resp, err)
	}
	if !c.Healthy() {
		t.Fatal("breaker did not close after a successful probe")
	}
	if got, err := c.Do(ctx, "QRY 0 1 0 0", true); err != nil || got != "42" {
		t.Fatalf("read after the probe = %q, %v", got, err)
	}
}

func TestIdempotentRetryOnStalePooledConn(t *testing.T) {
	f := startFakeShard(t)
	c := newTestClient(t, f.addr())
	ctx := context.Background()

	// Prime the pool, then make the server drop that conn.
	if _, err := c.Do(ctx, "QRY 0 1 0 0", true); err != nil {
		t.Fatalf("prime: %v", err)
	}
	if _, err := c.Do(ctx, "DROPME", false); err == nil {
		t.Fatal("DROPME should surface a transport error")
	}

	// Prime again, drop again — but this time retry as idempotent.
	if _, err := c.Do(ctx, "QRY 0 1 0 0", true); err != nil {
		t.Fatalf("prime 2: %v", err)
	}
	// Ask the server to close the pooled conn underneath us.
	w := <-c.idle
	w.conn.Write([]byte("DROPME\n"))
	// Wait for the server side to actually close.
	buf := make([]byte, 1)
	w.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	w.conn.Read(buf)
	c.idle <- w

	resp, err := c.Do(ctx, "QRY 0 1 0 0", true)
	if err != nil {
		t.Fatalf("idempotent Do on stale conn did not recover: %v", err)
	}
	if resp != "42" {
		t.Fatalf("resp %q", resp)
	}
}

func TestClosedClientRejects(t *testing.T) {
	f := startFakeShard(t)
	c := New(f.addr(), Options{})
	c.Close()
	if _, err := c.Do(context.Background(), "QRY 0 1 0 0", false); err == nil {
		t.Fatal("closed client accepted a request")
	}
	if _, err := c.Probe(context.Background()); err == nil {
		t.Fatal("closed client accepted a probe")
	}
}

// TestDoBatchOneWriteRepliesInOrder pins the run round trip: k lines,
// k replies in line order, an ERR reply being an answer like any other,
// on one connection that goes back to the pool.
func TestDoBatchOneWriteRepliesInOrder(t *testing.T) {
	f := startFakeShard(t)
	c := newTestClient(t, f.addr())
	got, err := c.DoBatch(context.Background(), []string{"INS 1 0 0 1", "ERRME", "QRY 0 1 0 0", "INS 2 0 0 1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"OK", "ERR bad request", "42", "OK"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("batch replies %q, want %q", got, want)
	}
	if _, err := c.DoBatch(context.Background(), []string{"INS 3 0 0 1"}, false); err != nil {
		t.Fatal(err)
	}
	if n := f.accepted.Load(); n != 1 {
		t.Fatalf("two batches used %d connections, want the one pooled", n)
	}
}

// TestDoBatchBrokenMidwayKeepsReceivedReplies: the shard's own answers
// before the break are returned, the rest is an error — and a batch is
// a mutation, so nothing is retried.
func TestDoBatchBrokenMidwayKeepsReceivedReplies(t *testing.T) {
	f := startFakeShard(t)
	c := newTestClient(t, f.addr())
	got, err := c.DoBatch(context.Background(), []string{"INS 1 0 0 1", "INS 2 0 0 1", "DROPME", "INS 3 0 0 1"}, false)
	if err == nil {
		t.Fatalf("broken batch succeeded with %q", got)
	}
	if len(got) != 2 || got[0] != "OK" || got[1] != "OK" {
		t.Fatalf("replies before the break = %q, want the two OKs", got)
	}
	if n := f.accepted.Load(); n != 1 {
		t.Fatalf("broken batch dialled %d connections: a run must never be resent", n)
	}
}
