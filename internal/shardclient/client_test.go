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

// shard is the one line-protocol backend of this package's tests: ROLE
// answers as a lone primary, QRY its value after its delay, ERRME an ERR
// reply and DROPME closes the connection mid-request, unless the shard
// survives it; any other line is answered OK. Distinct values let the
// group tests see which member answered.
type shard struct {
	ln       net.Listener
	value    string
	delay    time.Duration
	survives atomic.Bool  // DROPME is answered OK
	accepted atomic.Int64 // connections
	hits     atomic.Int64 // lines received
}

func startShard(t *testing.T, value string, delay time.Duration) *shard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &shard{ln: ln, value: value, delay: delay}
	go s.accept()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *shard) accept() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.accepted.Add(1)
		go s.serve(conn)
	}
}

func (s *shard) serve(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		s.hits.Add(1)
		reply := "OK"
		switch line := sc.Text(); {
		case line == "ROLE":
			reply = "OK role=primary last_lsn=0 followers=0 min_acks=0"
		case strings.HasPrefix(line, "QRY"):
			time.Sleep(s.delay)
			reply = s.value
		case line == "ERRME":
			reply = "ERR bad request"
		case line == "DROPME" && !s.survives.Load():
			return
		}
		conn.Write([]byte(reply + "\n"))
	}
}

func (s *shard) addr() string { return s.ln.Addr().String() }

func newTestClient(t *testing.T, addr string) *Client {
	t.Helper()
	c := New(addr, Options{BreakerThreshold: 2, OpTimeout: 2 * time.Second})
	t.Cleanup(c.Close)
	return c
}

func TestDoAndPooling(t *testing.T) {
	f := startShard(t, "42", 0)
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
	f := startShard(t, "42", 0)
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
	f := &shard{ln: ln2, value: "42"}
	go f.accept()
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
	f := startShard(t, "42", 0)
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
	f := startShard(t, "42", 0)
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
	f := startShard(t, "42", 0)
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
	f := startShard(t, "42", 0)
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
