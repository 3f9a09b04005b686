package shardclient

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
)

// pinFirst makes member 0 the next read's first attempt.
func pinFirst(g *Group) {
	for int(g.rr.Load())%g.Len() != 0 {
		g.rr.Add(1)
	}
}

func TestGroupHedgesSlowMember(t *testing.T) {
	slow := startShard(t, "1", 2*time.Second)
	fast := startShard(t, "2", 0)
	g := NewGroup([]string{slow.addr(), fast.addr()}, 30*time.Millisecond, Options{OpTimeout: 5 * time.Second})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	pinFirst(g)
	start := time.Now()
	resp, err := g.Read(context.Background(), "QRY 0 0 1 1")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "2" {
		t.Fatalf("got %q, want the hedge's answer", resp)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hedged read took %v — waited out the slow member", d)
	}
	if g.Hedged() != 1 {
		t.Fatalf("hedged count = %d, want 1", g.Hedged())
	}
}

func TestGroupReadFailsOverToReplicaImmediately(t *testing.T) {
	up := startShard(t, "7", 0)
	g := NewGroup([]string{"127.0.0.1:1", up.addr()}, 0, Options{OpTimeout: time.Second})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	pinFirst(g)
	resp, err := g.Read(context.Background(), "QRY 0 0 1 1")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "7" {
		t.Fatalf("got %q, want the replica's answer", resp)
	}
}

func TestGroupAllMembersDown(t *testing.T) {
	g := NewGroup([]string{"127.0.0.1:1", "127.0.0.1:1"}, 0, Options{OpTimeout: 500 * time.Millisecond})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	if _, err := g.Read(context.Background(), "QRY 0 0 1 1"); err == nil {
		t.Fatal("read with every member down succeeded")
	}
}

func TestGroupWritePinsToPrimary(t *testing.T) {
	a, b := startShard(t, "1", 0), startShard(t, "2", 0)
	g := NewGroup([]string{a.addr(), b.addr()}, 0, Options{OpTimeout: time.Second})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	for i := 0; i < 5; i++ {
		// A run of i+1 lines is one batch round trip to the primary.
		run := make([]string, i+1)
		for j := range run {
			run[j] = "INS 1 0 0 1"
		}
		resps, err := g.Send(context.Background(), run, true).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) != len(run) {
			t.Fatalf("run of %d answered %d replies", len(run), len(resps))
		}
	}
	if na, nb := a.hits.Load(), b.hits.Load(); na != 15 || nb != 0 {
		t.Fatalf("writes reached the primary %d and the follower %d times, want 15 and 0", na, nb)
	}
	g.SetPrimary(1)
	resps, err := g.Send(context.Background(), []string{"INS 1 0 0 1"}, true).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || resps[0] != "OK" || b.hits.Load() != 1 {
		t.Fatalf("write after SetPrimary answered %q, the new primary received %d lines", resps, b.hits.Load())
	}
	if g.PrimaryIndex() != 1 {
		t.Fatalf("PrimaryIndex = %d", g.PrimaryIndex())
	}
}

// TestGroupPrimaryAloneWithoutFollowerReads: until follower reads are
// switched on, a read batch goes to the current primary alone — no
// hedge however slow it is, no fallback when it is down — and
// SetPrimary moves it.
func TestGroupPrimaryAloneWithoutFollowerReads(t *testing.T) {
	slow := startShard(t, "1", 100*time.Millisecond)
	fast := startShard(t, "2", 0)
	g := NewGroup([]string{slow.addr(), fast.addr()}, 10*time.Millisecond, Options{OpTimeout: 5 * time.Second})
	t.Cleanup(g.Close)
	for i := 0; i < 4; i++ {
		if got, err := g.Send(context.Background(), []string{"QRY 0 0 1 1", "QRY 0 1 1 1"}, false).Wait(); err != nil || strings.Join(got, "|") != "1|1" {
			t.Fatalf("batch %d: %q, %v; want the primary's answers", i, got, err)
		}
	}
	if g.Hedged() != 0 || fast.hits.Load() != 0 {
		t.Fatalf("hedged %d batches, follower served %d lines; want none", g.Hedged(), fast.hits.Load())
	}
	g.SetPrimary(1)
	if got, err := g.Read(context.Background(), "QRY 0 0 1 1"); err != nil || got != "2" {
		t.Fatalf("read after SetPrimary = %q, %v", got, err)
	}

	down := NewGroup([]string{"127.0.0.1:1", fast.addr()}, 0, Options{OpTimeout: time.Second})
	t.Cleanup(down.Close)
	if got, err := down.Read(context.Background(), "QRY 0 0 1 1"); err == nil {
		t.Fatalf("read with the primary down answered %q from a follower", got)
	}
	if n := fast.hits.Load(); n != 1 {
		t.Fatalf("follower served %d lines, want only the one after SetPrimary", n)
	}
}

func TestGroupHedgeLoserDoesNotFeedBreaker(t *testing.T) {
	slow := startShard(t, "1", 300*time.Millisecond)
	fast := startShard(t, "2", 0)
	g := NewGroup([]string{slow.addr(), fast.addr()}, 10*time.Millisecond, Options{
		OpTimeout: 5 * time.Second, BreakerThreshold: 2,
	})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	// Several hedged reads where the slow member always loses and gets
	// canceled: its breaker must stay closed — cancellation is not a
	// shard failure.
	for i := 0; i < 4; i++ {
		pinFirst(g)
		if _, err := g.Read(context.Background(), "QRY 0 0 1 1"); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Member(0).Healthy() {
		t.Fatal("losing hedges opened the slow member's breaker")
	}
}

// TestGroupReadBatchHedgesOncePerBatch: the hedge duplicates the batch,
// not its lines — one timer, one duplicate, one count — and the replies
// all come from the member that won.
func TestGroupReadBatchHedgesOncePerBatch(t *testing.T) {
	slow := startShard(t, "1", time.Second)
	fast := startShard(t, "2", 0)
	g := NewGroup([]string{slow.addr(), fast.addr()}, 30*time.Millisecond, Options{OpTimeout: 5 * time.Second})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	pinFirst(g)
	got, err := g.Send(context.Background(), []string{"QRY 0 0 1 1", "QRY 0 1 1 1", "QRY 0 2 1 1"}, false).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "|") != "2|2|2" {
		t.Fatalf("got %q, want the hedge's three answers", got)
	}
	if g.Hedged() != 1 {
		t.Fatalf("hedged count = %d for one batch of three, want 1", g.Hedged())
	}
	if n := fast.hits.Load(); n != 3 {
		t.Fatalf("the hedge target served %d lines, want the batch of 3", n)
	}
}

// TestGroupReadBatchFailoverDiscardsPartialReplies: a member that dies
// after answering part of a batch contributes nothing — the next member
// gets the whole batch and answers all of it.
func TestGroupReadBatchFailoverDiscardsPartialReplies(t *testing.T) {
	dying, up := startShard(t, "42", 0), startShard(t, "7", 0)
	up.survives.Store(true)
	g := NewGroup([]string{dying.addr(), up.addr()}, 0, Options{OpTimeout: time.Second})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	pinFirst(g)
	got, err := g.Send(context.Background(), []string{"QRY 0 0 1 1", "DROPME", "QRY 0 2 1 1"}, false).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "|") != "7|OK|7" {
		t.Fatalf("got %q, want every reply from the surviving member", got)
	}
	if g.Hedged() != 0 {
		t.Fatalf("a failover counted as %d hedges", g.Hedged())
	}
}

// TestGroupReadBatchLoserDoesNotFeedBreaker: a batch cancelled because
// its duplicate won says nothing about the member's health.
func TestGroupReadBatchLoserDoesNotFeedBreaker(t *testing.T) {
	slow := startShard(t, "1", 100*time.Millisecond)
	fast := startShard(t, "2", 0)
	g := NewGroup([]string{slow.addr(), fast.addr()}, 10*time.Millisecond, Options{
		OpTimeout: 5 * time.Second, BreakerThreshold: 2,
	})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	for i := 0; i < 4; i++ {
		pinFirst(g)
		if got, err := g.Send(context.Background(), []string{"QRY 0 0 1 1", "QRY 0 1 1 1"}, false).Wait(); err != nil || strings.Join(got, "|") != "2|2" {
			t.Fatalf("batch %d: %q, %v", i, got, err)
		}
	}
	if !g.Member(0).Healthy() {
		t.Fatal("losing batches opened the slow member's breaker")
	}
	if g.Hedged() != 4 {
		t.Fatalf("hedged count = %d after 4 hedged batches, want 4", g.Hedged())
	}
}

// TestGroupHedgeRaceReturnsOnParentCancel: the hedge race's wait loop has
// no bound of its own, so it must leave when the caller's context ends.
// Both members accept and then stay silent (the hedge has launched the
// second by the time of the cancel); the caller gets context.Canceled
// at once, not the members' 5 s OpTimeout, and an attempt abandoned
// that way says nothing about its member's health.
func TestGroupHedgeRaceReturnsOnParentCancel(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			var held []net.Conn // open and silent until the listener closes
			for {
				conn, err := ln.Accept()
				if err != nil {
					for _, c := range held {
						c.Close()
					}
					return
				}
				held = append(held, conn)
			}
		}()
		addrs = append(addrs, ln.Addr().String())
	}
	g := NewGroup(addrs, 10*time.Millisecond, Options{OpTimeout: 5 * time.Second, BreakerThreshold: 1})
	t.Cleanup(g.Close)
	g.SetFollowerReads(true)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		got, err := g.Send(ctx, []string{"QRY 0 0 1 1", "QRY 0 1 1 1"}, false).Wait()
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("batch %d: %q, %v; want context.Canceled", i, got, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("batch %d returned %v after the cancel", i, d)
		}
	}
	if g.Hedged() != 3 {
		t.Fatalf("hedged count = %d, want 3: the second member was never outstanding", g.Hedged())
	}
	// Threshold 1: one failure recorded by the earlier batches' abandoned
	// attempts, which have long returned, would show here.
	for i := 0; i < g.Len(); i++ {
		if !g.Member(i).Healthy() {
			t.Fatalf("member %d: a cancelled batch opened its breaker", i)
		}
	}
}

func TestClientConnFaultHooks(t *testing.T) {
	up := startShard(t, "5", 0)

	// DialFault: injected dial failures surface like dial errors.
	inj := fault.MustParse("proxy0.dial:err@1", 1)
	c := New(up.addr(), Options{
		OpTimeout: time.Second,
		DialFault: func() error {
			out := inj.Check("proxy0.dial")
			return out.Err
		},
	})
	t.Cleanup(c.Close)
	if _, err := c.Do(context.Background(), "QRY 0 0 1 1", true); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected dial fault: %v", err)
	}
	if resp, err := c.Do(context.Background(), "QRY 0 0 1 1", true); err != nil || resp != "5" {
		t.Fatalf("after fault healed: %q %v", resp, err)
	}

	// WrapConn drop: the read sees the injected teardown; the next
	// request dials afresh and succeeds.
	inj2 := fault.MustParse("proxy0.conn.read:drop@1", 1)
	c2 := New(up.addr(), Options{
		OpTimeout: time.Second,
		WrapConn:  func(nc net.Conn) net.Conn { return inj2.WrapConn("proxy0.conn", nc) },
	})
	t.Cleanup(c2.Close)
	if _, err := c2.Do(context.Background(), "QRY 0 0 1 1", false); err == nil ||
		!strings.Contains(err.Error(), "injected") {
		t.Fatalf("injected conn drop: %v", err)
	}
	if resp, err := c2.Do(context.Background(), "QRY 0 0 1 1", true); err != nil || resp != "5" {
		t.Fatalf("after drop: %q %v", resp, err)
	}
}
