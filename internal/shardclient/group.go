// Group: one shard's replica set as a single client surface — reads
// fan across healthy members (with a hedged duplicate after a latency
// threshold) while follower reads are on, writes pin to the current
// primary, and failover is one SetPrimary call away.
//
// A batch is sent and read in two halves, Send and Call.Wait, so a
// caller can have every shard's batch in flight before it reads any of
// them, on its own goroutine; a goroutine starts only for a due hedge.
// Cancelling the caller's context is observed at once by the hedge race
// alone: an inline wait is bounded by the attempt's own deadline, which
// folds in the context's deadline. That suffices because nothing on
// histproxy's serving path cancels a window's context while the window
// is being read.
//
// Hedging is safe here for a reason most systems don't have: every
// member replays the same totally ordered WAL stream, so any two
// members that have applied an acked write return bit-identical
// answers — first answer wins, no reconciliation. But a follower outside
// the primary's ack quorum may lack a write a client saw acked, so
// followers serve reads only while SetFollowerReads is on: while the
// primary's -repl-min-acks is at least its number of followers. That
// rule does not see a follower re-bootstrapping from an empty directory,
// which answers from what it has applied until it has caught up.
package shardclient

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Group is the replica-set client for one time-range shard. Safe for
// concurrent use.
type Group struct {
	members   []*Client // immutable; configured primary first
	primary   atomic.Int32
	followers atomic.Bool   // followers may serve reads (SetFollowerReads)
	rr        atomic.Uint32 // read round-robin cursor
	hedged    atomic.Int64  // hedged duplicate batches launched

	hedgeAfter time.Duration
}

// NewGroup builds one Client per member address (configured primary
// first, as in the shard-map spec). hedgeAfter is the latency
// threshold after which a read batch is duplicated to the next member;
// 0 disables hedging.
func NewGroup(addrs []string, hedgeAfter time.Duration, opts Options) *Group {
	g := &Group{hedgeAfter: hedgeAfter}
	for _, a := range addrs {
		g.members = append(g.members, New(a, opts))
	}
	return g
}

// Len returns the member count.
func (g *Group) Len() int { return len(g.members) }

// Member returns the i'th member's client (configured order).
func (g *Group) Member(i int) *Client { return g.members[i] }

// Primary returns the current write target.
func (g *Group) Primary() *Client { return g.members[g.primary.Load()] }

// PrimaryIndex returns the current primary's index in configured
// order.
func (g *Group) PrimaryIndex() int { return int(g.primary.Load()) }

// SetPrimary re-points writes at member i — the failover switch after
// a promotion.
func (g *Group) SetPrimary(i int) {
	if i >= 0 && i < len(g.members) {
		g.primary.Store(int32(i))
	}
}

// SetFollowerReads switches reads between every healthy member (on) and
// the current primary alone, with no fallback or hedge (off, at start).
func (g *Group) SetFollowerReads(on bool) { g.followers.Store(on) }

// Healthy reports whether any member's breaker is closed.
func (g *Group) Healthy() bool {
	for _, c := range g.members {
		if c.Healthy() {
			return true
		}
	}
	return false
}

// Hedged returns the number of hedged duplicate read batches launched.
func (g *Group) Hedged() int64 { return g.hedged.Load() }

// Close closes every member client.
func (g *Group) Close() {
	for _, c := range g.members {
		c.Close()
	}
}

// Send sends one batch of the shard's lines as one round trip and
// returns without reading; Wait on the Call reads the replies. A batch
// that carries a mutation (mutates) goes to the current primary and is
// never retried or hedged: a duplicate mutation is a double-apply.
// Replies come back in line order; on failure the ones received before
// the break are returned next to the error (see Client.DoBatch).
//
// A read batch goes to the first member in read order, the batch as a
// whole. Wait reads it inline: a member whose attempt fails is followed
// by the next one at once, and what it had answered before failing is
// discarded — the replies of one batch all come from one member. Only
// when hedgeAfter passes with replies still missing does Wait start a
// race: the attempt in flight goes on, on a goroutine of its own, a
// duplicate of the batch goes to the next member, and the first complete
// set of replies wins. Replies that reached the connection while the
// caller was reading another batch are read before the hedge point or
// the deadline counts as passed. An ERR reply is an answer (the
// transport is healthy and every member is deterministic), not a reason
// to fan out further.
func (g *Group) Send(ctx context.Context, lines []string, mutates bool) *Call {
	if mutates {
		return g.Primary().send(ctx, lines, false)
	}
	order := g.readOrder()
	call := order[0].send(ctx, lines, true)
	call.g, call.rest = g, order[1:]
	if g.hedgeAfter > 0 {
		call.hedgeAt = time.Now().Add(g.hedgeAfter)
	}
	return call
}

// Read sends a single idempotent line as a read batch of one.
func (g *Group) Read(ctx context.Context, line string) (string, error) {
	replies, err := g.Send(ctx, []string{line}, false).Wait()
	if err != nil {
		return "", err
	}
	return replies[0], nil
}

// wait reads a read batch to its end on the caller's goroutine, failing
// over inline, until the hedge point passes with replies missing.
func (g *Group) wait(call *Call) ([]string, error) {
	var firstErr error
	for {
		var hedgeAt time.Time
		if len(call.rest) > 0 {
			hedgeAt = call.hedgeAt
		}
		if !call.read(hedgeAt) {
			return g.race(call, firstErr)
		}
		if call.err == nil {
			return call.replies, nil
		}
		if firstErr == nil {
			firstErr = call.err
		}
		if len(call.rest) == 0 {
			return nil, firstErr
		}
		next := call.rest[0].send(call.ctx, call.lines, true)
		next.rest, next.hedgeAt = call.rest[1:], call.hedgeAt
		call = next
	}
}

// race is the hedge: the late attempt is resumed and a duplicate batch
// sent to the next member, each on a goroutine of its own, and the first
// complete set of replies wins. A failed attempt launches the next
// member; the winner cancels every loser, which keeps the losers out of
// the breaker.
func (g *Group) race(late *Call, firstErr error) ([]string, error) {
	ctx, cancel := context.WithCancel(late.ctx)
	defer cancel()
	results := make(chan *Call, len(late.rest)+1)
	finish := func(call *Call) {
		call.read(time.Time{})
		results <- call
	}
	rest, lines := late.rest, late.lines
	next := func() {
		c := rest[0]
		rest = rest[1:]
		go func() { finish(c.send(ctx, lines, true)) }()
	}
	late.ctx = ctx
	go finish(late)
	g.hedged.Add(1)
	next()
	for outstanding := 2; ; {
		select {
		case call := <-results:
			outstanding--
			if call.err == nil {
				return call.replies, nil
			}
			if firstErr == nil {
				firstErr = call.err
			}
			if len(rest) > 0 {
				next()
				outstanding++
			} else if outstanding == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, fmt.Errorf("shard group: %w", ctx.Err())
		}
	}
}

// readOrder returns the members in attempt order: with follower reads
// on, the healthy ones, rotated by a round-robin cursor to spread load;
// otherwise, or with none healthy, the primary alone.
func (g *Group) readOrder() []*Client {
	n := len(g.members)
	if g.followers.Load() {
		start := int(g.rr.Add(1)-1) % n
		healthy := make([]*Client, 0, n)
		for i := 0; i < n; i++ {
			if c := g.members[(start+i)%n]; c.Healthy() {
				healthy = append(healthy, c)
			}
		}
		if len(healthy) > 0 {
			return healthy
		}
	}
	i := g.primary.Load()
	return g.members[i : i+1 : i+1]
}
