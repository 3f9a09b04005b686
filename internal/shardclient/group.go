// Group: one shard's replica set as a single client surface — reads
// fan across healthy members (with a hedged duplicate after a latency
// threshold), writes pin to the current primary, and failover is one
// SetPrimary call away.
//
// Hedging is safe here for a reason most systems don't have: every
// member replays the same totally ordered WAL stream, so any two
// members that have applied an acked write return bit-identical
// answers — first answer wins, no reconciliation. (A replica that is
// still catching up can serve a slightly stale read under async
// replication; semi-sync primaries — histserve -repl-min-acks — close
// that window for acked writes.)
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
	members []*Client // immutable; configured primary first
	primary atomic.Int32
	rr      atomic.Uint32 // read round-robin cursor
	hedged  atomic.Int64  // hedged duplicate batches launched

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

// Write sends a batch that carries a mutation — a lone one is a batch of
// one — to the current primary as one round trip, never retried and
// never hedged: a duplicate mutation is a double-apply. Replies come
// back in line order; on failure the ones received before the break are
// returned next to the error (see Client.DoBatch).
func (g *Group) Write(ctx context.Context, lines []string) ([]string, error) {
	return g.Primary().DoBatch(ctx, lines, false)
}

// Read is ReadBatch for a single line.
func (g *Group) Read(ctx context.Context, line string) (string, error) {
	replies, err := g.ReadBatch(ctx, []string{line})
	if err != nil {
		return "", err
	}
	return replies[0], nil
}

// ReadBatch sends a batch of idempotent single-line requests as one
// round trip with member fan-out, the batch as a whole: the first member
// answers alone until hedgeAfter elapses, then a duplicate of the batch
// goes to the next member and the first complete set of replies wins. A
// member whose attempt fails triggers the next member immediately, and
// what it had answered before failing is discarded — the replies of one
// batch all come from one member. An ERR reply is an answer (the
// transport is healthy and every member is deterministic), not a reason
// to fan out further.
func (g *Group) ReadBatch(ctx context.Context, lines []string) ([]string, error) {
	order := g.readOrder()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner cancels every outstanding loser

	type readResult struct {
		replies []string
		err     error
	}
	results := make(chan readResult, len(order))
	launch := func(c *Client) {
		go func() {
			var r readResult
			r.replies, r.err = c.DoBatch(ctx, lines, true)
			results <- r
		}()
	}

	next := 0
	launch(order[next])
	next++
	outstanding := 1

	var hedge <-chan time.Time
	if g.hedgeAfter > 0 && next < len(order) {
		t := time.NewTimer(g.hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	var firstErr error
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				return r.replies, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if next < len(order) {
				launch(order[next])
				next++
				outstanding++
			} else if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedge:
			hedge = nil
			if next < len(order) {
				g.hedged.Add(1)
				launch(order[next])
				next++
				outstanding++
			}
		case <-ctx.Done():
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, fmt.Errorf("shard group: %w", ctx.Err())
		}
	}
}

// readOrder returns the members in attempt order: healthy ones first,
// rotated by a round-robin cursor so read load spreads across the set,
// then open-breaker members last (a half-open trial may still get
// through and is how a rejoined member comes back).
func (g *Group) readOrder() []*Client {
	n := len(g.members)
	start := int(g.rr.Add(1)-1) % n
	healthy := make([]*Client, 0, n)
	var down []*Client
	for i := 0; i < n; i++ {
		c := g.members[(start+i)%n]
		if c.Healthy() {
			healthy = append(healthy, c)
		} else {
			down = append(down, c)
		}
	}
	return append(healthy, down...)
}
