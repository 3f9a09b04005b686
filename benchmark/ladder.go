package main

// The ladder: one seeded, converged QRY stream and one INS stream, one
// connection, depth 1, fixed op counts, driven through one more hop on
// every rung — core in process, one histserve, the WAL with and without
// fsync, the proxy over one and two shards, asynchronous and semi-sync
// replication. Neighbouring rungs subtract into the budget table that
// says where a replicated insert's time goes.

import (
	"context"
	"fmt"
	"time"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/shardclient"
)

// Ladder sizes. The issue asked for 20 000 ops on every rung; the
// slower rungs are cut so a traced run fits the driver's time budget.
const (
	ladderSlices   = 32
	ladderPool     = 64
	ladderCoreOps  = 20000
	ladderServeOps = 5000
	ladderProxyOps = 2000
)

type ladder struct {
	h    *harness
	m    metrics
	pts  []point
	qrys [][]byte // converged pool, both halves of the history in every range
	fail *tally
}

func newCube() (*core.Cube, error) {
	return core.New(core.Config{
		Dims:             []core.Dim{{Name: "x", Size: dimSize}, {Name: "y", Size: dimSize}},
		Operator:         agg.Sum,
		BufferOutOfOrder: true,
	})
}

func (q query) coreRange() core.Range {
	return core.Range{TimeLo: q.tlo, TimeHi: q.thi, Lo: []int{q.x0, q.y0}, Hi: []int{q.x1, q.y1}}
}

// ladderPoolQueries span both shards of the two-shard rungs: tlo in the
// first half of the seeded history, thi in the second (but historic).
func ladderPoolQueries(seed int64) []query {
	rng := subRand(seed, subSeedPool)
	pool := make([]query, ladderPool)
	for i := range pool {
		q := &pool[i]
		q.tlo = 1 + rng.Int63n(ladderSlices/2)
		q.thi = ladderSlices/2 + 1 + rng.Int63n(ladderSlices/2-1)
		randBox(rng, q)
	}
	return pool
}

// p50Of times n calls of op one by one and returns their median in
// microseconds.
func p50Of(n int, op func(i int) error) (float64, error) {
	lat := make([]int64, n)
	for i := range lat {
		began := time.Now()
		if err := op(i); err != nil {
			return 0, err
		}
		lat[i] = int64(time.Since(began))
	}
	return p50US(lat), nil
}

// rtt is the median round trip of n lines (cycled) over one connection.
// Replies must be well formed: OK for INS, a number for QRY.
func (l *ladder) rtt(w *wire, lines [][]byte, n int) (float64, error) {
	return p50Of(n, func(i int) error {
		line := lines[i%len(lines)]
		o := op{kind: opQry, pool: -1}
		if line[0] == 'I' {
			o.kind = opIns
		}
		if err := w.send(line); err != nil {
			return err
		}
		r, err := w.reply()
		if err != nil {
			return err
		}
		l.fail.attempted++
		account(l.fail, o, r, nil)
		return nil
	})
}

// insLines is the ladder's insert stream: n points on the open slice.
func insLines(seed int64, n int) [][]byte {
	rng := subRand(seed, subSeedConn)
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = randPoint(rng, ladderSlices).appendLine(nil)
	}
	return lines
}

// rung launches one topology, seeds and converges it, and measures the
// named QRY and INS rungs on it ("" skips one); after, when set, gets
// the still-running entry server for further probes.
func (l *ladder) rung(launch func() (*fleet, error), qryName, insName string, n int, after func(addr string, n int) error) error {
	f, err := launch()
	if err != nil {
		return err
	}
	defer f.stop()
	w, err := dial(f.entry.addr)
	if err != nil {
		return err
	}
	defer w.close()
	if err := pipeline(w, l.pts, 256); err != nil {
		return fmt.Errorf("seeding: %w", err)
	}
	if qryName != "" {
		if _, err := l.rtt(w, l.qrys, 2*len(l.qrys)); err != nil { // converge
			return err
		}
		if l.m[qryName], err = l.rtt(w, l.qrys, n); err != nil {
			return err
		}
	}
	if insName != "" {
		if l.m[insName], err = l.rtt(w, insLines(l.h.seed, n), n); err != nil {
			return err
		}
	}
	if after != nil {
		return after(f.entry.addr, n)
	}
	return nil
}

// clientCosts compares, against the plain histserve rung, a raw socket
// round trip with the proxy's client stack: shardclient.Client.Do
// (pool checkout + breaker) and Group.Read (member choice + hedging).
func (l *ladder) clientCosts(addr string, n int) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	if l.m["histserve.rtt_us"], err = l.rtt(c, l.qrys, n); err != nil {
		return err
	}
	time1 := func(do func(line string) (string, error)) (float64, error) {
		return p50Of(n, func(i int) error {
			line := l.qrys[i%len(l.qrys)]
			_, err := do(string(line[:len(line)-1]))
			return err
		})
	}
	ctx := context.Background()
	cl := shardclient.New(addr, shardclient.Options{})
	defer cl.Close()
	if l.m["shardclient.do_us"], err = time1(func(line string) (string, error) { return cl.Do(ctx, line, true) }); err != nil {
		return err
	}
	g := shardclient.NewGroup([]string{addr}, 30*time.Millisecond, shardclient.Options{})
	defer g.Close()
	l.m["shardclient.group_read_us"], err = time1(func(line string) (string, error) { return g.Read(ctx, line) })
	return err
}

// coreRungs times the bare core calls on an identical cube in process.
func (l *ladder) coreRungs(pool []query, n int) error {
	cube, err := newCube()
	if err != nil {
		return err
	}
	for _, p := range l.pts {
		if err := cube.Insert(p.t, []int{p.x, p.y}, float64(p.v)); err != nil {
			return err
		}
	}
	ranges := make([]core.Range, len(pool))
	for i, q := range pool {
		ranges[i] = q.coreRange()
	}
	for pass := 0; pass < 2; pass++ { // pass 0 converges
		if l.m["ladder.qry.core_p50_us"], err = p50Of(n, func(i int) error {
			_, err := cube.Query(ranges[i%len(ranges)])
			return err
		}); err != nil {
			return err
		}
	}
	rng := subRand(l.h.seed, subSeedConn)
	ins := make([]point, n) // generated outside the timed call
	for i := range ins {
		ins[i] = randPoint(rng, ladderSlices)
	}
	coords := make([]int, 2)
	l.m["ladder.ins.core_p50_us"], err = p50Of(n, func(i int) error {
		coords[0], coords[1] = ins[i].x, ins[i].y
		return cube.Insert(ins[i].t, coords, float64(ins[i].v))
	})
	return err
}

// runLadder measures every rung and derives the budget table.
func (h *harness) runLadder(m metrics, fail *tally) error {
	l := &ladder{h: h, m: m, pts: seedPoints(h.seed, ladderSlices), fail: fail}
	pool := ladderPoolQueries(h.seed)
	for _, q := range pool {
		l.qrys = append(l.qrys, q.appendLine(nil))
	}
	coreOps, serveOps, proxyOps := ladderCoreOps, ladderServeOps, ladderProxyOps
	if h.smoke {
		coreOps, serveOps, proxyOps = coreOps/10, serveOps/10, proxyOps/10
	}
	if err := l.coreRungs(pool, coreOps); err != nil {
		return fmt.Errorf("ladder core: %w", err)
	}
	e := h.env
	const split = ladderSlices / 2
	single := func(o shardOpts) func() (*fleet, error) {
		return func() (*fleet, error) { return e.launchSingle(o) }
	}
	proxied := func(shards int, o shardOpts) func() (*fleet, error) {
		return func() (*fleet, error) { return e.launchProxied(shards, split, o) }
	}
	rungs := []struct {
		launch   func() (*fleet, error)
		qry, ins string
		n        int
		after    func(addr string, n int) error
	}{
		{single(shardOpts{}), "ladder.qry.serve_p50_us", "ladder.ins.serve_p50_us", serveOps, l.clientCosts},
		{single(shardOpts{fsync: "never"}), "", "ladder.ins.wal_never_p50_us", serveOps, nil},
		{single(shardOpts{fsync: "always"}), "", "ladder.ins.wal_always_p50_us", serveOps, nil},
		{proxied(1, shardOpts{}), "ladder.qry.proxy1_p50_us", "", proxyOps, nil},
		{proxied(2, shardOpts{fsync: "always"}), "ladder.qry.proxy2_p50_us", "ladder.ins.proxy2_p50_us", proxyOps, nil},
		{proxied(2, shardOpts{fsync: "always", followers: 1}), "", "ladder.ins.repl_async_p50_us", proxyOps, nil},
		{proxied(2, shardOpts{fsync: "always", followers: 1, minAcks: 1}), "ladder.qry.repl_p50_us", "ladder.ins.repl_semisync_p50_us", proxyOps, nil},
	}
	for _, r := range rungs {
		if err := l.rung(r.launch, r.qry, r.ins, r.n, r.after); err != nil {
			return fmt.Errorf("ladder rung %s%s: %w", r.qry, r.ins, err)
		}
	}
	m["histserve.wire_us"] = m["ladder.qry.serve_p50_us"] - m["ladder.qry.core_p50_us"]
	m["histproxy.hop_us"] = m["ladder.qry.proxy1_p50_us"] - m["ladder.qry.serve_p50_us"]
	m["histproxy.fanout_us"] = m["ladder.qry.proxy2_p50_us"] - m["ladder.qry.proxy1_p50_us"]
	m["wal.inline_us"] = m["ladder.ins.wal_never_p50_us"] - m["ladder.ins.serve_p50_us"]
	m["wal.fsync_inline_us"] = m["ladder.ins.wal_always_p50_us"] - m["ladder.ins.wal_never_p50_us"]
	m["repl.ack_wait_us"] = m["ladder.ins.repl_semisync_p50_us"] - m["ladder.ins.repl_async_p50_us"]
	return nil
}

// printBudget renders the budget table: what share of a replicated
// semi-sync insert's median each hop accounts for.
func printBudget(m metrics) {
	total := m["ladder.ins.repl_semisync_p50_us"]
	if total <= 0 {
		return
	}
	rows := []struct {
		what string
		us   float64
	}{
		{"core insert (core)", m["ladder.ins.core_p50_us"]},
		{"wire + parse + lock + trace + flush (histserve)", m["ladder.ins.serve_p50_us"] - m["ladder.ins.core_p50_us"]},
		{"WAL append, no fsync (wal.inline_us)", m["wal.inline_us"]},
		{"fsync under the lock (wal.fsync_inline_us)", m["wal.fsync_inline_us"]},
		{"proxy hop, 2-shard map (histproxy)", m["ladder.ins.proxy2_p50_us"] - m["ladder.ins.wal_always_p50_us"]},
		{"async follower attached (WAL shipping)", m["ladder.ins.repl_async_p50_us"] - m["ladder.ins.proxy2_p50_us"]},
		{"replica ACK wait (repl.ack_wait_us)", m["repl.ack_wait_us"]},
	}
	fmt.Printf("latency budget of one replicated semi-sync INS (ladder.ins.repl_semisync_p50_us = %.1f us):\n", total)
	for _, r := range rows {
		fmt.Printf("  %-50s %10.1f us %6.1f %%\n", r.what, r.us, 100*r.us/total)
	}
	fmt.Printf("query side: core %.1f us, +wire %.1f us (histserve.wire_us), +proxy hop %.1f us (histproxy.hop_us), +fan-out %.1f us (histproxy.fanout_us), replicated %.1f us\n",
		m["ladder.qry.core_p50_us"], m["histserve.wire_us"], m["histproxy.hop_us"], m["histproxy.fanout_us"], m["ladder.qry.repl_p50_us"])
}
