package main

// The closed-loop load generator: each connection sends a window of
// Depth lines, reads their replies, and only then builds the next
// window, so a slow system receives less load. Latencies are kept as
// raw samples, measured from the window's send to each line's reply.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// opTimeout bounds one window so a wedged server fails the run instead
// of hanging it.
const opTimeout = 30 * time.Second

// wire is one client connection. reads counts socket reads that
// returned data: with one reply flushed per request it equals the
// reply count, and a server that batches flushes pushes it below.
type wire struct {
	c     net.Conn
	br    *bufio.Reader
	reads int64
}

func (w *wire) Read(p []byte) (int, error) {
	n, err := w.c.Read(p)
	if n > 0 {
		w.reads++
	}
	return n, err
}

func dial(addr string) (*wire, error) {
	c, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	w := &wire{c: c}
	w.br = bufio.NewReaderSize(w, 16<<10)
	return w, nil
}

func (w *wire) close() { _ = w.c.Close() }

func (w *wire) send(b []byte) error {
	if err := w.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	_, err := w.c.Write(b)
	return err
}

// reply reads one response line (without its newline); the slice is
// valid until the next read.
func (w *wire) reply() ([]byte, error) {
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (w *wire) roundTrip(line string) (string, error) {
	if err := w.send([]byte(line + "\n")); err != nil {
		return "", err
	}
	r, err := w.reply()
	return string(r), err
}

// clock is the transaction-time frontier: base while stopped, then one
// more per tick of wall time, so the slice count at the end of a run
// is set by the benchmark and not by how fast the servers are.
type clock struct {
	base  int64
	tick  time.Duration // 0 = stopped
	start time.Time
}

func (c *clock) now() int64 {
	if c.tick == 0 {
		return c.base
	}
	return c.base + int64(time.Since(c.start)/c.tick)
}

// tally is what one phase produced, per connection and merged.
type tally struct {
	lat       [numKinds][]int64 // ns, window send -> reply
	attempted int64
	failed    int64
	acked     []point // inserts the server answered OK
	reads     int64
	elapsed   time.Duration
	firstFail string
}

// fail counts n failed ops and keeps the first failure's description.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += int64(n)
	if t.firstFail == "" {
		t.firstFail = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.acked = append(t.acked, o.acked...)
	t.reads += o.reads
	if t.firstFail == "" {
		t.firstFail = o.firstFail
	}
}

func (t *tally) ops() int64 { return t.attempted - t.failed }

// phaseLimit ends a phase after a duration (timed phase) or after a
// number of ops per connection (warm-up, epilogue).
type phaseLimit struct {
	d   time.Duration
	ops int
}

// worker is one connection with its op stream.
type worker struct {
	w      *wire
	s      *stream
	depth  int
	expect []string // pooled queries' oracle answers, nil when not pooled
}

// run drives the connection until limit and returns its tally.
func (k *worker) run(clk *clock, limit phaseLimit) *tally {
	t := &tally{}
	var (
		buf   []byte
		ops   = make([]op, k.depth)
		until = time.Now().Add(limit.d)
		reads = k.w.reads
	)
	for n := 0; ; n += k.depth {
		if limit.ops > 0 {
			if n >= limit.ops {
				break
			}
		} else if !time.Now().Before(until) {
			break
		}
		buf = buf[:0]
		frontier := clk.now()
		for i := range ops {
			buf, ops[i] = k.s.next(buf, frontier)
		}
		t.attempted += int64(len(ops))
		sent := time.Now()
		if err := k.w.send(buf); err != nil {
			t.fail(len(ops), "send: %v", err)
			break
		}
		broken := false
		for i := range ops {
			r, err := k.w.reply()
			if err != nil {
				t.fail(len(ops)-i, "reading reply: %v", err)
				broken = true
				break
			}
			t.lat[ops[i].kind] = append(t.lat[ops[i].kind], int64(time.Since(sent)))
			account(t, ops[i], r, k.expect)
		}
		if broken {
			break
		}
	}
	t.reads = k.w.reads - reads
	return t
}

// account checks one reply: OK for an insert (which then joins the
// oracle's history), a number for a query, and for a pooled query the
// oracle's exact answer from expect. ERR and PARTIAL both fail the op.
func account(t *tally, o op, r []byte, expect []string) {
	if o.kind == opIns {
		if string(r) == "OK" {
			t.acked = append(t.acked, o.pt)
		} else {
			t.fail(1, "INS answered %q", r)
		}
		return
	}
	if o.pool >= 0 && expect != nil {
		if string(r) != expect[o.pool] {
			t.fail(1, "pooled query %d answered %q, oracle says %s", o.pool, r, expect[o.pool])
		}
		return
	}
	if _, err := strconv.ParseFloat(string(r), 64); err != nil {
		t.fail(1, "QRY answered %q", r)
	}
}

// runPhase drives every worker concurrently and merges their tallies.
func runPhase(workers []*worker, clk *clock, limit phaseLimit) *tally {
	parts := make([]*tally, len(workers))
	var wg sync.WaitGroup
	began := time.Now()
	for i, k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = k.run(clk, limit)
		}()
	}
	wg.Wait()
	total := &tally{elapsed: time.Since(began)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// formatAnswer renders an oracle answer the way the servers format a
// query result.
func formatAnswer(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// pipeline sends lines in windows of batch over one connection and
// requires every reply to be OK; it is how set-up seeds history.
func pipeline(w *wire, pts []point, batch int) error {
	var buf []byte
	for len(pts) > 0 {
		n := min(batch, len(pts))
		buf = buf[:0]
		for _, p := range pts[:n] {
			buf = p.appendLine(buf)
		}
		if err := w.send(buf); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			r, err := w.reply()
			if err != nil {
				return err
			}
			if string(r) != "OK" {
				return fmt.Errorf("seed insert at t=%d answered %q", pts[i].t, r)
			}
		}
		pts = pts[n:]
	}
	return nil
}

// checkOracle asks qs over one connection and counts every answer that
// is not bit-identical to the naive scan of pts.
func checkOracle(w *wire, pts []point, qs []query, t *tally) {
	var buf []byte
	t.attempted += int64(len(qs))
	for i, q := range qs {
		want := formatAnswer(answer(pts, q))
		if err := w.send(q.appendLine(buf[:0])); err != nil {
			t.fail(len(qs)-i, "check send: %v", err)
			return
		}
		r, err := w.reply()
		if err != nil {
			t.fail(len(qs)-i, "check reply: %v", err)
			return
		}
		if string(r) != want {
			t.fail(1, "check query %d (t %d..%d) answered %q, oracle says %s", i, q.tlo, q.thi, r, want)
		}
	}
}
