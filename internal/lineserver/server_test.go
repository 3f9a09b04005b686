package lineserver

// Protocol conformance of the serving core against a stub command
// table: what every binary built on it inherits without writing a line.

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"histcube/internal/linetest"
	"histcube/internal/obs"
	"histcube/internal/trace"
)

// stub is a Server with a table that exercises every column: ECHO and
// MUT join, ONE is a unit by itself, MUT leaves its reply to settle,
// BOOM panics, STOP sets Quit, TORN answers its Torn field, TAKE
// hijacks.
type stub struct {
	Server
	mu      sync.Mutex
	settled []int // size of every settle call
	boomIn  string
}

func newStub(t *testing.T) *stub {
	t.Helper()
	st := &stub{}
	st.Init(func(open []*Request) time.Time {
		st.mu.Lock()
		st.settled = append(st.settled, len(open))
		boom := st.boomIn
		st.mu.Unlock()
		for _, rq := range open {
			if rq.Fields[1] == boom {
				panic("settle blew up")
			}
			rq.Reply = "OK " + rq.Fields[1]
		}
		return time.Time{}
	},
		Command{Verb: "ECHO", MinArgs: 1, MaxArgs: 1, Usage: "ECHO takes one word", Joins: true,
			Handle: func(rq *Request) string { return rq.Fields[1] }},
		Command{Verb: "MUT", MinArgs: 1, MaxArgs: 1, Usage: "MUT takes one word", Joins: true,
			Handle: func(rq *Request) string { rq.Pending = true; return "" }},
		Command{Verb: "ONE", EndsUnit: true, Usage: "ONE takes no arguments",
			Handle: func(*Request) string { return "one" }},
		Command{Verb: "BOOM", Joins: true, Handle: func(*Request) string { panic("handler blew up") }},
		Command{Verb: "STOP", Joins: true, Handle: func(rq *Request) string { rq.Quit = true; return "stopping" }},
		Command{Verb: "TORN", Joins: true, Handle: func(rq *Request) string { return fmt.Sprint(rq.Torn) }},
		Command{Verb: "NOPE", MaxArgs: -1, Joins: true, Other: true,
			Handle: func(*Request) string { return "ERR NOPE is refused" }},
		Command{Verb: "TAKE", MaxArgs: -1, EndsUnit: true,
			Hijack: func(conn net.Conn, _ *Reader, w *bufio.Writer, rq *Request) {
				if rq.Line == "TAKE boom" {
					panic("hijacker blew up")
				}
				fmt.Fprintf(w, "TAKEN %s\n", strings.Join(rq.Fields[1:], ","))
				_ = w.Flush()
			}},
	)
	st.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	st.Slow = trace.NewSlowLog(4, 0)
	reg := st.Reg
	st.Connections = reg.NewGauge("stub_connections", "Open connections.")
	st.ConnTotal = reg.NewCounter("stub_connections_total", "Connections accepted.")
	st.ConnRejects = reg.NewCounter("stub_connections_rejected_total", "Connections rejected.")
	st.Inflight = reg.NewGauge("stub_inflight_requests", "Requests in flight.")
	st.Panics = reg.NewCounter("stub_panics_recovered_total", "Panics recovered.")
	for _, l := range st.Labels() {
		st.Errors[l] = reg.NewCounter("stub_errors_total", "Errors.", obs.Label{Key: "cmd", Value: l})
		st.Latency[l] = reg.NewHistogram("stub_request_seconds", "Latency.", nil, obs.Label{Key: "cmd", Value: l})
	}
	return st
}

func (st *stub) settleSizes() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.settled...)
}

// writeCounter counts the writes a connection's server side makes: one
// per flush, as long as a unit's replies fit the 4 KiB write buffer.
type writeCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) { c.n.Add(1); return c.Conn.Write(p) }

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCounter{c, l.writes}, nil
}

// start serves st on a loopback listener and returns a connected client
// plus the server side's write count (read it only after the replies
// that the writes carried have been read).
func start(t *testing.T, st *stub) (*linetest.Client, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes := new(atomic.Int64)
	go st.Serve(countingListener{ln, writes})
	t.Cleanup(func() { ln.Close() })
	return linetest.Dial(t, ln.Addr().String()), writes
}

func TestConformanceLineByLine(t *testing.T) {
	st := newStub(t)
	c, _ := start(t, st)
	for _, tc := range []struct{ send, want string }{
		{"ECHO a", "a"},
		{"  echo   b  ", "b"}, // verbs are case-insensitive, white space is free
		{"\n\nECHO c", "c"},   // blank lines are skipped without a reply
		{"TID=feedface12345678 ECHO d", "d"},
		{"TID=feedface12345678", "ERR empty command"},
		{"FROB 1 2", "ERR unknown command FROB"},
		{"ECHO", "ERR ECHO takes one word"},
		{"ECHO a b", "ERR ECHO takes one word"},
		{"ONE more", "ERR ONE takes no arguments"},
		{"SLOWLOG now", "ERR SLOWLOG takes no arguments"},
		{"NOPE whatever", "ERR NOPE is refused"},
		{"MUT x", "OK x"},
	} {
		if got := c.Cmd(t, tc.send); got != tc.want {
			t.Errorf("%q -> %q, want %q", tc.send, got, tc.want)
		}
	}
	if got := c.SendAll(t, "SLOWLOG\n", 2); !strings.HasPrefix(got[0], "OK n=0 cap=4") || got[1] != "END" {
		t.Errorf("SLOWLOG -> %q", got)
	}
	// QUIT must always close, whatever follows the verb.
	if got := c.Cmd(t, "QUIT right now"); got != "BYE" {
		t.Errorf("QUIT with arguments -> %q, want BYE", got)
	}
	if _, err := c.R.ReadString('\n'); err != io.EOF {
		t.Errorf("after QUIT: %v, want the connection closed", err)
	}
	// Unknown verbs, the refused verb and the empty command share one
	// label; every other verb has its own.
	if got := st.Latency["other"].Count(); got != 3 {
		t.Errorf(`request_seconds{cmd="other"} count = %d, want 3`, got)
	}
	if got, errs := st.Latency["ECHO"].Count(), st.Errors["ECHO"].Value(); got != 6 || errs != 2 {
		t.Errorf("ECHO requests/errors = %d/%d, want 6/2", got, errs)
	}
	if _, own := st.Latency["NOPE"]; own {
		t.Error("an Other row must not yield a label of its own")
	}
}

// TestUnitRule pins which buffered lines are served, settled and
// flushed together, from the table's two columns alone.
func TestUnitRule(t *testing.T) {
	for _, tc := range []struct {
		name, send string
		replies    int
		flushes    int
		settled    string
	}{
		{"joiners share one unit", "ECHO a\nMUT b\n\nMUT c\nECHO d\n", 4, 1, "[2]"},
		{"a non-joiner is a unit of one and splits the run", "MUT a\nMUT b\nONE\nMUT c\n", 4, 3, "[2 1]"},
		{"nothing joins after EndsUnit", "ONE\nECHO a\n", 2, 2, "[]"},
		{"QUIT rides with the unit and ends it", "MUT a\nQUIT\nECHO never\n", 2, 1, "[1]"},
		{"unknown verbs are units of one", "ECHO a\nFROB\nECHO b\n", 3, 3, "[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStub(t)
			c, writes := start(t, st)
			c.SendAll(t, tc.send, tc.replies)
			if got := writes.Load(); got != int64(tc.flushes) {
				t.Errorf("flushes = %d, want %d", got, tc.flushes)
			}
			if got := fmt.Sprint(st.settleSizes()); got != tc.settled {
				t.Errorf("settle calls = %s, want %s", got, tc.settled)
			}
		})
	}
}

// TestQuitAndTorn pins the two Request fields a replication link leans
// on. A handler's Quit in the middle of a pipelined window closes the
// connection only after every reply of the window has left, in one
// flush. Torn is true only for a final line cut off by EOF, never for a
// complete line that joined the unit.
func TestQuitAndTorn(t *testing.T) {
	st := newStub(t)
	c, writes := start(t, st)
	if got := fmt.Sprint(c.SendAll(t, "MUT a\nSTOP\nECHO b\nMUT c\n", 4)); got != "[OK a stopping b OK c]" {
		t.Fatalf("window with a Quit in the middle: replies = %s", got)
	}
	if _, err := c.R.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the window: %v, want the connection closed", err)
	}
	if got := writes.Load(); got != 1 {
		t.Errorf("flushes = %d, want 1", got)
	}

	c, _ = start(t, newStub(t))
	io.WriteString(c.Conn, "TORN\nTORN\nTORN")
	c.Conn.(*net.TCPConn).CloseWrite()
	if got := fmt.Sprint(c.SendAll(t, "", 3)); got != "[false false true]" {
		t.Fatalf("Torn of two complete lines and a cut-off one = %s", got)
	}
}

func TestPartialTrailingLineNeverWithholdsReplies(t *testing.T) {
	st := newStub(t)
	c, _ := start(t, st)
	if got := c.SendAll(t, "MUT a\nECHO b\nMUT c", 2); got[0] != "OK a" || got[1] != "b" {
		t.Fatalf("replies before the partial line = %q", got)
	}
	c.Conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if l, err := c.R.ReadString('\n'); err == nil {
		t.Fatalf("partial line was answered %q", l)
	}
	if got := c.Cmd(t, "c"); got != "OK cc" {
		t.Fatalf("completed line -> %q", got)
	}
}

func TestUnitBeyondCapReleasedInSeveralFlushes(t *testing.T) {
	st := newStub(t)
	c, writes := start(t, st)
	const n = 2*MaxPendingReplies + 10
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "MUT %d\n", i)
	}
	go io.WriteString(c.Conn, b.String())
	for i, got := range c.SendAll(t, "", n) {
		if want := fmt.Sprintf("OK %d", i); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	total := 0
	for _, size := range st.settleSizes() {
		if size > MaxPendingReplies {
			t.Errorf("a unit of %d exceeds the cap of %d", size, MaxPendingReplies)
		}
		total += size
	}
	if total != n || len(st.settleSizes()) < 3 || writes.Load() < 3 {
		t.Errorf("settled %d requests in %v, %d flushes; want %d in at least 3 units", total, st.settleSizes(), writes.Load(), n)
	}
}

func TestTooLongFarewellAfterEarlierReplies(t *testing.T) {
	st := newStub(t)
	st.MaxLineLen = 64
	c, _ := start(t, st)
	got := c.SendAll(t, "MUT a\nECHO b\nECHO "+strings.Repeat("x", 200)+"\nECHO never\n", 3)
	if got[0] != "OK a" || got[1] != "b" || got[2] != "ERR line too long (max 64 bytes)" {
		t.Fatalf("replies = %q", got)
	}
	// Closed, not resynchronised (a reset rather than EOF when the close
	// finds the rest of the client's write unread).
	if l, err := c.R.ReadString('\n'); err == nil {
		t.Fatalf("after the farewell the server went on to answer %q", l)
	}
}

// TestIdleTimeoutClosesAndWriteDeadlineIsSet: an idle connection is cut
// inside the documented window, between T and 9/8·T after the last
// reply (Deadline), give or take the test's own scheduling.
func TestIdleTimeoutClosesAndWriteDeadlineIsSet(t *testing.T) {
	const timeout = 400 * time.Millisecond
	st := newStub(t)
	st.ReadTimeout = timeout
	c, _ := start(t, st)
	c.SendAll(t, "ECHO a\n", 1)
	start := time.Now()
	if _, err := c.R.ReadString('\n'); err != io.EOF {
		t.Fatalf("idle connection: %v, want it closed by the server", err)
	}
	if idle, lo, hi := time.Since(start), timeout-25*time.Millisecond, timeout*9/8+300*time.Millisecond; idle < lo || idle > hi {
		t.Errorf("closed after %v idle, want between T and 9/8·T (T = %v; %v-%v with slack)", idle, timeout, lo, hi)
	}
}

// TestDeadlineSparesARegularClient: a connection that sends one request
// every T/4 for 3·T is never cut, although the deadline is re-armed only
// when it is more than T/8 stale.
func TestDeadlineSparesARegularClient(t *testing.T) {
	const timeout = 200 * time.Millisecond
	st := newStub(t)
	st.ReadTimeout = timeout
	c, _ := start(t, st)
	for i := 0; i < 12; i++ {
		time.Sleep(timeout / 4)
		if got := c.Cmd(t, fmt.Sprintf("ECHO %d", i)); got != fmt.Sprint(i) {
			t.Fatalf("request %d -> %q", i, got)
		}
	}
}

// TestDeadlineCutsAClientThatNeverReads is the slow-loris case of the
// write side: a client that pipelines requests and never reads their
// replies blocks the server's flush once the socket buffers are full.
// The connection is cut within 9/8·T (plus slack) of the client's last
// write going through, and its -max-conns slot is freed.
func TestDeadlineCutsAClientThatNeverReads(t *testing.T) {
	const timeout = 300 * time.Millisecond
	st := newStub(t)
	st.ReadTimeout, st.MaxConns = timeout, 1
	c, _ := start(t, st)
	line := []byte("ECHO " + strings.Repeat("x", 32<<10) + "\n")
	var lastWrite atomic.Int64 // unix nanos of the last write that went through
	lastWrite.Store(time.Now().UnixNano())
	writer := make(chan error, 1)
	go func() {
		for i := 0; i < 2048; i++ { // 64 MiB of replies: far past any loopback buffer
			if _, err := c.Conn.Write(line); err != nil {
				writer <- err
				return
			}
			lastWrite.Store(time.Now().UnixNano())
		}
		writer <- nil
	}()
	deadline := time.Now().Add(10 * time.Second)
	for st.Connections.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a client that never reads was not cut within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if held, hi := time.Since(time.Unix(0, lastWrite.Load())), timeout*9/8+300*time.Millisecond; held > hi {
		t.Errorf("cut %v after the client's last write went through, want within 9/8·T = %v (%v with slack)", held, timeout*9/8, hi)
	}
	c.Conn.Close()
	if err := <-writer; err == nil {
		t.Fatal("the client wrote 64 MiB of requests without reading a reply, and the server took them all")
	}
	// The slot is free: a new connection is served, not refused.
	if got := linetest.Dial(t, c.Conn.RemoteAddr().String()).Cmd(t, "ECHO again"); got != "again" {
		t.Fatalf("after the cut -> %q, want the -max-conns slot free", got)
	}
}

func TestMaxConnsRejectLine(t *testing.T) {
	st := newStub(t)
	st.MaxConns = 1
	c, _ := start(t, st)
	c.SendAll(t, "ECHO a\n", 1)
	second := linetest.Dial(t, c.Conn.RemoteAddr().String())
	if got := second.SendAll(t, "", 1)[0]; got != "ERR server busy: connection limit reached, retry later" {
		t.Fatalf("over the cap -> %q", got)
	}
	if _, err := second.R.ReadString('\n'); err != io.EOF {
		t.Fatalf("rejected connection: %v, want it closed", err)
	}
	if got := st.ConnRejects.Value(); got != 1 {
		t.Errorf("rejected-connection counter = %d, want 1", got)
	}
	// The slot frees when the first connection goes.
	c.Conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for st.Connections.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := linetest.Dial(t, second.Conn.RemoteAddr().String()).Cmd(t, "ECHO again"); got != "again" {
		t.Fatalf("after the slot freed -> %q", got)
	}
}

// TestPanicContainment pins the barrier's granularity: a panicking
// handler costs its own line and nothing else; a panicking settle costs
// exactly the requests it was settling, final replies of the same unit
// pass; the connection keeps serving either way.
func TestPanicContainment(t *testing.T) {
	st := newStub(t)
	st.boomIn = "bad"
	c, _ := start(t, st)
	got := c.SendAll(t, "ECHO a\nBOOM\nMUT b\nECHO c\n", 4)
	if got[0] != "a" || !strings.HasPrefix(got[1], "ERR internal") || got[2] != "OK b" || got[3] != "c" {
		t.Fatalf("handler panic: replies = %q", got)
	}
	got = c.SendAll(t, "ECHO a\nMUT good\nMUT\nMUT bad\nECHO c\n", 5)
	if got[0] != "a" || !strings.HasPrefix(got[1], "ERR internal") || got[2] != "ERR MUT takes one word" ||
		!strings.HasPrefix(got[3], "ERR internal") || got[4] != "c" {
		t.Fatalf("settle panic: replies = %q", got)
	}
	if got := c.Cmd(t, "MUT fine"); got != "OK fine" {
		t.Fatalf("after two panics -> %q", got)
	}
	if got := st.Panics.Value(); got != 2 {
		t.Errorf("recovered-panic counter = %d, want 2", got)
	}
	if got := st.Inflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %d after panics, want 0", got)
	}
	// A panicking hijacker costs the connection it took over, not the
	// process.
	taken, _ := start(t, st)
	taken.SendAll(t, "TAKE boom\n", 0)
	if _, err := taken.R.ReadString('\n'); err != io.EOF {
		t.Errorf("after the hijacker panicked: %v, want the connection closed", err)
	}
	if got := st.Panics.Value(); got != 3 {
		t.Errorf("recovered-panic counter = %d after the hijacker's, want 3", got)
	}
}

// TestEveryAccountedRequestIsTimedOnce pins the invariant the latency
// family rests on: whatever path a line takes, it is timed once under
// one label, so request_seconds{cmd}'s count is the request count. A
// hijacked request is timed when its hijacker returns.
func TestEveryAccountedRequestIsTimedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		send    string   // one write over a connection
		do      []string // or lines served through Do
		replies int
		want    map[string]int64 // requests per label; every other label 0
	}{
		{"pipelined units", "ECHO a\nMUT b\n\nMUT c\nECHO d\nONE\nMUT e\n", nil, 6,
			map[string]int64{"ECHO": 2, "MUT": 3, "ONE": 1}},
		{"arity errors", "ECHO\nMUT a b\nONE x\nSLOWLOG y\nQUIT now\n", nil, 5,
			map[string]int64{"ECHO": 1, "MUT": 1, "ONE": 1, "SLOWLOG": 1, "QUIT": 1}},
		{"unknown verbs, a refused verb and the empty command are other", "FROB\nNOPE x\nTID=feedface12345678\n", nil, 3,
			map[string]int64{"other": 3}},
		{"contained panics in a handler and in settle", "ECHO a\nBOOM\nMUT bad\nMUT ok\n", nil, 4,
			map[string]int64{"ECHO": 1, "BOOM": 1, "MUT": 2}},
		{"Do", "", []string{"ECHO a", "MUT b", "FROB", "BOOM", "MUT bad", "TAKE x", "  "}, 0,
			map[string]int64{"ECHO": 1, "MUT": 2, "other": 2, "BOOM": 1, "TAKE": 1}},
		{"hijack", "ECHO a\nTAKE x\n", nil, 2,
			map[string]int64{"ECHO": 1, "TAKE": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStub(t)
			st.boomIn = "bad"
			if tc.send != "" {
				c, _ := start(t, st)
				c.SendAll(t, tc.send, tc.replies)
				if strings.Contains(tc.send, "TAKE") {
					// A hijacked request is timed once its hijacker has
					// returned, after its reply, and then the loop closes
					// the connection: at EOF the count is final.
					if _, err := c.R.ReadString('\n'); err != io.EOF {
						t.Fatalf("after the hijacker returned: %v, want the connection closed", err)
					}
				}
			}
			for _, line := range tc.do {
				st.Do(0, line)
			}
			for _, l := range st.Labels() {
				if got := st.Latency[l].Count(); got != tc.want[l] {
					t.Errorf("request_seconds{cmd=%q} count = %d, want %d", l, got, tc.want[l])
				}
			}
		})
	}
}

func TestHijackReleasesEarlierRepliesFirst(t *testing.T) {
	st := newStub(t)
	c, writes := start(t, st)
	got := c.SendAll(t, "MUT a\nECHO b\nTAKE x y\nECHO never\n", 3)
	if got[0] != "OK a" || got[1] != "b" || got[2] != "TAKEN x,y" {
		t.Fatalf("replies = %q", got)
	}
	if got := writes.Load(); got != 2 {
		t.Errorf("writes = %d, want 2: the unit before the hijack, then the hijacker's own", got)
	}
	if _, err := c.R.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the hijacker returned: %v, want the connection closed", err)
	}
	if got := st.Latency["TAKE"].Count(); got != 1 {
		t.Errorf("TAKE request_seconds count = %d, want 1", got)
	}
	// Without a connection there is nothing to take over.
	if got, _ := st.Do(0, "TAKE x"); !strings.HasPrefix(got, "ERR TAKE") {
		t.Errorf("Do(TAKE) = %q", got)
	}
}
