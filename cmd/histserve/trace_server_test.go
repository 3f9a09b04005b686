package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"histcube/internal/trace"
)

// cmdMulti sends one request and reads the multi-line response of
// EXPLAIN/SLOWLOG, which is terminated by an END line.
func (c *client) cmdMulti(t *testing.T, line string) []string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for {
		resp, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		resp = strings.TrimRight(resp, "\n")
		if strings.HasPrefix(resp, "ERR") && len(lines) == 0 {
			return []string{resp}
		}
		if resp == "END" {
			return lines
		}
		lines = append(lines, resp)
	}
}

// explainTotals extracts the named counters from an EXPLAIN totals
// line ("totals cells_touched=12 conversions=8 ...").
func explainTotals(t *testing.T, lines []string) map[string]int64 {
	t.Helper()
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "totals ") {
		t.Fatalf("EXPLAIN did not end with a totals line: %q", last)
	}
	out := make(map[string]int64)
	for _, field := range strings.Fields(last)[1:] {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			t.Fatalf("bad totals field %q", field)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad totals value %q: %v", field, err)
		}
		out[k] = n
	}
	return out
}

// TestExplainConvergence reproduces the paper's Fig. 10/11 signal over
// the wire: repeating the identical historic range query, EXPLAIN's
// cells_touched drops from the DDC regime (> 2^(d-1)) to exactly
// 2^(d-1) once lazy conversion has rewritten the query's corner cells
// to PS form, at which point conversions hits zero and stays there.
func TestExplainConvergence(t *testing.T) {
	addr := startTestServer(t, false)
	c := dial(t, addr)
	// Three slices; time 1 becomes historic once 2 and 3 open.
	for tm := 1; tm <= 3; tm++ {
		for i := 0; i < 8; i++ {
			if got := c.cmd(t, fmt.Sprintf("INS %d %d %d 1", tm, i, (i*5)%8)); got != "OK" {
				t.Fatalf("INS -> %q", got)
			}
		}
	}
	const psBound = 4 // 2^(d-1) with d-1 = 2 non-time dimensions
	first, last := requireConvergence(t, func() []string { return c.cmdMulti(t, "EXPLAIN QRY 1 1 1 1 6 6") }, psBound)
	// The rendered tree must show the server and cube spans.
	tree := strings.Join(first, "\n")
	for _, want := range []string{"histserve.query", "histcube.query", "histcube.prefix"} {
		if !strings.Contains(tree, want) {
			t.Errorf("EXPLAIN tree missing %q:\n%s", want, tree)
		}
	}
	if last["instances"] != 1 {
		t.Errorf("instances = %d, want 1 (time 0 prefix resolves to no slice)", last["instances"])
	}
}

// requireConvergence repeats one historic EXPLAIN QRY (explain sends
// it and returns the reply up to END) and requires the Fig. 10/11
// shape: the first run in the DDC regime (conversions > 0, more than
// psBound cells), every later run no more expensive than the one
// before and bitwise the same result, ending at exactly psBound cells
// with no conversions left. It returns the first reply and the last
// run's totals.
func requireConvergence(t *testing.T, explain func() []string, psBound int64) (first []string, last map[string]int64) {
	t.Helper()
	first = explain()
	if !strings.HasPrefix(first[0], "OK result=") {
		t.Fatalf("EXPLAIN -> %q", first[0])
	}
	wantResult := strings.TrimPrefix(first[0], "OK result=")
	tot := explainTotals(t, first)
	if tot["conversions"] == 0 {
		t.Fatalf("first historic EXPLAIN converted nothing: %v", tot)
	}
	if tot["cells_touched"] <= psBound {
		t.Fatalf("first historic EXPLAIN already at the PS bound: %v", tot)
	}

	// Identical queries converge: monotonically non-increasing cost,
	// ending at exactly the PS bound with no further conversions.
	prev := tot
	converged := false
	for i := 0; i < 12 && !converged; i++ {
		lines := explain()
		if got := strings.TrimPrefix(lines[0], "OK result="); got != wantResult {
			t.Fatalf("result drifted across identical queries: %q -> %q", wantResult, got)
		}
		cur := explainTotals(t, lines)
		if cur["cells_touched"] > prev["cells_touched"] {
			t.Fatalf("per-query cost increased: %v -> %v", prev, cur)
		}
		converged = cur["cells_touched"] == psBound && cur["conversions"] == 0
		prev = cur
	}
	if !converged {
		t.Fatalf("identical query did not converge to %d cells, 0 conversions: %v", psBound, prev)
	}
	return first, prev
}

// TestSlowLogCommand drives queries through a threshold-0 slow log and
// checks SLOWLOG's reply: bounded, worst-first, well-formed.
func TestSlowLogCommand(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Slow = trace.NewSlowLog(2, 0) // admit everything, keep the 2 worst
	addr := serveOn(t, srv)
	c := dial(t, addr)
	c.cmd(t, "INS 1 1 1 2")
	c.cmd(t, "INS 2 2 2 3")
	for i := 0; i < 5; i++ {
		c.cmd(t, "QRY 1 1 0 0 7 7")
	}
	lines := c.cmdMulti(t, "SLOWLOG")
	if !strings.HasPrefix(lines[0], "OK n=2 cap=2 threshold=0s observed=5") {
		t.Fatalf("SLOWLOG header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("SLOWLOG returned %d entry lines, want 2:\n%s", len(lines)-1, strings.Join(lines, "\n"))
	}
	entryRE := regexp.MustCompile(`^#\d+ dur=\S+ at=\S+ cells_touched=\d+ conversions=\d+ trace_id=[0-9a-f]{16} line="QRY 1 1 0 0 7 7"$`)
	var durs []time.Duration
	for _, e := range lines[1:] {
		if !entryRE.MatchString(e) {
			t.Errorf("malformed SLOWLOG entry %q", e)
			continue
		}
		d, err := time.ParseDuration(strings.TrimPrefix(strings.Fields(e)[1], "dur="))
		if err != nil {
			t.Fatal(err)
		}
		durs = append(durs, d)
	}
	for i := 1; i < len(durs); i++ {
		if durs[i] > durs[i-1] {
			t.Errorf("SLOWLOG not worst-first: %v", durs)
		}
	}
	if got := c.cmd(t, "SLOWLOG extra"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("SLOWLOG with arguments -> %q, want ERR", got)
	}
	// Mutations must not enter the slow log (queries only), but they do
	// enter the recent ring along with the queries.
	if got := srv.Slow.Observed(); got != 5 {
		t.Errorf("slow log observed %d traces, want the 5 queries", got)
	}
	if got := len(srv.Recent.Entries()); got != 7 {
		t.Errorf("recent ring holds %d traces, want 7 (2 INS + 5 QRY)", got)
	}
}

// syncBuf is a goroutine-safe log sink for asserting on slog output.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTraceIDPropagationAndExplainJSON drives the distributed-tracing
// contract end to end on the shard side: a TID= token is adopted as
// the root span's trace ID and becomes observable in the EXPLAIN JSON
// reply, the SLOWLOG wire format, the /debug JSON feeds and the slog
// stream — the correlation path histproxy relies on.
func TestTraceIDPropagationAndExplainJSON(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Slow = trace.NewSlowLog(8, 0)
	var logs syncBuf
	srv.Log = slog.New(slog.NewTextHandler(&logs, nil))
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })

	c := dial(t, addr)
	c.cmd(t, "INS 1 1 1 2")
	c.cmd(t, "INS 2 2 2 3")
	id := trace.NewID()

	// A plain QRY carrying a TID= token answers exactly as without it.
	if got := c.cmd(t, trace.FormatRequestID(id)+"QRY 1 1 0 0 7 7"); got != "2" {
		t.Fatalf("QRY with TID -> %q, want 2", got)
	}

	// EXPLAIN JSON answers a one-line structured document whose root
	// carries the propagated trace ID.
	resp := c.cmd(t, trace.FormatRequestID(id)+"EXPLAIN JSON QRY 1 1 0 0 7 7")
	body, ok := strings.CutPrefix(resp, "OK ")
	if !ok {
		t.Fatalf("EXPLAIN JSON -> %q", resp)
	}
	var doc struct {
		Result float64         `json:"result"`
		Trace  *trace.SpanJSON `json:"trace"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("EXPLAIN JSON body is not JSON: %v\n%s", err, body)
	}
	if doc.Result != 2 {
		t.Errorf("EXPLAIN JSON result = %v, want 2", doc.Result)
	}
	if doc.Trace == nil || doc.Trace.Name != "histserve.query" {
		t.Fatalf("EXPLAIN JSON trace malformed: %+v", doc.Trace)
	}
	if doc.Trace.TraceID != id.String() {
		t.Errorf("EXPLAIN JSON trace_id = %q, want adopted %q", doc.Trace.TraceID, id)
	}
	if len(doc.Trace.Children) == 0 || doc.Trace.Children[0].Name != "histcube.query" {
		t.Errorf("EXPLAIN JSON lost the span tree: %+v", doc.Trace)
	}
	if doc.Trace.Children[0].TraceID != id.String() {
		t.Errorf("child trace_id = %q, want inherited %q", doc.Trace.Children[0].TraceID, id)
	}

	// The JSON variant keeps EXPLAIN's ERR discipline.
	for _, bad := range []string{"EXPLAIN JSON", "EXPLAIN JSON STATS", "EXPLAIN JSON QRY 1"} {
		if got := c.cmd(t, bad); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%q -> %q, want ERR", bad, got)
		}
	}

	// SLOWLOG's wire format names the trace.
	lines := c.cmdMulti(t, "SLOWLOG")
	if !strings.Contains(strings.Join(lines, "\n"), "trace_id="+id.String()) {
		t.Errorf("SLOWLOG lost trace_id %s:\n%s", id, strings.Join(lines, "\n"))
	}

	// Both JSON feeds carry a top-level trace_id per entry.
	for _, path := range []string{"/debug/slowlog", "/debug/trace/recent"} {
		resp, err := http.Get("http://" + mln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var feed struct {
			Entries []trace.EntryJSON `json:"entries"`
		}
		if err := json.Unmarshal(body, &feed); err != nil {
			t.Fatalf("%s is not JSON: %v", path, err)
		}
		found := false
		for _, e := range feed.Entries {
			if e.TraceID == id.String() {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no entry with trace_id %s:\n%s", path, id, body)
		}
	}

	// The slog stream carries the same ID: the threshold-0 slow log
	// admits the query and logs it, and a failing request with a TID=
	// token logs the ID too.
	if got := c.cmd(t, trace.FormatRequestID(id)+"QRY bogus"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad QRY -> %q, want ERR", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logs.String(), "trace_id="+id.String()) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) // the handle goroutine logs asynchronously
	}
	out := logs.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "trace_id="+id.String()) {
		t.Errorf("slog stream lost the trace ID:\n%s", out)
	}
	if !strings.Contains(out, "request failed") {
		t.Errorf("failed request with TID not logged:\n%s", out)
	}
}

// TestExplainErrors covers EXPLAIN's ERR branches.
func TestExplainErrors(t *testing.T) {
	addr := startTestServer(t, false)
	c := dial(t, addr)
	for _, line := range []string{
		"EXPLAIN",                 // nothing to wrap
		"EXPLAIN STATS",           // only QRY is explainable
		"EXPLAIN QRY 1",           // too few args
		"EXPLAIN QRY 2 1 0 0 7 7", // inverted time range
		"EXPLAIN QRY 0 1 x 0 7 7", // bad integer
		"EXPLAIN QRY 0 1 0 0 9 9", // out of domain
	} {
		if got := c.cmd(t, line); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%q -> %q, want ERR", line, got)
		}
	}
}

// TestReadyzGatesOnRecovery pins the readiness contract: /healthz is
// alive from the start, /readyz answers 503 until Start has recovered.
func TestReadyzGatesOnRecovery(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })
	base := "http://" + mln.Addr().String()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz before ready -> %d, want 200 (liveness is not readiness)", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready -> %d, want 503", got)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after ready -> %d, want 200", got)
	}
}

// TestDebugEndpoints checks the trace JSON feeds and the pprof index.
func TestDebugEndpoints(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Slow = trace.NewSlowLog(8, 0)
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })
	base := "http://" + mln.Addr().String()

	c := dial(t, addr)
	c.cmd(t, "INS 1 1 1 2")
	c.cmd(t, "INS 2 2 2 3")
	c.cmd(t, "QRY 1 1 0 0 7 7")

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d", path, resp.StatusCode)
		}
		return body
	}

	type feed struct {
		Entries []struct {
			Line       string          `json:"line"`
			DurationNS int64           `json:"duration_ns"`
			Trace      *trace.SpanJSON `json:"trace"`
		} `json:"entries"`
	}
	var slow feed
	if err := json.Unmarshal(get("/debug/slowlog"), &slow); err != nil {
		t.Fatalf("/debug/slowlog is not JSON: %v", err)
	}
	if len(slow.Entries) != 1 || slow.Entries[0].Line != "QRY 1 1 0 0 7 7" {
		t.Fatalf("/debug/slowlog entries = %+v", slow.Entries)
	}
	e := slow.Entries[0]
	if e.DurationNS <= 0 || e.Trace == nil || e.Trace.Name != "histserve.query" {
		t.Fatalf("slowlog entry malformed: %+v", e)
	}
	if len(e.Trace.Children) == 0 || e.Trace.Children[0].Name != "histcube.query" {
		t.Fatalf("slowlog trace lost its span tree: %+v", e.Trace)
	}

	var recent feed
	if err := json.Unmarshal(get("/debug/trace/recent"), &recent); err != nil {
		t.Fatalf("/debug/trace/recent is not JSON: %v", err)
	}
	if len(recent.Entries) != 3 {
		t.Fatalf("/debug/trace/recent holds %d entries, want 3", len(recent.Entries))
	}
	// Newest first: the query is the most recent request.
	if recent.Entries[0].Line != "QRY 1 1 0 0 7 7" {
		t.Errorf("recent[0] = %q, want the query", recent.Entries[0].Line)
	}

	if body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong: %.120s", body)
	}
}

// TestConcurrentExplainNoSpanMixing runs parallel clients, each
// inserting into its own region and repeatedly EXPLAINing its own
// query: every client must read back its own result with a
// well-formed single-root trace (the per-request span tree never
// leaks across requests), and the slow log must stay within its
// bound. Run with -race to check the retention structures.
func TestConcurrentExplainNoSpanMixing(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Slow = trace.NewSlowLog(4, 0)
	addr := serveOn(t, srv)

	// Seed an extra slice so every client's time-1 query is historic.
	seed := dial(t, addr)
	for i := 0; i < 8; i++ {
		seed.cmd(t, fmt.Sprintf("INS 1 %d %d 1", i, i))
	}
	seed.cmd(t, "INS 2 0 0 1")

	const clients = 4
	const rounds = 20
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := dial(t, addr)
			// Client n owns row n: its query sums exactly its seed point.
			q := fmt.Sprintf("EXPLAIN QRY 1 1 %d %d %d %d", n, n, n, n)
			for r := 0; r < rounds; r++ {
				lines := c.cmdMulti(t, q)
				if lines[0] != "OK result=1" {
					errCh <- fmt.Errorf("client %d round %d: %q", n, r, lines[0])
					return
				}
				tot := explainTotals(t, lines)
				if tot["instances"] != 1 {
					errCh <- fmt.Errorf("client %d: instances=%d, span tree mixed across requests", n, tot["instances"])
					return
				}
				roots := 0
				for _, l := range lines[1:] {
					if strings.HasPrefix(l, "histserve.query") {
						roots++
					}
				}
				if roots != 1 {
					errCh <- fmt.Errorf("client %d: %d root spans in one EXPLAIN", n, roots)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := len(srv.Slow.Entries()); got > srv.Slow.Cap() {
		t.Errorf("slow log grew past its bound: %d > %d", got, srv.Slow.Cap())
	}
	if got := srv.Slow.Observed(); got != clients*rounds {
		t.Errorf("slow log observed %d queries, want %d", got, clients*rounds)
	}
}
