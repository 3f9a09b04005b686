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

	"histcube/internal/linetest"
	"histcube/internal/trace"
)

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
	c := linetest.Dial(t, addr)
	// Three slices; time 1 becomes historic once 2 and 3 open.
	for tm := 1; tm <= 3; tm++ {
		for i := 0; i < 8; i++ {
			if got := c.Cmd(t, fmt.Sprintf("INS %d %d %d 1", tm, i, (i*5)%8)); got != "OK" {
				t.Fatalf("INS -> %q", got)
			}
		}
	}
	const psBound = 4 // 2^(d-1) with d-1 = 2 non-time dimensions
	first, last := requireConvergence(t, func() []string { return c.Multi(t, "EXPLAIN QRY 1 1 1 1 6 6") }, psBound)
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

// TestConvergedQueryIsFourSpans pins the span tree of a converged served
// QRY on an -ooo server: histserve.query, histcube.query and one
// histcube.prefix per framework prefix, each carrying t, slice and form
// and the cost of the one instance it read, so the prefixes' counters
// are the query's; an empty out-of-order buffer adds no span. After one
// out-of-order INS, histcube.ooo_buffer is back with pending=1.
func TestConvergedQueryIsFourSpans(t *testing.T) {
	c := linetest.Dial(t, startTestServer(t, true))
	for tm := 1; tm <= 3; tm++ {
		for i := 0; i < 8; i++ {
			if got := c.Cmd(t, fmt.Sprintf("INS %d %d %d 1", tm, i, (i*5)%8)); got != "OK" {
				t.Fatalf("INS -> %q", got)
			}
		}
	}
	// Times 1 and 2 are historic slices 0 and 1; the first run converts
	// the cells the query reads, so the second is converged.
	explain := func() *trace.SpanJSON {
		t.Helper()
		resp := c.Cmd(t, "EXPLAIN JSON QRY 2 2 1 1 6 6")
		body, ok := strings.CutPrefix(resp, "OK ")
		if !ok {
			t.Fatalf("EXPLAIN JSON -> %q", resp)
		}
		doc, err := trace.DecodeExplain([]byte(body))
		if err != nil {
			t.Fatalf("EXPLAIN JSON body: %v\n%s", err, body)
		}
		return doc.Trace
	}
	explain()
	root := explain()
	if root.Name != "histserve.query" || len(root.Children) != 1 || root.Children[0].Name != "histcube.query" {
		t.Fatalf("root = %s with %d children, want histserve.query over one histcube.query", root.Name, len(root.Children))
	}
	q := root.Children[0]
	if len(q.Children) != 2 {
		t.Fatalf("histcube.query has %d children, want its two histcube.prefix spans alone", len(q.Children))
	}
	cells := int64(0)
	for i, p := range q.Children {
		if p.Name != "histcube.prefix" || len(p.Children) != 0 {
			t.Fatalf("child %d = %s with %d children, want a histcube.prefix leaf", i, p.Name, len(p.Children))
		}
		wantT := []string{"2", "1"}[i]
		if got := fmt.Sprint(p.Attrs["t"], " ", p.Attrs["slice"], " ", p.Attrs["form"]); got != wantT+" "+fmt.Sprint(1-i)+" historic" {
			t.Errorf("prefix %d attrs t, slice, form = %s, want %s %d historic", i, got, wantT, 1-i)
		}
		if p.Counters["instances"] != 1 || p.Counters["cells_touched"] != 4 || p.Counters["conversions"] != 0 {
			t.Errorf("prefix %d counters = %v, want instances=1 and the converged 2^(d-1) = 4 cells_touched, no conversions", i, p.Counters)
		}
		cells += p.Counters["cells_touched"]
	}
	if tree := root.Span(); tree.Total(trace.Instances) != 2 || tree.Total(trace.CellsTouched) != cells || len(q.Counters) != 0 {
		t.Errorf("totals instances=%d cells_touched=%d, histcube.query's own counters %v; want 2, the prefixes' %d, none",
			tree.Total(trace.Instances), tree.Total(trace.CellsTouched), q.Counters, cells)
	}

	if got := c.Cmd(t, "INS 1 0 0 5"); got != "OK" {
		t.Fatalf("out-of-order INS -> %q", got)
	}
	q = explain().Children[0]
	if len(q.Children) != 3 || q.Children[2].Name != "histcube.ooo_buffer" || fmt.Sprint(q.Children[2].Attrs["pending"]) != "1" {
		t.Fatalf("after one out-of-order INS histcube.query has %d children, want the two prefixes and histcube.ooo_buffer pending=1: %+v",
			len(q.Children), q.Children[len(q.Children)-1])
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
	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 1 1 1 2")
	c.Cmd(t, "INS 2 2 2 3")
	for i := 0; i < 5; i++ {
		c.Cmd(t, "QRY 1 1 0 0 7 7")
	}
	lines := c.Multi(t, "SLOWLOG")
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
	if got := c.Cmd(t, "SLOWLOG extra"); !strings.HasPrefix(got, "ERR") {
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

	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 1 1 1 2")
	c.Cmd(t, "INS 2 2 2 3")
	id := trace.NewID()

	// A plain QRY carrying a TID= token answers exactly as without it.
	if got := c.Cmd(t, trace.FormatRequestID(id)+"QRY 1 1 0 0 7 7"); got != "2" {
		t.Fatalf("QRY with TID -> %q, want 2", got)
	}

	// EXPLAIN JSON answers a one-line structured document whose root
	// carries the propagated trace ID.
	resp := c.Cmd(t, trace.FormatRequestID(id)+"EXPLAIN JSON QRY 1 1 0 0 7 7")
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
		if got := c.Cmd(t, bad); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%q -> %q, want ERR", bad, got)
		}
	}

	// SLOWLOG's wire format names the trace.
	lines := c.Multi(t, "SLOWLOG")
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
	if got := c.Cmd(t, trace.FormatRequestID(id)+"QRY bogus"); !strings.HasPrefix(got, "ERR") {
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
	c := linetest.Dial(t, addr)
	for _, line := range []string{
		"EXPLAIN",                 // nothing to wrap
		"EXPLAIN STATS",           // only QRY is explainable
		"EXPLAIN QRY 1",           // too few args
		"EXPLAIN QRY 2 1 0 0 7 7", // inverted time range
		"EXPLAIN QRY 0 1 x 0 7 7", // bad integer
		"EXPLAIN QRY 0 1 0 0 9 9", // out of domain
	} {
		if got := c.Cmd(t, line); !strings.HasPrefix(got, "ERR") {
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

	c := linetest.Dial(t, addr)
	c.Cmd(t, "INS 1 1 1 2")
	c.Cmd(t, "INS 2 2 2 3")
	c.Cmd(t, "QRY 1 1 0 0 7 7")

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
	seed := linetest.Dial(t, addr)
	for i := 0; i < 8; i++ {
		seed.Cmd(t, fmt.Sprintf("INS 1 %d %d 1", i, i))
	}
	seed.Cmd(t, "INS 2 0 0 1")

	const clients = 4
	const rounds = 20
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := linetest.Dial(t, addr)
			// Client n owns row n: its query sums exactly its seed point.
			q := fmt.Sprintf("EXPLAIN QRY 1 1 %d %d %d %d", n, n, n, n)
			for r := 0; r < rounds; r++ {
				lines := c.Multi(t, q)
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

// TestRecycledTreesKeepTheirTraceIDs: QRY, EXPLAIN JSON and INS run on
// four connections while another goroutine reads /debug/trace/recent,
// /debug/slowlog and SLOWLOG. The ring keeps one trace, so a tree's slab
// is recycled for a new request as soon as the next one is observed,
// and the slow log admits (clones) every query. Every span of every
// EXPLAIN reply and feed tree must still carry its own root's trace_id,
// and every feed entry the line sent with that ID. Under -race it also
// catches a tree read after it went to the ring.
func TestRecycledTreesKeepTheirTraceIDs(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", false)
	srv.Slow, srv.Recent = trace.NewSlowLog(1024, 0), trace.NewRing(1)
	addr := serveOn(t, srv)
	mln, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mln.Close() })

	var sent sync.Map // trace ID -> the line sent with it, TID token cut off
	send := func(c *linetest.Client, line string) (string, trace.ID) {
		id := trace.NewID()
		sent.Store(id.String(), line)
		return c.Cmd(t, trace.FormatRequestID(id)+line), id
	}
	seed := linetest.Dial(t, addr)
	for i := 0; i < 8; i++ {
		send(seed, fmt.Sprintf("INS 1 %d %d 1", i, i))
	}
	send(seed, "INS 2 0 0 1") // time 1 is historic from here on

	var checkSpans func(where string, j *trace.SpanJSON, id string)
	checkSpans = func(where string, j *trace.SpanJSON, id string) {
		if j.TraceID != id {
			t.Errorf("%s: span %s has trace_id %s, its root's is %s", where, j.Name, j.TraceID, id)
		}
		for _, c := range j.Children {
			checkSpans(where, c, id)
		}
	}
	checkEntry := func(where, id, line string) {
		if want, ok := sent.Load(id); !ok || want != line {
			t.Errorf("%s: entry %q has trace_id %s, which was sent with %q", where, line, id, want)
		}
	}

	const clients, rounds = 4, 600
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		c := linetest.Dial(t, addr)
		slowRE := regexp.MustCompile(` trace_id=([0-9a-f]{16}) line=(".*")$`)
		for {
			for _, path := range []string{"/debug/trace/recent", "/debug/slowlog"} {
				resp, err := http.Get("http://" + mln.Addr().String() + path)
				if err != nil {
					t.Error(err)
					return
				}
				var feed struct {
					Entries []trace.EntryJSON `json:"entries"`
				}
				err = json.NewDecoder(resp.Body).Decode(&feed)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s is not JSON: %v", path, err)
					return
				}
				for _, e := range feed.Entries {
					checkEntry(path, e.TraceID, e.Line)
					checkSpans(path, e.Trace, e.TraceID)
				}
			}
			for _, l := range c.Multi(t, "SLOWLOG")[1:] {
				m := slowRE.FindStringSubmatch(l)
				if m == nil {
					t.Errorf("malformed SLOWLOG entry %q", l)
					continue
				}
				line, err := strconv.Unquote(m[2])
				if err != nil {
					t.Errorf("SLOWLOG entry %q: %v", l, err)
					continue
				}
				checkEntry("SLOWLOG", m[1], line)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := linetest.Dial(t, addr)
			qry := fmt.Sprintf("QRY 1 1 %d %d %d %d", n, n, n, n) // client n's own seed point
			for r := 0; r < rounds; r++ {
				line := []string{qry, "EXPLAIN JSON " + qry, fmt.Sprintf("INS 2 %d %d 1", n, n)}[r%3]
				reply, id := send(c, line)
				switch r % 3 {
				case 0:
					if reply != "1" {
						t.Errorf("client %d: %s -> %q, want 1", n, line, reply)
					}
				case 1:
					var doc trace.ExplainJSON
					body, _ := strings.CutPrefix(reply, "OK ")
					if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Result != 1 || doc.Trace == nil {
						t.Errorf("client %d: %s -> %q (%v)", n, line, reply, err)
						continue
					}
					checkSpans("EXPLAIN JSON", doc.Trace, id.String())
				case 2:
					if reply != "OK" {
						t.Errorf("client %d: %s -> %q", n, line, reply)
					}
				}
			}
		}(n)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}
