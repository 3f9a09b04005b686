package trace

import (
	"encoding/json"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildTree builds an n-span tree the way a server does, with New and
// StartChild: span i > 0 is a child of span (i-1)/2, so every span has
// at most two children, and each carries its index as an attribute and
// counters derived from it. Every span is ended.
func buildTree(n int) *Span {
	spans := []*Span{New("histserve.query")}
	for i := 1; i < n; i++ {
		spans = append(spans, spans[(i-1)/2].StartChild("histcube.prefix"))
	}
	for i, sp := range spans {
		sp.SetInt("i", int64(i))
		if i%2 == 1 {
			sp.SetBool("odd", true)
		}
		sp.Add(CellsTouched, int64(i))
		sp.Add(Conversions, int64(i%3))
	}
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	return spans[0]
}

var durField = regexp.MustCompile(`dur=\S+`)

// stripJSON checks the per-span identity and timing fields of a JSON
// tree, which differ from run to run, and zeroes them so the rest
// compares exactly.
func stripJSON(t *testing.T, j *SpanJSON, traceID string, seen map[string]bool) {
	t.Helper()
	if j.TraceID != traceID {
		t.Errorf("span %s: trace_id %q, want the root's %q", j.Name, j.TraceID, traceID)
	}
	if j.SpanID == "" || seen[j.SpanID] {
		t.Errorf("span %s: span_id %q is empty or repeated", j.Name, j.SpanID)
	}
	seen[j.SpanID] = true
	if j.StartNano <= 0 || j.DurationNS <= 0 {
		t.Errorf("span %s: start %d, duration %d, want both positive", j.Name, j.StartNano, j.DurationNS)
	}
	j.TraceID, j.SpanID, j.StartNano, j.DurationNS = "", "", 0, 0
	for _, c := range j.Children {
		stripJSON(t, c, traceID, seen)
	}
}

// TestSlabTreesRenderUnchanged: trees that fit New's slab (one and two
// spans, a served INS or DEL, and seven, a served QRY) and run past it
// (nine) render exactly this text and JSON, wherever their spans were
// allocated — on a fresh slab, or on one a ring recycled: names,
// attributes, child order and counters.
func TestSlabTreesRenderUnchanged(t *testing.T) {
	cases := []struct {
		n          int
		text, json string
	}{
		{1, `histserve.query dur=D i=0
`,
			`{"name":"histserve.query","start_unix_nano":0,"duration_ns":0,"attrs":{"i":0}}`},
		{2, `histserve.query dur=D i=0
  histcube.prefix dur=D i=1 odd=true cells_touched=1 conversions=1
`,
			`{"name":"histserve.query","start_unix_nano":0,"duration_ns":0,"attrs":{"i":0},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":1,"odd":true},"counters":{"cells_touched":1,"conversions":1}}]}`},
		{7, `histserve.query dur=D i=0
  histcube.prefix dur=D i=1 odd=true cells_touched=1 conversions=1
    histcube.prefix dur=D i=3 odd=true cells_touched=3
    histcube.prefix dur=D i=4 cells_touched=4 conversions=1
  histcube.prefix dur=D i=2 cells_touched=2 conversions=2
    histcube.prefix dur=D i=5 odd=true cells_touched=5 conversions=2
    histcube.prefix dur=D i=6 cells_touched=6
`,
			`{"name":"histserve.query","start_unix_nano":0,"duration_ns":0,"attrs":{"i":0},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":1,"odd":true},"counters":{"cells_touched":1,"conversions":1},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":3,"odd":true},"counters":{"cells_touched":3}},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":4},"counters":{"cells_touched":4,"conversions":1}}]},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":2},"counters":{"cells_touched":2,"conversions":2},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":5,"odd":true},"counters":{"cells_touched":5,"conversions":2}},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":6},"counters":{"cells_touched":6}}]}]}`},
		{9, `histserve.query dur=D i=0
  histcube.prefix dur=D i=1 odd=true cells_touched=1 conversions=1
    histcube.prefix dur=D i=3 odd=true cells_touched=3
      histcube.prefix dur=D i=7 odd=true cells_touched=7 conversions=1
      histcube.prefix dur=D i=8 cells_touched=8 conversions=2
    histcube.prefix dur=D i=4 cells_touched=4 conversions=1
  histcube.prefix dur=D i=2 cells_touched=2 conversions=2
    histcube.prefix dur=D i=5 odd=true cells_touched=5 conversions=2
    histcube.prefix dur=D i=6 cells_touched=6
`,
			`{"name":"histserve.query","start_unix_nano":0,"duration_ns":0,"attrs":{"i":0},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":1,"odd":true},"counters":{"cells_touched":1,"conversions":1},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":3,"odd":true},"counters":{"cells_touched":3},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":7,"odd":true},"counters":{"cells_touched":7,"conversions":1}},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":8},"counters":{"cells_touched":8,"conversions":2}}]},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":4},"counters":{"cells_touched":4,"conversions":1}}]},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":2},"counters":{"cells_touched":2,"conversions":2},"children":[{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":5,"odd":true},"counters":{"cells_touched":5,"conversions":2}},{"name":"histcube.prefix","start_unix_nano":0,"duration_ns":0,"attrs":{"i":6},"counters":{"cells_touched":6}}]}]}`},
	}
	r := NewRing(1)
	for _, tc := range append(cases, cases...) {
		root := buildTree(tc.n)
		var b strings.Builder
		root.Render(&b)
		if got := durField.ReplaceAllString(b.String(), "dur=D"); got != tc.text {
			t.Errorf("%d spans: Render =\n%s\nwant\n%s", tc.n, got, tc.text)
		}
		j := root.JSON()
		stripJSON(t, j, root.TraceID().String(), map[string]bool{})
		doc, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if string(doc) != tc.json {
			t.Errorf("%d spans: JSON =\n%s\nwant\n%s", tc.n, doc, tc.json)
		}
		r.Add("QRY", root.Start(), root.Duration(), root) // the next tree is built on this one's slab
	}
}

// TestSlabAllocations pins the recycling: once a ring hands back the
// slabs of the trees it evicts, building a two-span tree (a served INS
// or DEL) or a seven-span tree (a served QRY) and handing it to the
// ring allocates nothing.
func TestSlabAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own, and sync.Pool drops items under it")
	}
	for _, n := range []int{2, 7} {
		r := NewRing(4)
		observe := func() {
			var spans [7]*Span
			spans[0] = New("histserve.query")
			for i := 1; i < n; i++ {
				spans[i] = spans[(i-1)/2].StartChild("histcube.prefix")
			}
			for i := n - 1; i >= 0; i-- {
				spans[i].End()
			}
			r.Add("QRY", spans[0].Start(), spans[0].Duration(), spans[0])
		}
		for i := 0; i < r.Cap(); i++ {
			observe() // fills the ring: every later Add evicts a tree
		}
		if got := testing.AllocsPerRun(200, observe); got != 0 {
			t.Errorf("a %d-span tree allocates %.0f times, want 0", n, got)
		}
	}
}

// render is the text and the JSON of a snapshot's entries.
func render(t *testing.T, es []Entry) string {
	t.Helper()
	var b strings.Builder
	for _, e := range es {
		e.Span.Render(&b)
		doc, err := json.Marshal(EntriesJSON([]Entry{e}))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(doc)
	}
	return b.String()
}

// TestSnapshotsOutliveRecycling: what Ring.Entries and SlowLog.Entries
// hand out is the caller's. Snapshots taken before 64 more trees are
// built on the slabs the ring recycles render byte-identical text and
// JSON afterwards.
func TestSnapshotsOutliveRecycling(t *testing.T) {
	r, l := NewRing(4), NewSlowLog(4, 0)
	observe := func(round, n int) {
		root := buildTree(n)
		root.SetInt("round", int64(round))
		line := "QRY " + strconv.Itoa(round)
		l.Observe(line, root.Start(), root.Duration()+time.Duration(round), root)
		r.Add(line, root.Start(), root.Duration(), root)
	}
	for round := 0; round < r.Cap(); round++ {
		observe(round, 7)
	}
	ring, slow := r.Entries(), l.Entries()
	wantRing, wantSlow := render(t, ring), render(t, slow)
	for round := r.Cap(); round < r.Cap()+64; round++ {
		observe(round, 2+round%7)
	}
	if got := render(t, ring); got != wantRing {
		t.Errorf("a ring snapshot changed as its trees were recycled:\n%s\nwant\n%s", got, wantRing)
	}
	if got := render(t, slow); got != wantSlow {
		t.Errorf("a slow-log snapshot changed as the ring recycled trees:\n%s\nwant\n%s", got, wantSlow)
	}
}

// TestNewIDConcurrentDistinct: IDs drawn from four goroutines at once
// are never zero and never repeat.
func TestNewIDConcurrentDistinct(t *testing.T) {
	const workers, draws = 4, 100_000
	ids := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := make([]ID, draws)
			for i := range own {
				own[i] = NewID()
			}
			ids[w] = own
		}()
	}
	wg.Wait()
	all := slices.Concat(ids...)
	slices.Sort(all)
	if all[0] == 0 {
		t.Fatal("NewID returned the zero ID")
	}
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Fatalf("NewID returned %s twice in %d draws", all[i], len(all))
		}
	}
}
