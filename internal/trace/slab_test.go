package trace

import (
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
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
// spans, a served INS or DEL), grow once (seven, a served QRY) and grow
// twice (nine) render exactly this text and JSON, wherever their spans
// were allocated: names, attributes, child order and counters.
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
	for _, tc := range cases {
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
	}
}

// TestSlabAllocations pins the growth step: a two-span tree (a served
// INS or DEL) is one allocation and a seven-span tree (a served QRY) at
// most two, so growing cannot quietly become one allocation per span.
func TestSlabAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{2, 1}, {7, 2}} {
		n := tc.n
		got := testing.AllocsPerRun(200, func() {
			var spans [7]*Span
			spans[0] = New("histserve.query")
			for i := 1; i < n; i++ {
				spans[i] = spans[(i-1)/2].StartChild("histcube.prefix")
			}
			for i := n - 1; i >= 0; i-- {
				spans[i].End()
			}
		})
		if got > tc.want {
			t.Errorf("a %d-span tree allocates %.0f times, want <= %.0f", n, got, tc.want)
		}
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
