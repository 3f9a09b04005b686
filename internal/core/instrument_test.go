package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/obs"
)

func newTestCube(t *testing.T) *Cube {
	t.Helper()
	c, err := New(Config{
		Dims:     []Dim{{Name: "x", Size: 8}, {Name: "y", Size: 8}},
		Operator: agg.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStatsCumulativeCounters(t *testing.T) {
	c := newTestCube(t)
	for i := 0; i < 40; i++ {
		if err := c.Insert(int64(i/4), []int{i % 8, (i * 3) % 8}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Historic query: forces eCube loads and conversions.
	if _, err := c.Query(Range{TimeLo: 0, TimeHi: 3, Lo: []int{0, 0}, Hi: []int{7, 7}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ECubeCellsTouched == 0 {
		t.Error("ECubeCellsTouched = 0 after historic query")
	}
	if st.ECubeConversions == 0 {
		t.Error("ECubeConversions = 0 after historic query")
	}
	if st.ForcedCopies == 0 && st.CopyAheadWork == 0 {
		t.Error("no copy progress recorded across 10 slices")
	}
	// Conversions are monotone: another historic query cannot shrink
	// them, and a repeat touches cells without reconverting them all.
	if _, err := c.Query(Range{TimeLo: 0, TimeHi: 3, Lo: []int{0, 0}, Hi: []int{7, 7}}); err != nil {
		t.Fatal(err)
	}
	st2 := c.Stats()
	if st2.ECubeConversions < st.ECubeConversions {
		t.Errorf("conversions shrank: %d -> %d", st.ECubeConversions, st2.ECubeConversions)
	}
	if st2.ECubeCellsTouched <= st.ECubeCellsTouched {
		t.Errorf("cells touched did not grow: %d -> %d", st.ECubeCellsTouched, st2.ECubeCellsTouched)
	}
}

func TestStatsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCube(t)

	var mu sync.Mutex
	RegisterStatsMetrics(reg, func() Stats {
		mu.Lock()
		defer mu.Unlock()
		return c.Stats()
	})

	for i := 0; i < 20; i++ {
		if err := c.Insert(int64(i), []int{i % 8, i % 8}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ApplyOp(context.Background(), Op{Kind: OpDelete, Time: 19, Coords: []int{3, 3}, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(Range{TimeLo: 0, TimeHi: 10, Lo: []int{0, 0}, Hi: []int{7, 7}}); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE histcube_slices gauge",
		"histcube_slices 20",
		"# TYPE histcube_appended_updates_total counter",
		"histcube_appended_updates_total 21",
		`histcube_ecube_conversions_total{trigger="query"}`,
		"# TYPE histcube_ecube_conversions_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, " histogram\n") {
		t.Errorf("the cube registered a latency histogram:\n%s", out)
	}
}
