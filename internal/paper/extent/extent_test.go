package extent

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
	"histcube/internal/molap"
	"histcube/internal/paper/framework"
)

const coordDomain = 8

func newTracker(t testing.TB, withEndpoint bool) *Tracker {
	t.Helper()
	cfg := Config{
		Fresh: func() framework.Cloneable { return framework.NewBTreeStructure() },
	}
	if withEndpoint {
		cfg.FreshEndpoint = func() framework.Cloneable {
			a, err := molap.New(dims.Shape{64, coordDomain}, []molap.Technique{molap.Raw{}, molap.Raw{}})
			if err != nil {
				t.Fatal(err)
			}
			return framework.NewArrayStructure(a)
		}
		// Clamp into the endpoint structure's start domain; monotone,
		// and all actual starts land strictly inside.
		cfg.StartToCoord = func(s int64) int {
			if s < 0 {
				return 0
			}
			if s > 63 {
				return 63
			}
			return int(s)
		}
	}
	tr, err := NewTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

type naiveIntervals []Interval

func (n naiveIntervals) intersect(lo, hi int64, b dims.Box) float64 {
	total := 0.0
	for _, iv := range n {
		if iv.Start <= hi && iv.End >= lo && b.Contains(iv.Coords) {
			total += iv.Value
		}
	}
	return total
}

func (n naiveIntervals) contained(lo, hi int64, b dims.Box) float64 {
	total := 0.0
	for _, iv := range n {
		if iv.Start >= lo && iv.End <= hi && b.Contains(iv.Coords) {
			total += iv.Value
		}
	}
	return total
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewTracker(Config{}); err == nil {
		t.Error("NewTracker without Fresh succeeded")
	}
	_, err := NewTracker(Config{
		Fresh:         func() framework.Cloneable { return framework.NewBTreeStructure() },
		FreshEndpoint: func() framework.Cloneable { return framework.NewBTreeStructure() },
	})
	if err == nil {
		t.Error("FreshEndpoint without StartToCoord succeeded")
	}
}

func TestAddValidation(t *testing.T) {
	tr := newTracker(t, false)
	if err := tr.Add(Interval{Start: 5, End: 3, Coords: []int{0}, Value: 1}); err == nil {
		t.Error("inverted interval accepted")
	}
	if err := tr.Add(Interval{Start: 10, End: 12, Coords: []int{0}, Value: 1}); err != nil {
		t.Fatal(err)
	}
	err := tr.Add(Interval{Start: 9, End: 12, Coords: []int{0}, Value: 1})
	if !errors.Is(err, ErrNotAppendOnly) {
		t.Errorf("backwards start error = %v", err)
	}
}

func TestPaperCountExample(t *testing.T) {
	// COUNT of objects whose time interval intersects a query
	// interval, per the Section 2.4 identity b(up)+c(up)-b(low).
	tr := newTracker(t, false)
	ivs := naiveIntervals{
		{Start: 1, End: 4, Coords: []int{2}, Value: 1},
		{Start: 2, End: 2, Coords: []int{3}, Value: 1},
		{Start: 3, End: 9, Coords: []int{2}, Value: 1},
		{Start: 5, End: 6, Coords: []int{7}, Value: 1},
	}
	for _, iv := range ivs {
		if err := tr.Add(iv); err != nil {
			t.Fatal(err)
		}
	}
	box := dims.NewBox([]int{0}, []int{9})
	for _, q := range [][2]int64{{1, 1}, {2, 4}, {5, 8}, {0, 20}, {10, 20}, {7, 7}} {
		got, err := tr.IntersectQuery(q[0], q[1], box)
		if err != nil {
			t.Fatal(err)
		}
		if want := ivs.intersect(q[0], q[1], box); got != want {
			t.Fatalf("intersect [%d,%d] = %v, want %v", q[0], q[1], got, want)
		}
	}
	// Stab queries.
	for at := int64(0); at <= 10; at++ {
		got, err := tr.StabQuery(at, box)
		if err != nil {
			t.Fatal(err)
		}
		if want := ivs.intersect(at, at, box); got != want {
			t.Fatalf("stab %d = %v, want %v", at, got, want)
		}
	}
}

func TestPendingAndLen(t *testing.T) {
	tr := newTracker(t, false)
	if err := tr.Add(Interval{Start: 1, End: 100, Coords: []int{0}, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(Interval{Start: 2, End: 3, Coords: []int{0}, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Pending() != 2 {
		t.Fatalf("Len=%d Pending=%d", tr.Len(), tr.Pending())
	}
	if err := tr.Flush(50); err != nil {
		t.Fatal(err)
	}
	if tr.Pending() != 1 {
		t.Fatalf("Pending after flush = %d", tr.Pending())
	}
}

func TestContainedQueryRequiresEndpointFamily(t *testing.T) {
	tr := newTracker(t, false)
	_, err := tr.ContainedQuery(0, 10, dims.NewBox([]int{0}, []int{5}))
	if !errors.Is(err, ErrNoEndpointFamily) {
		t.Errorf("err = %v", err)
	}
}

func TestContainedQuery(t *testing.T) {
	tr := newTracker(t, true)
	ivs := naiveIntervals{
		{Start: 1, End: 4, Coords: []int{2}, Value: 1},
		{Start: 2, End: 10, Coords: []int{3}, Value: 1},
		{Start: 3, End: 3, Coords: []int{2}, Value: 1},
		{Start: 5, End: 7, Coords: []int{7}, Value: 1},
		{Start: 6, End: 6, Coords: []int{1}, Value: 1},
	}
	for _, iv := range ivs {
		if err := tr.Add(iv); err != nil {
			t.Fatal(err)
		}
	}
	box := dims.NewBox([]int{0}, []int{7})
	for _, q := range [][2]int64{{0, 20}, {1, 4}, {2, 7}, {3, 5}, {5, 7}, {8, 9}} {
		got, err := tr.ContainedQuery(q[0], q[1], box)
		if err != nil {
			t.Fatal(err)
		}
		if want := ivs.contained(q[0], q[1], box); got != want {
			t.Fatalf("contained [%d,%d] = %v, want %v", q[0], q[1], got, want)
		}
	}
}

// Property: intersect and contained queries match the naive scan for
// random interval streams with SUM measures, including coordinate
// boxes that exclude some objects.
func TestShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := newTracker(t, true)
		var ivs naiveIntervals
		// Generate intervals sorted by start within [0, 50].
		starts := make([]int, 25)
		for i := range starts {
			starts[i] = r.Intn(50)
		}
		sort.Ints(starts)
		for _, s := range starts {
			iv := Interval{
				Start:  int64(s),
				End:    int64(s + r.Intn(12)),
				Coords: []int{r.Intn(coordDomain)},
				Value:  float64(r.Intn(5) + 1),
			}
			if err := tr.Add(iv); err != nil {
				return false
			}
			ivs = append(ivs, iv)
		}
		for q := 0; q < 40; q++ {
			lo := int64(r.Intn(60))
			hi := lo + int64(r.Intn(20))
			cl := r.Intn(coordDomain)
			ch := cl + r.Intn(coordDomain-cl)
			box := dims.NewBox([]int{cl}, []int{ch})
			gi, err := tr.IntersectQuery(lo, hi, box)
			if err != nil || gi != ivs.intersect(lo, hi, box) {
				return false
			}
			gc, err := tr.ContainedQuery(lo, hi, box)
			if err != nil || gc != ivs.contained(lo, hi, box) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
