package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/agg"
	"histcube/internal/core"
)

func mustHierarchy(t testing.TB) *Hierarchy {
	t.Helper()
	// 12 cities -> 4 states (3 cities each) -> 2 regions (2 states each).
	h, err := New("geo", 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddLevel("state", []int{0, 3, 6, 9}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLevel("region", []int{0, 6}); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0); err == nil {
		t.Error("zero base accepted")
	}
}

func TestAddLevelValidation(t *testing.T) {
	h, _ := New("d", 10)
	if err := h.AddLevel("bad", []int{1, 5}); err == nil {
		t.Error("bounds not starting at 0 accepted")
	}
	if err := h.AddLevel("bad", []int{0, 5, 5}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if err := h.AddLevel("bad", []int{0, 10}); err == nil {
		t.Error("bound outside domain accepted")
	}
	if err := h.AddLevel("l1", []int{0, 4, 8}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLevel("l1", []int{0, 8}); err == nil {
		t.Error("duplicate level name accepted")
	}
	if err := h.AddLevel("bad", []int{0, 5}); err == nil {
		t.Error("non-aligned coarser level accepted")
	}
	if err := h.AddLevel("bad", []int{0, 4, 8, 8}); err == nil {
		t.Error("finer level accepted (and non-ascending)")
	}
	if err := h.AddLevel("l2", []int{0, 8}); err != nil {
		t.Errorf("aligned coarser level rejected: %v", err)
	}
}

func TestRangesAndValues(t *testing.T) {
	h := mustHierarchy(t)
	if got := h.Levels(); len(got) != 2 || got[0] != "state" || got[1] != "region" {
		t.Fatalf("Levels = %v", got)
	}
	if n, _ := h.Size("state"); n != 4 {
		t.Errorf("state size = %d", n)
	}
	if n, _ := h.Size(""); n != 12 {
		t.Errorf("base size = %d", n)
	}
	if _, err := h.Size("nope"); err == nil {
		t.Error("unknown level accepted")
	}
	cases := []struct {
		level  string
		v      int
		lo, hi int
	}{
		{"state", 0, 0, 2}, {"state", 1, 3, 5}, {"state", 3, 9, 11},
		{"region", 0, 0, 5}, {"region", 1, 6, 11},
		{"", 7, 7, 7},
	}
	for _, c := range cases {
		lo, hi, err := h.Range(c.level, c.v)
		if err != nil || lo != c.lo || hi != c.hi {
			t.Errorf("Range(%q,%d) = %d,%d,%v want %d,%d", c.level, c.v, lo, hi, err, c.lo, c.hi)
		}
	}
	if _, _, err := h.Range("state", 4); err == nil {
		t.Error("out-of-range coarse value accepted")
	}
	for x := 0; x < 12; x++ {
		st, err := h.ValueAt("state", x)
		if err != nil || st != x/3 {
			t.Errorf("ValueAt(state,%d) = %d,%v", x, st, err)
		}
		rg, err := h.ValueAt("region", x)
		if err != nil || rg != x/6 {
			t.Errorf("ValueAt(region,%d) = %d,%v", x, rg, err)
		}
	}
}

func TestAddUniformLevel(t *testing.T) {
	h, _ := New("time", 24)
	if err := h.AddUniformLevel("halfday", 12); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Size("halfday"); n != 2 {
		t.Errorf("halfday size = %d", n)
	}
	if err := h.AddUniformLevel("day", 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Size("day"); n != 1 {
		t.Errorf("day size = %d", n)
	}
	if err := h.AddUniformLevel("bad", 1); err == nil {
		t.Error("group size 1 accepted")
	}
}

func TestGroupByOverCube(t *testing.T) {
	h := mustHierarchy(t)
	cube, err := core.New(core.Config{
		Dims:     []core.Dim{{Name: "city", Size: 12}, {Name: "product", Size: 4}},
		Operator: agg.Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(61))
	totals := make([]float64, 12)
	for i := 0; i < 500; i++ {
		city := r.Intn(12)
		v := float64(r.Intn(50) + 1)
		if err := cube.Insert(int64(i/50), []int{city, r.Intn(4)}, v); err != nil {
			t.Fatal(err)
		}
		totals[city] += v
	}
	q := func(lo, hi []int) (float64, error) {
		return cube.Query(core.Range{TimeLo: 0, TimeHi: 100, Lo: lo, Hi: hi})
	}
	// Roll up to states over the full region.
	vals, aggs, err := GroupBy(q, []int{0, 0}, []int{11, 3}, 0, h, "state")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d state groups", len(vals))
	}
	for i, v := range vals {
		want := totals[v*3] + totals[v*3+1] + totals[v*3+2]
		if aggs[i] != want {
			t.Errorf("state %d = %v, want %v", v, aggs[i], want)
		}
	}
	// Drill down into region 1's states only (clipped region).
	vals, aggs, err = GroupBy(q, []int{7, 0}, []int{11, 3}, 0, h, "state")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 3 {
		t.Fatalf("clipped groups = %v", vals)
	}
	// Group 2 is clipped to cities 7-8.
	if want := totals[7] + totals[8]; aggs[0] != want {
		t.Errorf("clipped state 2 = %v, want %v", aggs[0], want)
	}
	// Errors propagate.
	if _, _, err := GroupBy(q, []int{0, 0}, []int{11, 3}, 5, h, "state"); err == nil {
		t.Error("bad dim accepted")
	}
	if _, _, err := GroupBy(q, []int{0, 0}, []int{11, 3}, 0, h, "nope"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestTimeBuckets(t *testing.T) {
	cube, err := core.New(core.Config{
		Dims:     []core.Dim{{Name: "x", Size: 4}},
		Operator: agg.Count,
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := int64(0); d < 90; d++ {
		for k := 0; k < int(d%3)+1; k++ {
			if err := cube.Insert(d, []int{0}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := func(tLo, tHi int64) (float64, error) {
		return cube.Query(core.Range{TimeLo: tLo, TimeHi: tHi, Lo: []int{0}, Hi: []int{3}})
	}
	starts, aggs, err := TimeBuckets(q, 0, 89, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 {
		t.Fatalf("got %d buckets", len(starts))
	}
	total := 0.0
	for _, a := range aggs {
		total += a
	}
	if total != 180 { // 90 days x avg 2 observations
		t.Errorf("bucket total = %v, want 180", total)
	}
	// Partial trailing bucket.
	starts, _, err = TimeBuckets(q, 0, 99, 30)
	if err != nil || len(starts) != 4 {
		t.Fatalf("partial bucket: %d, %v", len(starts), err)
	}
	if _, _, err := TimeBuckets(q, 0, 10, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, _, err := TimeBuckets(q, 10, 0, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

// Property: GroupBy aggregates sum to the aggregate of the whole
// (unclipped) region, for random hierarchies and data.
func TestGroupByPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := r.Intn(20) + 4
		h, err := New("d", base)
		if err != nil {
			return false
		}
		// Random aligned level.
		var bounds []int
		for i := 0; i < base; i++ {
			if i == 0 || r.Intn(3) == 0 {
				bounds = append(bounds, i)
			}
		}
		if err := h.AddLevel("l", bounds); err != nil {
			return false
		}
		data := make([]float64, base)
		for i := range data {
			data[i] = float64(r.Intn(10))
		}
		q := func(lo, hi []int) (float64, error) {
			s := 0.0
			for i := lo[0]; i <= hi[0]; i++ {
				s += data[i]
			}
			return s, nil
		}
		lo := r.Intn(base)
		hi := lo + r.Intn(base-lo)
		_, aggs, err := GroupBy(q, []int{lo}, []int{hi}, 0, h, "l")
		if err != nil {
			return false
		}
		sum := 0.0
		for _, a := range aggs {
			sum += a
		}
		want, _ := q([]int{lo}, []int{hi})
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
