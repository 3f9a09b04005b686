package appendcube

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/ddc"
	"histcube/internal/dims"
	"histcube/internal/oracle"
	"histcube/internal/pager"
)

func randBox(r *rand.Rand, s dims.Shape) dims.Box {
	lo := make([]int, len(s))
	hi := make([]int, len(s))
	for i, n := range s {
		lo[i] = r.Intn(n)
		hi[i] = lo[i] + r.Intn(n-lo[i])
	}
	return dims.Box{Lo: lo, Hi: hi}
}

func newDiskCube(t testing.TB, shape dims.Shape, pageSize int) *Cube {
	t.Helper()
	pg, err := pager.New(pager.NewMemBackend(pageSize), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{SliceShape: shape, Store: NewDiskStore(shape.Size(), pg)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEmptyCubeQueriesZero(t *testing.T) {
	c, err := New(Config{SliceShape: dims.Shape{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(0, 100, dims.FullBox(c.SliceShape()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty cube query = %v", got)
	}
	if c.NumSlices() != 0 || c.Incomplete() != 0 {
		t.Error("empty cube state wrong")
	}
}

func TestRejectsBadConfigAndArgs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with empty shape succeeded")
	}
	c, _ := New(Config{SliceShape: dims.Shape{4}})
	if _, err := c.Update(1, []int{4}, 1); err == nil {
		t.Error("out-of-shape update accepted")
	}
	if _, err := c.Query(5, 2, dims.FullBox(c.SliceShape())); err == nil {
		t.Error("inverted time range accepted")
	}
	if _, err := c.Query(0, 1, dims.NewBox([]int{0}, []int{9})); err == nil {
		t.Error("out-of-range box accepted")
	}
	if _, err := c.sliceQuery(context.Background(), nil, 0, dims.FullBox(c.SliceShape())); err == nil {
		t.Error("slice query on empty cube accepted")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	c, _ := New(Config{SliceShape: dims.Shape{4}})
	if _, err := c.Update(10, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Update(9, []int{1}, 1)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("past-time update error = %v, want ErrOutOfOrder", err)
	}
	// Equal time is fine (same slice).
	if _, err := c.Update(10, []int{2}, 1); err != nil {
		t.Errorf("same-time update rejected: %v", err)
	}
}

func TestPaperSection22Scenario(t *testing.T) {
	// The two-dimensional time x location walkthrough of Section 2.2:
	// a range query [2..4] in time is answered as the prefix query at
	// the greatest occurring time <= 4 minus the prefix at the
	// greatest occurring time <= 1.
	c, _ := New(Config{SliceShape: dims.Shape{8}})
	updates := []struct {
		t   int64
		loc int
		v   float64
	}{
		{1, 3, 3}, {1, 5, 4}, {3, 4, 2}, {3, 3, 1}, {4, 5, 3},
	}
	var ref oracle.Points
	for _, u := range updates {
		if _, err := c.Update(u.t, []int{u.loc}, u.v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(u.t, []int{u.loc}, u.v)
	}
	box := dims.NewBox([]int{3}, []int{5})
	got, err := c.Query(2, 4, box)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Query(2, 4, box.Lo, box.Hi).Sum; got != want {
		t.Fatalf("query = %v, want %v", got, want)
	}
	// Prefix time query semantics: t between occurring times uses the
	// greatest occurring time below it.
	p2, err := c.prefixTimeQuery(context.Background(), nil, 2, box)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.prefixTimeQuery(context.Background(), nil, 1, box)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Errorf("prefix at non-occurring time 2 = %v, want prefix at 1 = %v", p2, p1)
	}
	// Prefix before all data is zero.
	p0, _ := c.prefixTimeQuery(context.Background(), nil, 0, box)
	if p0 != 0 {
		t.Errorf("prefix before first time = %v", p0)
	}
}

func TestQueriesMatchShadowMemory(t *testing.T) {
	testQueriesMatchShadow(t, func(shape dims.Shape) *Cube {
		c, err := New(Config{SliceShape: shape})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestQueriesMatchShadowMemoryNoConversion(t *testing.T) {
	testQueriesMatchShadow(t, func(shape dims.Shape) *Cube {
		c, err := New(Config{SliceShape: shape, DisableConversion: true})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestQueriesMatchShadowMemoryNoCopyAhead(t *testing.T) {
	testQueriesMatchShadow(t, func(shape dims.Shape) *Cube {
		c, err := New(Config{SliceShape: shape, CopyAheadThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestQueriesMatchShadowDisk(t *testing.T) {
	testQueriesMatchShadow(t, func(shape dims.Shape) *Cube {
		return newDiskCube(t, shape, 64) // 16 cells/page: forces page churn
	})
}

func testQueriesMatchShadow(t *testing.T, mk func(dims.Shape) *Cube) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	shape := dims.Shape{7, 5}
	c := mk(shape)
	var ref oracle.Points
	now := int64(0)
	for i := 0; i < 400; i++ {
		if r.Intn(3) == 0 {
			now += int64(r.Intn(3) + 1)
		}
		x := []int{r.Intn(shape[0]), r.Intn(shape[1])}
		v := float64(r.Intn(9) - 4)
		if _, err := c.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(now, x, v)
		if i%7 == 0 {
			b := randBox(r, shape)
			tLo := int64(r.Intn(int(now) + 2))
			tHi := tLo + int64(r.Intn(int(now)+2))
			got, err := c.Query(tLo, tHi, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Query(tLo, tHi, b.Lo, b.Hi).Sum; got != want {
				t.Fatalf("op %d: query [%d,%d] %v = %v, want %v", i, tLo, tHi, b, got, want)
			}
		}
	}
	// Repeat a batch of queries after the stream ends (exercises
	// historic-slice conversion on settled data).
	for q := 0; q < 200; q++ {
		b := randBox(r, shape)
		tLo := int64(r.Intn(int(now) + 2))
		tHi := tLo + int64(r.Intn(int(now)+2))
		got, err := c.Query(tLo, tHi, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Query(tLo, tHi, b.Lo, b.Hi).Sum; got != want {
			t.Fatalf("post query %d: [%d,%d] %v = %v, want %v", q, tLo, tHi, b, got, want)
		}
	}
}

func TestIncompleteTracking(t *testing.T) {
	// With copy-ahead disabled, incomplete slices accumulate; the
	// tracked count must match a brute-force recount, and
	// ForceComplete must clear it.
	r := rand.New(rand.NewSource(9))
	shape := dims.Shape{6, 6}
	c, _ := New(Config{SliceShape: shape, CopyAheadThreshold: -1})
	for i := 0; i < 200; i++ {
		tv := int64(i / 4)
		x := []int{r.Intn(6), r.Intn(6)}
		res, err := c.Update(tv, x, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: a historic slice s is incomplete iff some cache
		// cell has ts <= s.
		minTS := int32(1 << 30)
		for _, cell := range c.cache {
			if cell.ts < minTS {
				minTS = cell.ts
			}
		}
		want := c.dir.Len() - 1 - int(minTS)
		if want < 0 {
			want = 0
		}
		if res.Incomplete != want || c.Incomplete() != want {
			t.Fatalf("op %d: Incomplete = %d/%d, brute force %d", i, res.Incomplete, c.Incomplete(), want)
		}
	}
	if err := c.ForceComplete(); err != nil {
		t.Fatal(err)
	}
	if c.Incomplete() != 0 {
		t.Errorf("Incomplete after ForceComplete = %d", c.Incomplete())
	}
	// Every historic cell must now be materialised.
	ms := c.store.(*MemStore)
	for s := 0; s < c.NumSlices()-1; s++ {
		for off := range ms.flags[s] {
			if Flag(ms.flags[s][off]) == Unmaterialized {
				t.Fatalf("slice %d cell %d unmaterialised after ForceComplete", s, off)
			}
		}
	}
}

func TestLazyCopyInvariant(t *testing.T) {
	// Invariant of Section 3.3: whenever a cache cell's timestamp is
	// > s, slice s holds a materialised value for that cell.
	r := rand.New(rand.NewSource(10))
	shape := dims.Shape{5, 4}
	c, _ := New(Config{SliceShape: shape, CopyAheadThreshold: 6})
	now := int64(0)
	for i := 0; i < 300; i++ {
		if r.Intn(4) == 0 {
			now++
		}
		if _, err := c.Update(now, []int{r.Intn(5), r.Intn(4)}, 1); err != nil {
			t.Fatal(err)
		}
		ms := c.store.(*MemStore)
		for off, cell := range c.cache {
			for s := 0; s < int(cell.ts); s++ {
				if Flag(ms.flags[s][off]) == Unmaterialized {
					t.Fatalf("op %d: cache ts %d but slice %d cell %d unmaterialised", i, cell.ts, s, off)
				}
			}
		}
	}
}

func TestUpdateCostBounds(t *testing.T) {
	shape := dims.Shape{32, 32}
	c, _ := New(Config{SliceShape: shape})
	bound := (ddc.MaxChainLen(32) + 1) * (ddc.MaxChainLen(32) + 1)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		res, err := c.Update(int64(i/10), []int{r.Intn(32), r.Intn(32)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheCells > bound {
			t.Fatalf("update touched %d cache cells, bound %d", res.CacheCells, bound)
		}
		if res.Cost() != res.CacheCells+res.ForcedCopies+res.CopyAhead {
			t.Error("Cost() inconsistent")
		}
		if res.CostNoCopy() != res.CacheCells {
			t.Error("CostNoCopy() inconsistent")
		}
	}
}

func TestCopyAheadBoundsIncomplete(t *testing.T) {
	// With the default threshold and a workload of several updates per
	// slice, the number of incomplete historic instances must stay
	// small (the paper's Table 4 observes 0-2 for the weather sets).
	r := rand.New(rand.NewSource(12))
	shape := dims.Shape{16, 16}
	c, _ := New(Config{SliceShape: shape})
	maxInc := 0
	for i := 0; i < 4000; i++ {
		tv := int64(i / 40) // 40 updates per slice; density 40/256
		res, err := c.Update(tv, []int{r.Intn(16), r.Intn(16)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete > maxInc {
			maxInc = res.Incomplete
		}
	}
	if maxInc > 4 {
		t.Errorf("max incomplete instances = %d, want small (paper: 0-2)", maxInc)
	}
}

func TestDiskCopyAheadOnePagePerUpdate(t *testing.T) {
	// The paper's disk experiment: one page access per update is
	// enough to keep at most one historic instance incomplete.
	r := rand.New(rand.NewSource(13))
	shape := dims.Shape{16, 16} // 256 cells; page of 64 bytes = 16 cells
	c := newDiskCube(t, shape, 64)
	for i := 0; i < 3000; i++ {
		tv := int64(i / 30)
		res, err := c.Update(tv, []int{r.Intn(16), r.Intn(16)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete > 1 {
			t.Fatalf("op %d: %d incomplete instances on disk, want <= 1", i, res.Incomplete)
		}
	}
}

func TestQueryCostIndependentOfHistoryLength(t *testing.T) {
	// The framework's headline property: querying a fixed-width time
	// range must not get more expensive as history grows.
	shape := dims.Shape{16, 16}
	c, _ := New(Config{SliceShape: shape})
	r := rand.New(rand.NewSource(14))
	box := dims.NewBox([]int{2, 3}, []int{10, 12})
	var early, late int64
	for epoch := 0; epoch < 2; epoch++ {
		slices := 50
		for i := 0; i < slices*20; i++ {
			tv := int64(epoch*1000 + i/20)
			if _, err := c.Update(tv, []int{r.Intn(16), r.Intn(16)}, 1); err != nil {
				t.Fatal(err)
			}
		}
		before := c.Accesses()
		for q := 0; q < 20; q++ {
			tv := int64(epoch * 1000)
			if _, err := c.Query(tv+5, tv+25, box); err != nil {
				t.Fatal(err)
			}
		}
		cost := c.Accesses() - before
		if epoch == 0 {
			early = cost
		} else {
			late = cost
		}
	}
	if late > early*3 {
		t.Errorf("query cost grew with history: early %d, late %d", early, late)
	}
}

func TestConversionSpeedsUpRepeatQueries(t *testing.T) {
	shape := dims.Shape{32, 32}
	c, _ := New(Config{SliceShape: shape})
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		if _, err := c.Update(int64(i/100), []int{r.Intn(32), r.Intn(32)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	box := dims.NewBox([]int{4, 4}, []int{20, 25})
	before := c.Accesses()
	if _, err := c.Query(3, 12, box); err != nil {
		t.Fatal(err)
	}
	first := c.Accesses() - before
	before = c.Accesses()
	if _, err := c.Query(3, 12, box); err != nil {
		t.Fatal(err)
	}
	second := c.Accesses() - before
	if second > first {
		t.Errorf("repeat query cost %d > first %d; conversion not helping", second, first)
	}
	// Fully converted prefix corners cost at most 2 loads per corner:
	// 2^(d-1) per prefix, two prefixes, d-1=2 dims -> <= 8... plus the
	// unmaterialised fallbacks (2 accesses each): allow 2x slack.
	if second > 16 {
		t.Errorf("converged query cost %d, want <= 16", second)
	}
}

// Property: random streams with random slice shapes, stores and
// thresholds always match the oracle.
func TestShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := dims.Shape{r.Intn(6) + 1, r.Intn(6) + 1}
		var c *Cube
		var err error
		switch r.Intn(3) {
		case 0:
			c, err = New(Config{SliceShape: shape, CopyAheadThreshold: r.Intn(20) - 5})
		case 1:
			c, err = New(Config{SliceShape: shape, DisableConversion: true})
		default:
			pg, perr := pager.New(pager.NewMemBackend(32), 32)
			if perr != nil {
				return false
			}
			c, err = New(Config{SliceShape: shape, Store: NewDiskStore(shape.Size(), pg)})
		}
		if err != nil {
			return false
		}
		var ref oracle.Points
		now := int64(0)
		for i := 0; i < 120; i++ {
			if r.Intn(3) == 0 {
				now += int64(r.Intn(2) + 1)
			}
			x := []int{r.Intn(shape[0]), r.Intn(shape[1])}
			v := float64(r.Intn(7) - 3)
			if _, err := c.Update(now, x, v); err != nil {
				return false
			}
			ref.Insert(now, x, v)
			if i%5 == 0 {
				b := randBox(r, shape)
				tLo := int64(r.Intn(int(now) + 2))
				tHi := tLo + int64(r.Intn(int(now)+2))
				got, err := c.Query(tLo, tHi, b)
				if err != nil {
					return false
				}
				if got != ref.Query(tLo, tHi, b.Lo, b.Hi).Sum {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: 3-d slices (4-d cubes) match the oracle too.
func TestShadowProperty3D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := dims.Shape{r.Intn(4) + 1, r.Intn(4) + 1, r.Intn(4) + 1}
		c, err := New(Config{SliceShape: shape})
		if err != nil {
			return false
		}
		var ref oracle.Points
		now := int64(0)
		for i := 0; i < 80; i++ {
			if r.Intn(4) == 0 {
				now++
			}
			x := []int{r.Intn(shape[0]), r.Intn(shape[1]), r.Intn(shape[2])}
			v := float64(r.Intn(5))
			if _, err := c.Update(now, x, v); err != nil {
				return false
			}
			ref.Insert(now, x, v)
			if i%6 == 0 {
				b := randBox(r, shape)
				tLo := int64(r.Intn(int(now) + 2))
				tHi := tLo + int64(r.Intn(int(now)+2))
				got, err := c.Query(tLo, tHi, b)
				if err != nil || got != ref.Query(tLo, tHi, b.Lo, b.Hi).Sum {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQueryAtInt64Extremes(t *testing.T) {
	c, _ := New(Config{SliceShape: dims.Shape{4}})
	if _, err := c.Update(0, []int{1}, 5); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(math.MinInt64, math.MaxInt64, dims.FullBox(c.SliceShape()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("extreme-range query = %v, want 5 (timeLo-1 must not wrap)", got)
	}
}
