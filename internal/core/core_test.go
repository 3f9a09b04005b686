package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"histcube/internal/agg"
	"histcube/internal/oracle"
)

// oracleAt is the oracle's answer to r under op.
func oracleAt(ref oracle.Points, op agg.Operator, r Range) float64 {
	return ref.Query(r.TimeLo, r.TimeHi, r.Lo, r.Hi).Of(op.String())
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Operator: agg.Sum}); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := New(Config{Dims: []Dim{{"x", 0}}, Operator: agg.Sum}); err == nil {
		t.Error("zero-size dim accepted")
	}
	if _, err := New(Config{Dims: []Dim{{"x", 4}, {"x", 5}}, Operator: agg.Sum}); err == nil {
		t.Error("duplicate dim name accepted")
	}
	if _, err := New(Config{Dims: []Dim{{"x", 4}}, Operator: agg.Min}); err == nil {
		t.Error("non-invertible operator accepted")
	}
}

func TestShape(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{"store", 10}, {"product", 20}}, Operator: agg.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Shape(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("Shape = %v", got)
	}
}

func TestSumInsertDeleteQuery(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{"loc", 8}}, Operator: agg.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(1, []int{3}, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, []int{4}, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyOp(context.Background(), Op{Kind: OpDelete, Time: 2, Coords: []int{4}, Value: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(Range{TimeLo: 0, TimeHi: 10, Lo: []int{0}, Hi: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("query = %v, want 5 (delete is the inverse update)", got)
	}
}

func TestOperatorsMatchShadow(t *testing.T) {
	for _, op := range []agg.Operator{agg.Sum, agg.Count, agg.Average} {
		t.Run(op.String(), func(t *testing.T) {
			c, err := New(Config{Dims: []Dim{{"a", 6}, {"b", 5}}, Operator: op})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(31))
			var ref oracle.Points
			now := int64(0)
			for i := 0; i < 300; i++ {
				if r.Intn(3) == 0 {
					now++
				}
				x, v := []int{r.Intn(6), r.Intn(5)}, float64(r.Intn(20)+1)
				if err := c.Insert(now, x, v); err != nil {
					t.Fatal(err)
				}
				ref.Insert(now, x, v)
			}
			for q := 0; q < 150; q++ {
				lo := []int{r.Intn(6), r.Intn(5)}
				hi := []int{lo[0] + r.Intn(6-lo[0]), lo[1] + r.Intn(5-lo[1])}
				tLo := int64(r.Intn(int(now) + 2))
				rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
				got, err := c.Query(rng)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleAt(ref, op, rng)
				if diff := got - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s query %+v = %v, want %v", op, rng, got, want)
				}
			}
		})
	}
}

func TestOutOfOrderBuffering(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{"x", 8}}, Operator: agg.Sum, BufferOutOfOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	var ref oracle.Points
	ins := func(tv int64, x int, v float64) {
		t.Helper()
		if err := c.Insert(tv, []int{x}, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(tv, []int{x}, v)
	}
	ins(10, 1, 5)
	ins(20, 2, 3)
	ins(12, 3, 7) // late correction
	ins(5, 4, 2)  // very late
	st := c.Stats()
	if st.PendingOutOfOrder != 2 || st.OutOfOrderUpdates != 2 || st.AppendedUpdates != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for _, q := range [][2]int64{{0, 30}, {11, 13}, {5, 10}, {13, 30}} {
		rng := Range{TimeLo: q[0], TimeHi: q[1], Lo: []int{0}, Hi: []int{7}}
		got, err := c.Query(rng)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleAt(ref, agg.Sum, rng); got != want {
			t.Fatalf("query [%d,%d] = %v, want %v", q[0], q[1], got, want)
		}
	}
}

func TestOutOfOrderRejectedWithoutBuffer(t *testing.T) {
	c, _ := New(Config{Dims: []Dim{{"x", 8}}, Operator: agg.Sum})
	if err := c.Insert(10, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(5, []int{1}, 1); err == nil {
		t.Error("out-of-order insert accepted without buffer")
	}
}

func TestAverageOutOfOrder(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{"x", 8}}, Operator: agg.Average, BufferOutOfOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	var ref oracle.Points
	for _, p := range []struct {
		t int64
		v float64
	}{{10, 4}, {20, 8}, {15, 6}} {
		if err := c.Insert(p.t, []int{1}, p.v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(p.t, []int{1}, p.v)
	}
	rng := Range{TimeLo: 0, TimeHi: 30, Lo: []int{0}, Hi: []int{7}}
	got, err := c.Query(rng)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleAt(ref, agg.Average, rng); got != want {
		t.Errorf("avg = %v, want %v", got, want)
	}
}

func TestDiskBackedCube(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slices.dat")
	c, err := New(Config{
		Dims:     []Dim{{"x", 8}, {"y", 8}},
		Operator: agg.Sum,
		Storage:  Storage{Kind: Disk, Path: path, PageSize: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(32))
	var ref oracle.Points
	now := int64(0)
	for i := 0; i < 200; i++ {
		if r.Intn(4) == 0 {
			now++
		}
		x, v := []int{r.Intn(8), r.Intn(8)}, float64(r.Intn(9)+1)
		if err := c.Insert(now, x, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(now, x, v)
	}
	for q := 0; q < 60; q++ {
		lo := []int{r.Intn(8), r.Intn(8)}
		hi := []int{lo[0] + r.Intn(8-lo[0]), lo[1] + r.Intn(8-lo[1])}
		tLo := int64(r.Intn(int(now) + 2))
		rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
		got, err := c.Query(rng)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleAt(ref, agg.Sum, rng); got != want {
			t.Fatalf("disk query %+v = %v, want %v", rng, got, want)
		}
	}
	if c.Stats().StoreAccesses == 0 {
		t.Error("disk cube reports zero store accesses")
	}
}

func TestRetire(t *testing.T) {
	c, _ := New(Config{Dims: []Dim{{"x", 16}}, Operator: agg.Average})
	for i := 0; i < 100; i++ {
		if err := c.Insert(int64(i/10), []int{i % 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Retire(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.IncompleteSlices != 0 {
		t.Errorf("incomplete after Retire = %d", st.IncompleteSlices)
	}
}

// Property: SUM cubes with buffered out-of-order updates match the
// oracle under random mixed streams.
func TestMixedStreamProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(Config{
			Dims:             []Dim{{"x", 5}, {"y", 4}},
			Operator:         agg.Sum,
			BufferOutOfOrder: true,
		})
		if err != nil {
			return false
		}
		var ref oracle.Points
		now := int64(1)
		for i := 0; i < 100; i++ {
			var tv int64
			if r.Intn(8) == 0 {
				tv = int64(r.Intn(int(now)))
			} else {
				if r.Intn(3) == 0 {
					now++
				}
				tv = now
			}
			x, v := []int{r.Intn(5), r.Intn(4)}, float64(r.Intn(9)-4)
			if err := c.Insert(tv, x, v); err != nil {
				return false
			}
			ref.Insert(tv, x, v)
			if i%5 == 0 {
				lo := []int{r.Intn(5), r.Intn(4)}
				hi := []int{lo[0] + r.Intn(5-lo[0]), lo[1] + r.Intn(4-lo[1])}
				tLo := int64(r.Intn(int(now) + 2))
				rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
				got, err := c.Query(rng)
				if err != nil || got != oracleAt(ref, agg.Sum, rng) {
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

// TestConvergedQueryAllocs guards what a converged historic query costs
// besides its cells: once every cell it reads is PS, answering it again
// with a span-less context allocates nothing, through the framework
// reduction, the eCube engine and the empty out-of-order buffer alike.
func TestConvergedQueryAllocs(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{"x", 64}, {"y", 64}}, Operator: agg.Sum, BufferOutOfOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	var ref oracle.Points
	for i := 0; i < 512; i++ {
		tv, x := int64(1+i/8), []int{(i * 7) % 64, (i * 13) % 64}
		if err := c.Insert(tv, x, 1); err != nil {
			t.Fatal(err)
		}
		ref.Insert(tv, x, 1)
	}
	ctx, r := context.Background(), Range{TimeLo: 8, TimeHi: 40, Lo: []int{3, 5}, Hi: []int{60, 58}}
	want := oracleAt(ref, agg.Sum, r)
	query := func() {
		if got, err := c.QueryCtx(ctx, r); err != nil || got != want {
			t.Fatalf("QueryCtx = %v, %v, want %v", got, err, want)
		}
	}
	query() // converts the cells it reads to PS
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Fatalf("a converged historic query allocates %.0f objects, want 0", allocs)
	}
}
