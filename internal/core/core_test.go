package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"histcube/internal/agg"
)

type corePoint struct {
	t int64
	x []int
	v float64
}

type coreShadow []corePoint

func (s coreShadow) eval(op agg.Operator, r Range) float64 {
	var acc agg.Value
	for _, p := range s {
		if p.t < r.TimeLo || p.t > r.TimeHi {
			continue
		}
		in := true
		for i := range p.x {
			if p.x[i] < r.Lo[i] || p.x[i] > r.Hi[i] {
				in = false
				break
			}
		}
		if in {
			pv := agg.Point(op, p.v)
			acc.Sum += pv.Sum
			acc.Count += pv.Count
		}
	}
	return agg.Finalize(op, acc)
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
			var sh coreShadow
			now := int64(0)
			for i := 0; i < 300; i++ {
				if r.Intn(3) == 0 {
					now++
				}
				p := corePoint{t: now, x: []int{r.Intn(6), r.Intn(5)}, v: float64(r.Intn(20) + 1)}
				if err := c.Insert(p.t, p.x, p.v); err != nil {
					t.Fatal(err)
				}
				sh = append(sh, p)
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
				want := sh.eval(op, rng)
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
	var sh coreShadow
	ins := func(tv int64, x int, v float64) {
		t.Helper()
		if err := c.Insert(tv, []int{x}, v); err != nil {
			t.Fatal(err)
		}
		sh = append(sh, corePoint{t: tv, x: []int{x}, v: v})
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
		if want := sh.eval(agg.Sum, rng); got != want {
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
	var sh coreShadow
	for _, p := range []corePoint{
		{10, []int{1}, 4}, {20, []int{1}, 8}, {15, []int{1}, 6},
	} {
		if err := c.Insert(p.t, p.x, p.v); err != nil {
			t.Fatal(err)
		}
		sh = append(sh, p)
	}
	rng := Range{TimeLo: 0, TimeHi: 30, Lo: []int{0}, Hi: []int{7}}
	got, err := c.Query(rng)
	if err != nil {
		t.Fatal(err)
	}
	if want := sh.eval(agg.Average, rng); got != want {
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
	var sh coreShadow
	now := int64(0)
	for i := 0; i < 200; i++ {
		if r.Intn(4) == 0 {
			now++
		}
		p := corePoint{t: now, x: []int{r.Intn(8), r.Intn(8)}, v: float64(r.Intn(9) + 1)}
		if err := c.Insert(p.t, p.x, p.v); err != nil {
			t.Fatal(err)
		}
		sh = append(sh, p)
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
		if want := sh.eval(agg.Sum, rng); got != want {
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
// shadow under random mixed streams.
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
		var sh coreShadow
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
			p := corePoint{t: tv, x: []int{r.Intn(5), r.Intn(4)}, v: float64(r.Intn(9) - 4)}
			if err := c.Insert(p.t, p.x, p.v); err != nil {
				return false
			}
			sh = append(sh, p)
			if i%5 == 0 {
				lo := []int{r.Intn(5), r.Intn(4)}
				hi := []int{lo[0] + r.Intn(5-lo[0]), lo[1] + r.Intn(4-lo[1])}
				tLo := int64(r.Intn(int(now) + 2))
				rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
				got, err := c.Query(rng)
				if err != nil || got != sh.eval(agg.Sum, rng) {
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
