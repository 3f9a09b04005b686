package rstar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"histcube/internal/dims"
	"histcube/internal/oracle"
)

func randEntries(r *rand.Rand, n, dim, domain int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		c := make([]int, dim)
		for d := range c {
			c[d] = r.Intn(domain)
		}
		es[i] = Entry{Coords: c, Value: float64(r.Intn(9) + 1)}
	}
	return es
}

// refOf loads entries into the oracle, all at time 0: they are points
// with no time of their own, so a query asks for time 0 to 0.
func refOf(es []Entry) oracle.Points {
	var ref oracle.Points
	for _, e := range es {
		ref.Insert(0, e.Coords, e.Value)
	}
	return ref
}

func randBox(r *rand.Rand, dim, domain int) dims.Box {
	lo := make([]int, dim)
	hi := make([]int, dim)
	for d := 0; d < dim; d++ {
		lo[d] = r.Intn(domain)
		hi[d] = lo[d] + r.Intn(domain-lo[d])
	}
	return dims.Box{Lo: lo, Hi: hi}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Dim succeeded")
	}
	if _, err := New(Config{Dim: 2, MaxEntries: 2}); err == nil {
		t.Error("capacity 2 accepted")
	}
	tr, err := New(Config{Dim: 6, PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	// Paper geometry: 6-d entries of 28 bytes in 8K pages.
	if tr.max != 8192/28 {
		t.Errorf("MaxEntries = %d, want %d", tr.max, 8192/28)
	}
}

func TestInsertQuerySmall(t *testing.T) {
	tr, _ := New(Config{Dim: 2, MaxEntries: 4})
	es := []Entry{
		{Coords: []int{1, 1}, Value: 2},
		{Coords: []int{5, 5}, Value: 3},
		{Coords: []int{9, 2}, Value: 4},
	}
	for _, e := range es {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got, err := tr.RangeScan(dims.NewBox([]int{0, 0}, []int{6, 6}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("RangeScan = %v, want 5", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := tr.Insert(Entry{Coords: []int{1}, Value: 1}); err == nil {
		t.Error("wrong-arity insert accepted")
	}
}

func TestInsertManyWithSplitsAndReinserts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr, _ := New(Config{Dim: 2, MaxEntries: 8})
	es := randEntries(r, 3000, 2, 100)
	for i, e := range es {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d; expected a multi-level tree", tr.Height())
	}
	ref := refOf(es)
	for q := 0; q < 100; q++ {
		b := randBox(r, 2, 100)
		want := ref.Query(0, 0, b.Lo, b.Hi).Sum
		gs, err := tr.RangeScan(b)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := tr.RangeAggregate(b)
		if err != nil {
			t.Fatal(err)
		}
		if gs != want || ga != want {
			t.Fatalf("box %v: scan %v agg %v want %v", b, gs, ga, want)
		}
	}
}

func TestAggregateCheaperThanScan(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	es := randEntries(r, 5000, 2, 64)
	tr, err := BulkLoad(Config{Dim: 2, MaxEntries: 16}, es)
	if err != nil {
		t.Fatal(err)
	}
	big := dims.NewBox([]int{2, 2}, []int{60, 60})
	tr.LeafReads, tr.NodeReads = 0, 0
	if _, err := tr.RangeScan(big); err != nil {
		t.Fatal(err)
	}
	scanLeaves := tr.LeafReads
	tr.LeafReads, tr.NodeReads = 0, 0
	if _, err := tr.RangeAggregate(big); err != nil {
		t.Fatal(err)
	}
	aggLeaves := tr.LeafReads
	if aggLeaves >= scanLeaves {
		t.Errorf("aggregate read %d leaves, scan %d; augmentation not skipping subtrees", aggLeaves, scanLeaves)
	}
}

func TestBulkLoadPackedAndCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	es := randEntries(r, 4000, 3, 50)
	tr, err := BulkLoad(Config{Dim: 3, MaxEntries: 32}, es)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Packed: leaf count near the minimum possible.
	minLeaves := (4000 + 31) / 32
	if lc := tr.LeafCount(); lc > minLeaves+minLeaves/4 {
		t.Errorf("bulk load produced %d leaves; fully packed would be %d", lc, minLeaves)
	}
	ref := refOf(es)
	for q := 0; q < 80; q++ {
		b := randBox(r, 3, 50)
		want := ref.Query(0, 0, b.Lo, b.Hi).Sum
		got, err := tr.RangeScan(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("box %v: got %v want %v", b, got, want)
		}
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	tr, err := BulkLoad(Config{Dim: 2, MaxEntries: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.RangeScan(dims.NewBox([]int{0, 0}, []int{10, 10}))
	if err != nil || got != 0 {
		t.Errorf("empty tree scan = %v, %v", got, err)
	}
	tr, err = BulkLoad(Config{Dim: 2, MaxEntries: 8}, []Entry{{Coords: []int{3, 4}, Value: 7}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ = tr.RangeScan(dims.NewBox([]int{3, 4}, []int{3, 4}))
	if got != 7 {
		t.Errorf("single entry scan = %v", got)
	}
}

func TestDelete(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr, _ := New(Config{Dim: 2, MaxEntries: 6})
	es := randEntries(r, 500, 2, 40)
	for _, e := range es {
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half, verifying against the oracle of the remainder.
	for i := 0; i < 250; i++ {
		if !tr.Delete(es[i].Coords, es[i].Value) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rest := refOf(es[250:])
	for q := 0; q < 50; q++ {
		b := randBox(r, 2, 40)
		got, err := tr.RangeScan(b)
		if err != nil {
			t.Fatal(err)
		}
		if want := rest.Query(0, 0, b.Lo, b.Hi).Sum; got != want {
			t.Fatalf("after deletes, box %v: got %v want %v", b, got, want)
		}
	}
	// Deleting a non-existent entry fails.
	if tr.Delete([]int{1000, 1000}, 1) {
		t.Error("deleted non-existent entry")
	}
}

func TestMaxDim0Entry(t *testing.T) {
	tr, _ := New(Config{Dim: 2, MaxEntries: 4})
	if _, ok := tr.MaxDim0Entry(); ok {
		t.Error("MaxDim0Entry on empty tree")
	}
	r := rand.New(rand.NewSource(5))
	maxT := -1
	for i := 0; i < 300; i++ {
		tv := r.Intn(1000)
		if tv > maxT {
			maxT = tv
		}
		if err := tr.Insert(Entry{Coords: []int{tv, r.Intn(10)}, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := tr.MaxDim0Entry()
	if !ok || e.Coords[0] != maxT {
		t.Errorf("MaxDim0Entry = %v,%v want coord0 %d", e, ok, maxT)
	}
}

func TestGdRoundTrip(t *testing.T) {
	g, err := NewGd(1)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(5, []int{2}, 1)
	g.Insert(9, []int{3}, 2)
	g.Insert(7, []int{2}, 3)
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	got, err := g.Query(6, 10, dims.NewBox([]int{0}, []int{9}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("Query = %v, want 5", got)
	}
	tv, x, v, ok := g.PopLatest()
	if !ok || tv != 9 || x[0] != 3 || v != 2 {
		t.Errorf("PopLatest = %d %v %v %v", tv, x, v, ok)
	}
	if g.Len() != 2 {
		t.Errorf("Len after pop = %d", g.Len())
	}
}

func TestWalkVisitsAll(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	es := randEntries(r, 200, 2, 30)
	tr, _ := BulkLoad(Config{Dim: 2, MaxEntries: 8}, es)
	n := 0
	tr.Walk(func(Entry) bool { n++; return true })
	if n != 200 {
		t.Errorf("Walk visited %d", n)
	}
	n = 0
	tr.Walk(func(Entry) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

// Property: dynamic inserts + deletes match the oracle and keep
// invariants, across random capacities.
func TestShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, err := New(Config{Dim: 2, MaxEntries: r.Intn(12) + 4})
		if err != nil {
			return false
		}
		var live []Entry
		var ref oracle.Points
		for op := 0; op < 250; op++ {
			if r.Intn(4) > 0 || len(live) == 0 {
				e := Entry{Coords: []int{r.Intn(20), r.Intn(20)}, Value: float64(r.Intn(5) + 1)}
				if err := tr.Insert(e); err != nil {
					return false
				}
				live = append(live, e)
				ref.Insert(0, e.Coords, e.Value)
			} else {
				i := r.Intn(len(live))
				if !tr.Delete(live[i].Coords, live[i].Value) {
					return false
				}
				ref.Delete(0, live[i].Coords, live[i].Value)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		for q := 0; q < 30; q++ {
			b := randBox(r, 2, 20)
			want := ref.Query(0, 0, b.Lo, b.Hi).Sum
			gs, err1 := tr.RangeScan(b)
			ga, err2 := tr.RangeAggregate(b)
			if err1 != nil || err2 != nil || gs != want || ga != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: bulk-loaded trees answer like the oracle for random
// dimensionalities.
func TestBulkLoadProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := r.Intn(3) + 1
		es := randEntries(r, r.Intn(500)+1, dim, 16)
		tr, err := BulkLoad(Config{Dim: dim, MaxEntries: r.Intn(20) + 4}, es)
		if err != nil {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		ref := refOf(es)
		for q := 0; q < 20; q++ {
			b := randBox(r, dim, 16)
			got, err := tr.RangeScan(b)
			if err != nil || got != ref.Query(0, 0, b.Lo, b.Hi).Sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
