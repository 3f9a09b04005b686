package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// numKeys walks the tree and counts its distinct keys.
func numKeys(tr *Tree) int {
	_, n, _ := tr.root.check(tr.order, true)
	return n
}

func TestEmptyTree(t *testing.T) {
	tr := New(4)
	if numKeys(tr) != 0 || tr.root.sum != 0 {
		t.Error("empty tree not zeroed")
	}
	if _, ok := tr.Get(5); ok {
		t.Error("Get on empty tree found a key")
	}
	if got := tr.RangeSum(0, 100); got != 0 {
		t.Errorf("RangeSum on empty tree = %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddGetUpsert(t *testing.T) {
	tr := New(4)
	tr.Add(10, 3)
	tr.Add(10, 4)
	if v, ok := tr.Get(10); !ok || v != 7 {
		t.Errorf("Get(10) = %v,%v", v, ok)
	}
	if numKeys(tr) != 1 {
		t.Errorf("Len = %d", numKeys(tr))
	}
	tr.Add(10, -7)
	if v, ok := tr.Get(10); !ok || v != 0 {
		t.Errorf("after inverse add: %v,%v (paper: deletes are inverse updates)", v, ok)
	}
}

func TestManyInsertsSplitAndStayOrdered(t *testing.T) {
	tr := New(4)
	r := rand.New(rand.NewSource(1))
	keys := r.Perm(500)
	for _, k := range keys {
		tr.Add(int64(k), float64(k))
	}
	if numKeys(tr) != 500 {
		t.Fatalf("Len = %d", numKeys(tr))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	tr.Ascend(func(k int64, v float64) bool {
		got = append(got, k)
		if v != float64(k) {
			t.Fatalf("key %d has value %v", k, v)
		}
		return true
	})
	if len(got) != 500 {
		t.Fatalf("Ascend visited %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Ascend out of order")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New(4)
	for i := 0; i < 20; i++ {
		tr.Add(int64(i), 1)
	}
	n := 0
	tr.Ascend(func(int64, float64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRangeSumExhaustiveSmall(t *testing.T) {
	tr := New(3)
	vals := map[int64]float64{}
	for _, k := range []int64{5, 1, 9, 3, 7, 2, 8, 0, 6, 4} {
		tr.Add(k, float64(k)*2+1)
		vals[k] = float64(k)*2 + 1
	}
	for lo := int64(-2); lo <= 11; lo++ {
		for hi := lo; hi <= 11; hi++ {
			want := 0.0
			for k, v := range vals {
				if k >= lo && k <= hi {
					want += v
				}
			}
			if got := tr.RangeSum(lo, hi); got != want {
				t.Fatalf("RangeSum(%d,%d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
	if got := tr.RangeSum(5, 4); got != 0 {
		t.Errorf("inverted range = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Add(int64(i), float64(i))
	}
	c := tr.Clone()
	c.Add(5, 100)
	c.Add(500, 1)
	if v, _ := tr.Get(5); v != 5 {
		t.Errorf("clone mutated original: Get(5) = %v", v)
	}
	if _, ok := tr.Get(500); ok {
		t.Error("clone insert leaked into original")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Clone's leaf chain must be self-contained.
	n := 0
	c.Ascend(func(int64, float64) bool { n++; return true })
	if n != 101 {
		t.Errorf("clone Ascend visited %d, want 101", n)
	}
}

// Property: tree agrees with a map shadow under random adds, for
// random orders, with invariants intact.
func TestShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(r.Intn(8) + 3)
		shadow := map[int64]float64{}
		for op := 0; op < 300; op++ {
			k := int64(r.Intn(100))
			d := float64(r.Intn(21) - 10)
			tr.Add(k, d)
			shadow[k] += d
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		if numKeys(tr) != len(shadow) {
			return false
		}
		for op := 0; op < 50; op++ {
			lo := int64(r.Intn(110) - 5)
			hi := lo + int64(r.Intn(60))
			want := 0.0
			for k, v := range shadow {
				if k >= lo && k <= hi {
					want += v
				}
			}
			if tr.RangeSum(lo, hi) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Ascend calls fn for every (key, measure) pair in ascending key
// order, stopping early if fn returns false.
func (t *Tree) Ascend(fn func(key int64, val float64) bool) {
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	for n != nil {
		for i, k := range n.keys {
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Get returns the measure of key and whether the key exists.
func (t *Tree) Get(key int64) (float64, bool) {
	n := t.root
	for !n.leaf {
		n = n.kids[n.childIndex(key)]
	}
	i := n.search(key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return 0, false
}
