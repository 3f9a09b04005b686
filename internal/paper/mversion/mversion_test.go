package mversion

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTreapEmpty(t *testing.T) {
	var tr Treap
	if tr.Len() != 0 || tr.Sum() != 0 {
		t.Error("zero Treap not empty")
	}
	if _, ok := tr.Get(1); ok {
		t.Error("Get on empty found a key")
	}
	if tr.RangeSum(0, 10) != 0 {
		t.Error("RangeSum on empty != 0")
	}
}

func TestTreapAddGet(t *testing.T) {
	var tr Treap
	tr = tr.Add(5, 2).Add(3, 1).Add(5, 4)
	if v, ok := tr.Get(5); !ok || v != 6 {
		t.Errorf("Get(5) = %v,%v", v, ok)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Sum() != 7 {
		t.Errorf("Sum = %v", tr.Sum())
	}
}

func TestTreapPersistence(t *testing.T) {
	// Every intermediate version must remain queryable with its own
	// contents — the multiversion property of Section 4.
	versions := []Treap{{}}
	r := rand.New(rand.NewSource(1))
	type op struct {
		key   int64
		delta float64
	}
	var ops []op
	cur := Treap{}
	for i := 0; i < 300; i++ {
		o := op{key: int64(r.Intn(50)), delta: float64(r.Intn(9) - 4)}
		ops = append(ops, o)
		cur = cur.Add(o.key, o.delta)
		versions = append(versions, cur)
	}
	shadow := map[int64]float64{}
	for i, o := range ops {
		shadow[o.key] += o.delta
		v := versions[i+1]
		for q := 0; q < 5; q++ {
			lo := int64(r.Intn(60) - 5)
			hi := lo + int64(r.Intn(40))
			want := 0.0
			for k, val := range shadow {
				if k >= lo && k <= hi {
					want += val
				}
			}
			if got := v.RangeSum(lo, hi); got != want {
				t.Fatalf("version %d RangeSum(%d,%d) = %v, want %v", i+1, lo, hi, got, want)
			}
		}
	}
	// Version 0 is still empty.
	if versions[0].Len() != 0 {
		t.Error("version 0 mutated")
	}
}

func TestTreapAscendOrdered(t *testing.T) {
	var tr Treap
	r := rand.New(rand.NewSource(2))
	for _, k := range r.Perm(200) {
		tr = tr.Add(int64(k), 1)
	}
	var keys []int64
	tr.Ascend(func(k int64, v float64) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 200 {
		t.Fatalf("Ascend visited %d", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("Ascend out of order")
	}
	n := 0
	tr.Ascend(func(int64, float64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestTreapBalanced(t *testing.T) {
	// Sequential keys must not degenerate: depth should be O(log n).
	var tr Treap
	for i := 0; i < 1<<12; i++ {
		tr = tr.Add(int64(i), 1)
	}
	d := depth(tr.root)
	if d > 50 {
		t.Errorf("depth %d for 4096 sequential keys; treap not balancing", d)
	}
}

func depth(n *tnode) int {
	if n == nil {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Property: heap order and BST order hold after random insertion, and
// RangeSum matches a shadow.
func TestTreapInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Treap
		shadow := map[int64]float64{}
		for i := 0; i < 150; i++ {
			k := int64(r.Intn(80))
			d := float64(r.Intn(11) - 5)
			tr = tr.Add(k, d)
			shadow[k] += d
		}
		if !checkTreap(tr.root, -1<<62, 1<<62) {
			return false
		}
		for q := 0; q < 20; q++ {
			lo := int64(r.Intn(90) - 5)
			hi := lo + int64(r.Intn(50))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func checkTreap(n *tnode, lo, hi int64) bool {
	if n == nil {
		return true
	}
	if n.key <= lo || n.key >= hi {
		return false
	}
	if n.left != nil && n.left.prio > n.prio {
		return false
	}
	if n.right != nil && n.right.prio > n.prio {
		return false
	}
	wantSum := n.val
	if n.left != nil {
		wantSum += n.left.sum
	}
	if n.right != nil {
		wantSum += n.right.sum
	}
	if n.sum != wantSum {
		return false
	}
	return checkTreap(n.left, lo, n.key) && checkTreap(n.right, n.key, hi)
}

// Len walks the treap and counts its keys.
func (t Treap) Len() int { return count(t.root) }

func count(n *tnode) int {
	if n == nil {
		return 0
	}
	return 1 + count(n.left) + count(n.right)
}

// Sum returns the sum of all measures.
func (t Treap) Sum() float64 {
	if t.root == nil {
		return 0
	}
	return t.root.sum
}

// Get returns key's measure in this version.
func (t Treap) Get(key int64) (float64, bool) {
	n := t.root
	for n != nil {
		switch {
		case key == n.key:
			return n.val, true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return 0, false
}

// Ascend calls fn in ascending key order, stopping if fn returns
// false.
func (t Treap) Ascend(fn func(key int64, val float64) bool) {
	ascend(t.root, fn)
}
