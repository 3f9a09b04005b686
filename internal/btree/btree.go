// Package btree implements an in-memory B+ tree over int64 keys with
// per-subtree aggregate sums, so one-dimensional range-sum queries run
// in O(log n). It is the kind of one-dimensional structure R_1 the
// paper's framework example uses ("e.g., a B-tree with location keys",
// Section 2.2).
//
// Deletions follow the paper's model: inserts and deletes are
// translated to measure updates (Add with a negative delta), so keys
// are never physically removed.
package btree

import "fmt"

// DefaultOrder is the default maximum number of keys per node.
const DefaultOrder = 32

// Tree maps int64 keys to float64 measures and answers range sums.
type Tree struct {
	root  *node
	order int
}

type node struct {
	leaf bool
	keys []int64
	vals []float64 // leaf payloads, parallel to keys
	kids []*node   // internal children, len(keys)+1
	sum  float64   // sum of all measures in the subtree
	next *node     // leaf chain for ordered iteration
}

// New returns an empty tree with the given order (maximum keys per
// node); order < 3 selects DefaultOrder.
func New(order int) *Tree {
	if order < 3 {
		order = DefaultOrder
	}
	return &Tree{root: &node{leaf: true}, order: order}
}

// Add adds delta to the measure of key, inserting the key with
// measure delta if absent.
func (t *Tree) Add(key int64, delta float64) {
	split, sep := t.root.add(t, key, delta)
	if split != nil {
		newRoot := &node{
			keys: []int64{sep},
			kids: []*node{t.root, split},
			sum:  t.root.sum + split.sum,
		}
		t.root = newRoot
	}
}

// add inserts into n's subtree, returning a new right sibling and the
// separator key if n split.
func (n *node) add(t *Tree, key int64, delta float64) (*node, int64) {
	n.sum += delta
	if n.leaf {
		i := n.search(key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] += delta
			return nil, 0
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = delta
		if len(n.keys) > t.order {
			return n.splitLeaf()
		}
		return nil, 0
	}
	i := n.childIndex(key)
	split, sep := n.kids[i].add(t, key, delta)
	if split == nil {
		return nil, 0
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.kids = append(n.kids, nil)
	copy(n.kids[i+2:], n.kids[i+1:])
	n.kids[i+1] = split
	if len(n.keys) > t.order {
		return n.splitInternal()
	}
	return nil, 0
}

// search returns the first index i with keys[i] >= key.
func (n *node) search(key int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child subtree that covers key: child i holds
// keys in [keys[i-1], keys[i]).
func (n *node) childIndex(key int64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *node) splitLeaf() (*node, int64) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([]int64(nil), n.keys[mid:]...),
		vals: append([]float64(nil), n.vals[mid:]...),
		next: n.next,
	}
	for _, v := range right.vals {
		right.sum += v
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.sum -= right.sum
	n.next = right
	return right, right.keys[0]
}

func (n *node) splitInternal() (*node, int64) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys: append([]int64(nil), n.keys[mid+1:]...),
		kids: append([]*node(nil), n.kids[mid+1:]...),
	}
	for _, k := range right.kids {
		right.sum += k.sum
	}
	n.keys = n.keys[:mid]
	n.kids = n.kids[:mid+1]
	n.sum -= right.sum
	return right, sep
}

// RangeSum returns the sum of measures of all keys in [lo, hi].
func (t *Tree) RangeSum(lo, hi int64) float64 {
	if lo > hi {
		return 0
	}
	return t.root.rangeSum(lo, hi)
}

func (n *node) rangeSum(lo, hi int64) float64 {
	if n.leaf {
		total := 0.0
		for i := n.search(lo); i < len(n.keys) && n.keys[i] <= hi; i++ {
			total += n.vals[i]
		}
		return total
	}
	// Child i covers [keys[i-1], keys[i]); strictly interior children
	// are fully inside [lo, hi] and contribute their aggregate in
	// O(1); only the two boundary children recurse, so the whole query
	// is O(log n).
	total := 0.0
	first := n.childIndex(lo)
	last := n.childIndex(hi)
	for i := first + 1; i < last; i++ {
		total += n.kids[i].sum
	}
	total += n.kids[first].rangeSum(lo, hi)
	if last != first {
		total += n.kids[last].rangeSum(lo, hi)
	}
	return total
}

func (n *node) floorScan(key int64, best *int64, found *bool) {
	if n.leaf {
		i := n.search(key)
		if i < len(n.keys) && n.keys[i] == key {
			*best, *found = key, true
			return
		}
		if i > 0 {
			*best, *found = n.keys[i-1], true
		}
		return
	}
	for i := n.childIndex(key); i >= 0; i-- {
		n.kids[i].floorScan(key, best, found)
		if *found {
			return
		}
	}
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{order: t.order}
	var leaves []*node
	c.root = t.root.clone(&leaves)
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	return c
}

func (n *node) clone(leaves *[]*node) *node {
	c := &node{
		leaf: n.leaf,
		keys: append([]int64(nil), n.keys...),
		sum:  n.sum,
	}
	if n.leaf {
		c.vals = append([]float64(nil), n.vals...)
		*leaves = append(*leaves, c)
		return c
	}
	c.kids = make([]*node, len(n.kids))
	for i, k := range n.kids {
		c.kids[i] = k.clone(leaves)
	}
	return c
}

// CheckInvariants validates structural invariants (key order, subtree
// sums, fanout); tests call it after mutation sequences.
//
//histlint:ignore deadexport invariant checker; btree_test.go runs it after every mutation sequence
func (t *Tree) CheckInvariants() error {
	_, _, err := t.root.check(t.order, true)
	return err
}

func (n *node) check(order int, isRoot bool) (float64, int, error) {
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, 0, fmt.Errorf("btree: keys out of order at %d", i)
		}
	}
	if len(n.keys) > order {
		return 0, 0, fmt.Errorf("btree: node overflow: %d keys, order %d", len(n.keys), order)
	}
	if n.leaf {
		sum := 0.0
		for _, v := range n.vals {
			sum += v
		}
		//histlint:ignore nofloateq invariant check recomputes the stored sum over the same values in the same order, so exact equality is the invariant
		if sum != n.sum {
			return 0, 0, fmt.Errorf("btree: leaf sum %v != stored %v", sum, n.sum)
		}
		return sum, len(n.keys), nil
	}
	if len(n.kids) != len(n.keys)+1 {
		return 0, 0, fmt.Errorf("btree: internal node has %d kids for %d keys", len(n.kids), len(n.keys))
	}
	sum := 0.0
	count := 0
	for _, k := range n.kids {
		s, c, err := k.check(order, false)
		if err != nil {
			return 0, 0, err
		}
		sum += s
		count += c
	}
	//histlint:ignore nofloateq invariant check recomputes the stored sum over the same values in the same order, so exact equality is the invariant
	if sum != n.sum {
		return 0, 0, fmt.Errorf("btree: internal sum %v != stored %v", sum, n.sum)
	}
	return sum, count, nil
}
