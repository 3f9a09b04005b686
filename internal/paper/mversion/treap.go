// Package mversion provides the multiversion substrate discussed in
// Section 4 of the paper as the alternative instantiation of the
// framework for sparse data: Treap, a partially persistent
// (path-copying) balanced search tree with subtree aggregates, in the
// spirit of the Driscoll/Sarnak/Sleator/Tarjan construction — every
// update yields a new version in O(log n) time and space, and every
// old version remains queryable at single-version cost times a
// constant.
//
// Reproduction only — not importable from the serving path (histlint
// `importfence`).
package mversion

// Treap is an immutable handle to a persistent treap over int64 keys
// with float64 measures and subtree sums. The zero value is the empty
// tree. All operations return new handles; old handles stay valid and
// queryable — the multiversion property.
type Treap struct {
	root *tnode
}

type tnode struct {
	key         int64
	prio        uint64
	val         float64
	sum         float64
	left, right *tnode
}

// splitmix64 derives a deterministic pseudo-random priority from the
// key, keeping the structure reproducible without a PRNG dependency.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (n *tnode) recompute() {
	n.sum = n.val
	if n.left != nil {
		n.sum += n.left.sum
	}
	if n.right != nil {
		n.sum += n.right.sum
	}
}

// Add returns a new version with delta added to key's measure
// (inserting the key if absent). The receiver is unchanged.
func (t Treap) Add(key int64, delta float64) Treap {
	return Treap{root: add(t.root, key, delta)}
}

func add(n *tnode, key int64, delta float64) *tnode {
	if n == nil {
		nn := &tnode{key: key, prio: splitmix64(uint64(key)), val: delta}
		nn.recompute()
		return nn
	}
	c := *n // path copy
	switch {
	case key == n.key:
		c.val += delta
	case key < n.key:
		c.left = add(n.left, key, delta)
		if c.left.prio > c.prio {
			return rotateRight(&c)
		}
	default:
		c.right = add(n.right, key, delta)
		if c.right.prio > c.prio {
			return rotateLeft(&c)
		}
	}
	c.recompute()
	return &c
}

// rotateRight lifts c.left above c; both nodes are fresh copies.
func rotateRight(c *tnode) *tnode {
	l := *c.left
	c.left = l.right
	c.recompute()
	l.right = c
	l.recompute()
	return &l
}

// rotateLeft lifts c.right above c.
func rotateLeft(c *tnode) *tnode {
	r := *c.right
	c.right = r.left
	c.recompute()
	r.left = c
	r.recompute()
	return &r
}

// RangeSum returns the sum of measures over keys in [lo, hi] for this
// version, in O(log n).
func (t Treap) RangeSum(lo, hi int64) float64 {
	if lo > hi {
		return 0
	}
	return rangeSum(t.root, lo, hi)
}

func rangeSum(n *tnode, lo, hi int64) float64 {
	if n == nil {
		return 0
	}
	if n.key < lo {
		return rangeSum(n.right, lo, hi)
	}
	if n.key > hi {
		return rangeSum(n.left, lo, hi)
	}
	// n.key inside [lo, hi]: left subtree clipped below, right above.
	total := n.val
	total += suffixSum(n.left, lo)
	total += prefixSum(n.right, hi)
	return total
}

// suffixSum sums keys >= lo.
func suffixSum(n *tnode, lo int64) float64 {
	total := 0.0
	for n != nil {
		if n.key >= lo {
			total += n.val
			if n.right != nil {
				total += n.right.sum
			}
			n = n.left
		} else {
			n = n.right
		}
	}
	return total
}

// prefixSum sums keys <= hi.
func prefixSum(n *tnode, hi int64) float64 {
	total := 0.0
	for n != nil {
		if n.key <= hi {
			total += n.val
			if n.left != nil {
				total += n.left.sum
			}
			n = n.right
		} else {
			n = n.left
		}
	}
	return total
}

func ascend(n *tnode, fn func(int64, float64) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.val) {
		return false
	}
	return ascend(n.right, fn)
}
