package rstar

import (
	"fmt"

	"histcube/internal/dims"
)

// RangeScan sums the measures of all entries inside the closed box by
// visiting every intersecting leaf — the paper's Figure 14 cost
// accounting: LeafReads counts leaf accesses; internal nodes are
// assumed resident (NodeReads counts them separately).
func (t *Tree) RangeScan(b dims.Box) (float64, error) {
	r, err := t.boxRect(b)
	if err != nil {
		return 0, err
	}
	return t.scan(t.root, r), nil
}

func (t *Tree) scan(n *node, r rect) float64 {
	t.NodeReads++
	if n.leaf {
		t.LeafReads++
		total := 0.0
		for _, e := range n.entries {
			if r.containsPoint(e.Coords) {
				total += e.Value
			}
		}
		return total
	}
	total := 0.0
	for _, c := range n.children {
		if r.intersects(c.mbr) {
			total += t.scan(c, r)
		}
	}
	return total
}

// RangeAggregate sums the measures over the closed box using the
// aggregate augmentation: subtrees fully contained in the box
// contribute their stored sum without descending.
func (t *Tree) RangeAggregate(b dims.Box) (float64, error) {
	r, err := t.boxRect(b)
	if err != nil {
		return 0, err
	}
	return t.aggregate(t.root, r), nil
}

func (t *Tree) aggregate(n *node, r rect) float64 {
	t.NodeReads++
	if n.mbr.lo != nil && r.containsRect(n.mbr) {
		return n.sum
	}
	if n.leaf {
		t.LeafReads++
		total := 0.0
		for _, e := range n.entries {
			if r.containsPoint(e.Coords) {
				total += e.Value
			}
		}
		return total
	}
	total := 0.0
	for _, c := range n.children {
		if r.intersects(c.mbr) {
			total += t.aggregate(c, r)
		}
	}
	return total
}

func (t *Tree) boxRect(b dims.Box) (rect, error) {
	if len(b.Lo) != t.dim || len(b.Hi) != t.dim {
		return rect{}, fmt.Errorf("rstar: box arity (%d,%d) does not match tree dim %d", len(b.Lo), len(b.Hi), t.dim)
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return rect{}, fmt.Errorf("rstar: box inverted in dimension %d", i)
		}
	}
	return rect{lo: b.Lo, hi: b.Hi}, nil
}

// Walk calls fn for every entry (order unspecified); fn returning
// false stops the walk.
func (t *Tree) Walk(fn func(Entry) bool) {
	t.root.walk(fn)
}

func (n *node) walk(fn func(Entry) bool) bool {
	if n.leaf {
		for _, e := range n.entries {
			if !fn(e) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.walk(fn) {
			return false
		}
	}
	return true
}

// CheckInvariants validates MBR containment, aggregate sums, fanout
// bounds and uniform leaf depth.
//
//histlint:ignore deadexport invariant checker; rstar_test.go runs it after every insert sequence
func (t *Tree) CheckInvariants() error {
	sum, count, depth, err := t.root.check(t.max, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rstar: size %d but counted %d entries", t.size, count)
	}
	if depth != t.height {
		return fmt.Errorf("rstar: height %d but leaf depth %d", t.height, depth)
	}
	if t.size > 0 && !feq(sum, t.root.sum) {
		return fmt.Errorf("rstar: root sum %v but computed %v", t.root.sum, sum)
	}
	return nil
}

func feq(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

func (n *node) check(max int, isRoot bool) (float64, int, int, error) {
	if n.fanout() > max {
		return 0, 0, 0, fmt.Errorf("rstar: node fanout %d exceeds max %d", n.fanout(), max)
	}
	if n.leaf {
		sum := 0.0
		for _, e := range n.entries {
			if !n.mbr.containsPoint(e.Coords) && len(n.entries) > 0 {
				return 0, 0, 0, fmt.Errorf("rstar: leaf MBR misses entry %v", e.Coords)
			}
			sum += e.Value
		}
		if !feq(sum, n.sum) {
			return 0, 0, 0, fmt.Errorf("rstar: leaf sum %v != stored %v", sum, n.sum)
		}
		if n.count != len(n.entries) {
			return 0, 0, 0, fmt.Errorf("rstar: leaf count %d != %d entries", n.count, len(n.entries))
		}
		return sum, len(n.entries), 1, nil
	}
	sum := 0.0
	count := 0
	depth := -1
	for _, c := range n.children {
		if !n.mbr.containsRect(c.mbr) {
			return 0, 0, 0, fmt.Errorf("rstar: child MBR escapes parent")
		}
		s, cn, d, err := c.check(max, false)
		if err != nil {
			return 0, 0, 0, err
		}
		sum += s
		count += cn
		if depth == -1 {
			depth = d
		} else if depth != d {
			return 0, 0, 0, fmt.Errorf("rstar: uneven leaf depth")
		}
	}
	if !feq(sum, n.sum) || count != n.count {
		return 0, 0, 0, fmt.Errorf("rstar: internal aggregate mismatch: sum %v/%v count %d/%d", sum, n.sum, count, n.count)
	}
	return sum, count, depth + 1, nil
}
