// Package rstar implements an R*-tree (Beckmann et al., SIGMOD 1990)
// over integer point data with measure values: ChooseSubtree with
// minimum overlap enlargement at the leaf level, forced reinsertion on
// first overflow, and the R* margin/overlap split. A
// Sort-Tile-Recursive bulk load produces the query-optimised packed
// tree the paper's Figure 14 compares against (the paper used the
// Berchtold et al. sort-based bulk load; STR yields equivalently
// packed leaves, and the figure's metric — leaf page accesses — only
// depends on leaf packing quality).
//
// Internal nodes optionally carry aggregate sums, enabling
// range-aggregate queries that skip fully covered subtrees; the plain
// leaf-scan mode reproduces the paper's cost accounting (leaf accesses
// only, internal nodes assumed cached).
package rstar

import (
	"fmt"
	"sort"
)

// Entry is one data point with a measure value.
type Entry struct {
	Coords []int
	Value  float64
}

// Config configures a Tree.
type Config struct {
	// Dim is the number of dimensions (required).
	Dim int
	// MaxEntries is the node capacity; 0 derives it from PageSize.
	MaxEntries int
	// PageSize derives MaxEntries when set: a leaf entry occupies
	// Dim*4+4 bytes (int32 coordinates, float32 measure), matching the
	// paper's 8K pages. Ignored when MaxEntries > 0.
	PageSize int
}

// The R* recommendations: a node holds at least minFill of its
// capacity, and the first overflow on a level force-reinserts
// reinsertFrac of its entries.
const (
	minFill      = 0.4
	reinsertFrac = 0.3
)

// Tree is the R*-tree.
type Tree struct {
	dim        int
	max, min   int
	reinsertN  int
	root       *node
	size       int
	height     int
	LeafReads  int64 // leaf accesses by queries (the Fig. 14 metric)
	NodeReads  int64 // all node accesses by queries
	reinserted map[int]bool
}

type node struct {
	leaf     bool
	mbr      rect
	entries  []Entry
	children []*node
	sum      float64
	count    int
}

// New returns an empty tree.
func New(cfg Config) (*Tree, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("rstar: Dim must be positive, got %d", cfg.Dim)
	}
	max := cfg.MaxEntries
	if max == 0 && cfg.PageSize > 0 {
		entry := cfg.Dim*4 + 4
		max = cfg.PageSize / entry
	}
	if max < 4 {
		if max != 0 {
			return nil, fmt.Errorf("rstar: capacity %d too small (need >= 4)", max)
		}
		max = 64
	}
	min := int(float64(max) * minFill)
	if min < 2 {
		min = 2
	}
	rn := int(float64(max) * reinsertFrac)
	if rn < 1 {
		rn = 1
	}
	return &Tree{
		dim:       cfg.Dim,
		max:       max,
		min:       min,
		reinsertN: rn,
		root:      &node{leaf: true},
		height:    1,
	}, nil
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// LeafCount returns the number of leaf nodes.
func (t *Tree) LeafCount() int { return t.root.leafCount() }

func (n *node) leafCount() int {
	if n.leaf {
		return 1
	}
	total := 0
	for _, c := range n.children {
		total += c.leafCount()
	}
	return total
}

// Insert adds an entry using the R* insertion algorithm.
func (t *Tree) Insert(e Entry) error {
	if len(e.Coords) != t.dim {
		return fmt.Errorf("rstar: entry has %d dims, tree has %d", len(e.Coords), t.dim)
	}
	e.Coords = append([]int(nil), e.Coords...)
	t.reinserted = make(map[int]bool)
	t.insertAtLevel(e, nil, 0)
	t.size++
	return nil
}

// insertAtLevel inserts either a data entry (subtree == nil) at leaf
// level or a subtree root at the given height-from-leaf level.
func (t *Tree) insertAtLevel(e Entry, subtree *node, level int) {
	r := entryRect(e, subtree)
	leafPath := make([]*node, 0, t.height)
	n := t.root
	depth := 0
	targetDepth := t.height - 1 - level
	for {
		leafPath = append(leafPath, n)
		if depth == targetDepth {
			break
		}
		n = n.chooseSubtree(r)
		depth++
	}
	if subtree == nil {
		n.entries = append(n.entries, e)
	} else {
		n.children = append(n.children, subtree)
	}
	// Fix MBRs/aggregates bottom-up and handle overflow.
	t.adjustPath(leafPath, r, e, subtree, level)
}

func entryRect(e Entry, subtree *node) rect {
	if subtree != nil {
		return subtree.mbr.clone()
	}
	return pointRect(e.Coords)
}

func (t *Tree) adjustPath(path []*node, r rect, e Entry, subtree *node, level int) {
	addSum := e.Value
	addCount := 1
	if subtree != nil {
		addSum = subtree.sum
		addCount = subtree.count
	}
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.count == 0 && len(n.entries)+len(n.children) == 1 {
			n.mbr = r.clone()
		} else {
			n.extendMBR(r)
		}
		n.sum += addSum
		n.count += addCount
		if n.fanout() > t.max {
			t.overflow(path, i, level)
			// overflow restructures ancestors; MBR/sum bookkeeping for
			// the remaining ancestors is recomputed inside.
			return
		}
	}
}

func (n *node) fanout() int {
	if n.leaf {
		return len(n.entries)
	}
	return len(n.children)
}

func (n *node) extendMBR(r rect) {
	if n.mbr.lo == nil {
		n.mbr = r.clone()
		return
	}
	n.mbr.extend(r)
}

// chooseSubtree picks the child to descend into: minimum overlap
// enlargement when the children are leaves, minimum area enlargement
// otherwise (ties: smaller area).
func (n *node) chooseSubtree(r rect) *node {
	childrenAreLeaves := len(n.children) > 0 && n.children[0].leaf
	var best *node
	bestOverlap, bestEnl, bestArea := 0.0, 0.0, 0.0
	for _, c := range n.children {
		enl := c.mbr.enlargement(r)
		area := c.mbr.area()
		var ov float64
		if childrenAreLeaves {
			ov = n.overlapEnlargement(c, r)
		}
		better := false
		switch {
		case best == nil:
			better = true
		//histlint:ignore nofloateq R* tie-break heuristic: a ulp difference only shifts which equally-good subtree wins, never correctness
		case childrenAreLeaves && ov != bestOverlap:
			better = ov < bestOverlap
		//histlint:ignore nofloateq R* tie-break heuristic: a ulp difference only shifts which equally-good subtree wins, never correctness
		case enl != bestEnl:
			better = enl < bestEnl
		default:
			better = area < bestArea
		}
		if better {
			best, bestOverlap, bestEnl, bestArea = c, ov, enl, area
		}
	}
	return best
}

// overlapEnlargement computes how much child c's overlap with its
// siblings grows if extended to cover r.
func (n *node) overlapEnlargement(c *node, r rect) float64 {
	grown := c.mbr.clone()
	grown.extend(r)
	before, after := 0.0, 0.0
	for _, s := range n.children {
		if s == c {
			continue
		}
		before += c.mbr.overlap(s.mbr)
		after += grown.overlap(s.mbr)
	}
	return after - before
}

// overflow handles an overflowing node at path[idx]: forced reinsert
// on the first overflow at its level during this insertion, split
// otherwise.
func (t *Tree) overflow(path []*node, idx int, level int) {
	nodeLevel := t.height - 1 - idx // height-from-leaf of path[idx]
	if idx > 0 && !t.reinserted[nodeLevel] {
		t.reinserted[nodeLevel] = true
		t.reinsert(path, idx, nodeLevel)
		return
	}
	t.split(path, idx)
}

// reinsert removes the reinsertN entries furthest from the node's MBR
// center and reinserts them from the top (R* forced reinsertion).
func (t *Tree) reinsert(path []*node, idx, nodeLevel int) {
	n := path[idx]
	type distItem struct {
		d       float64
		entry   Entry
		child   *node
		isChild bool
	}
	var items []distItem
	if n.leaf {
		for _, e := range n.entries {
			items = append(items, distItem{d: n.mbr.centerDist2(pointRect(e.Coords)), entry: e})
		}
	} else {
		for _, c := range n.children {
			items = append(items, distItem{d: n.mbr.centerDist2(c.mbr), child: c, isChild: true})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].d > items[j].d })
	removed := items[:t.reinsertN]
	kept := items[t.reinsertN:]
	if n.leaf {
		n.entries = n.entries[:0]
		for _, it := range kept {
			n.entries = append(n.entries, it.entry)
		}
	} else {
		n.children = n.children[:0]
		for _, it := range kept {
			n.children = append(n.children, it.child)
		}
	}
	n.recompute()
	for i := idx - 1; i >= 0; i-- {
		path[i].recomputeShallow()
	}
	for _, it := range removed {
		if it.isChild {
			t.insertAtLevel(Entry{}, it.child, nodeLevel)
		} else {
			t.insertAtLevel(it.entry, nil, 0)
		}
	}
}

// split performs the R* topological split on path[idx], pushing the
// new sibling into the parent (splitting upward as needed).
func (t *Tree) split(path []*node, idx int) {
	n := path[idx]
	sibling := t.splitNode(n)
	if idx == 0 {
		// Root split: grow the tree.
		newRoot := &node{children: []*node{n, sibling}}
		newRoot.recompute()
		t.root = newRoot
		t.height++
		return
	}
	parent := path[idx-1]
	parent.children = append(parent.children, sibling)
	for i := idx - 1; i >= 0; i-- {
		path[i].recomputeShallow()
		if path[i].fanout() > t.max {
			t.split(path, i)
			return
		}
	}
}

// splitNode divides n's contents per the R* axis/distribution choice
// and returns the new right sibling.
func (t *Tree) splitNode(n *node) *node {
	type item struct {
		r     rect
		entry Entry
		child *node
	}
	var items []item
	if n.leaf {
		for _, e := range n.entries {
			items = append(items, item{r: pointRect(e.Coords), entry: e})
		}
	} else {
		for _, c := range n.children {
			items = append(items, item{r: c.mbr, child: c})
		}
	}
	m := len(items)
	minK, maxK := t.min, m-t.min

	// Choose split axis: minimise the margin sum over all candidate
	// distributions of lower-then-upper sorted orders.
	bestAxis, bestMargin := -1, 0.0
	for axis := 0; axis < t.dim; axis++ {
		sort.SliceStable(items, func(i, j int) bool {
			if items[i].r.lo[axis] != items[j].r.lo[axis] {
				return items[i].r.lo[axis] < items[j].r.lo[axis]
			}
			return items[i].r.hi[axis] < items[j].r.hi[axis]
		})
		margin := 0.0
		for k := minK; k <= maxK; k++ {
			left := items[0].r.clone()
			for _, it := range items[1:k] {
				left.extend(it.r)
			}
			right := items[k].r.clone()
			for _, it := range items[k+1:] {
				right.extend(it.r)
			}
			margin += left.margin() + right.margin()
		}
		if bestAxis < 0 || margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	// Choose distribution on the best axis: minimum overlap, tie on
	// minimum combined area.
	axis := bestAxis
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].r.lo[axis] != items[j].r.lo[axis] {
			return items[i].r.lo[axis] < items[j].r.lo[axis]
		}
		return items[i].r.hi[axis] < items[j].r.hi[axis]
	})
	bestK, bestOverlap, bestArea := -1, 0.0, 0.0
	for k := minK; k <= maxK; k++ {
		left := items[0].r.clone()
		for _, it := range items[1:k] {
			left.extend(it.r)
		}
		right := items[k].r.clone()
		for _, it := range items[k+1:] {
			right.extend(it.r)
		}
		ov := left.overlap(right)
		area := left.area() + right.area()
		//histlint:ignore nofloateq split tie-break heuristic: exact equality only selects the secondary criterion, correctness is unaffected
		if bestK < 0 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}

	sibling := &node{leaf: n.leaf}
	if n.leaf {
		n.entries = n.entries[:0]
		for _, it := range items[:bestK] {
			n.entries = append(n.entries, it.entry)
		}
		for _, it := range items[bestK:] {
			sibling.entries = append(sibling.entries, it.entry)
		}
	} else {
		n.children = n.children[:0]
		for _, it := range items[:bestK] {
			n.children = append(n.children, it.child)
		}
		for _, it := range items[bestK:] {
			sibling.children = append(sibling.children, it.child)
		}
	}
	n.recompute()
	sibling.recompute()
	return sibling
}

// recompute rebuilds mbr/sum/count from direct contents.
func (n *node) recompute() {
	n.mbr = rect{}
	n.sum = 0
	n.count = 0
	if n.leaf {
		for _, e := range n.entries {
			n.extendMBR(pointRect(e.Coords))
			n.sum += e.Value
			n.count++
		}
		return
	}
	for _, c := range n.children {
		n.extendMBR(c.mbr)
		n.sum += c.sum
		n.count += c.count
	}
}

// recomputeShallow rebuilds mbr/sum/count assuming children are
// already correct (identical to recompute for internal nodes).
func (n *node) recomputeShallow() { n.recompute() }
