// Package mvbt implements a multiversion B-tree in the style of
// Becker, Gschwind, Ohler, Seeger and Widmayer (VLDB Journal 1996),
// the structure Section 4 of the paper cites as the asymptotically
// optimal external-memory multiversion index, augmented with per-entry
// measure values so that range-sum queries against any version are
// supported — the addition that turns it into the multiversion SB-tree
// of Zhang et al. (PODS 2001), which the paper identifies as an
// instance of its framework for two-dimensional append-only data.
//
// The tree is partially persistent: every update (Insert or Delete)
// creates a new version; any older version remains queryable. Entries
// carry a [start, end) version interval; a node overflowing its
// capacity is version-split (its live entries are copied into a fresh
// node and the old node is frozen), followed by a key split when the
// copy is too full or a merge with a version-split sibling when too
// empty — the weak version condition that keeps every node's live
// entry count bounded for the versions it is responsible for.
//
// Reproduction only — not importable from the serving path (histlint
// `importfence`).
package mvbt

import (
	"fmt"
	"math"
)

const infinity = math.MaxInt64

// Config tunes node geometry.
type Config struct {
	// Capacity is the maximum number of physical entries per node
	// (block capacity b). Minimum 8; default 16.
	Capacity int
}

// Tree is the multiversion B-tree.
type Tree struct {
	cap      int
	minLive  int // weak version condition: live entries >= minLive (non-root)
	strongLo int // after restructuring: live in [strongLo, strongHi]
	strongHi int

	version int64
	roots   []rootRef // roots by version interval, ascending start
	size    int       // live keys in the current version
}

type rootRef struct {
	start int64
	node  *node
}

type entry struct {
	key        int64
	start, end int64 // version interval [start, end)
	value      float64
	child      *node // internal entries only
}

type node struct {
	leaf    bool
	entries []entry
}

// New returns an empty tree at version 0.
func New(cfg Config) (*Tree, error) {
	c := cfg.Capacity
	if c == 0 {
		c = 16
	}
	if c < 8 {
		return nil, fmt.Errorf("mvbt: capacity %d too small (need >= 8)", c)
	}
	t := &Tree{
		cap:      c,
		minLive:  c / 5,
		strongLo: c/5 + c/8 + 1,
		strongHi: c - c/8 - 1,
	}
	root := &node{leaf: true}
	t.roots = []rootRef{{start: 0, node: root}}
	return t, nil
}

// Version returns the current version number.
func (t *Tree) Version() int64 { return t.version }

// Len returns the number of live keys in the current version.
func (t *Tree) Len() int { return t.size }

func (t *Tree) rootAt(ver int64) *node {
	// Binary search the last root with start <= ver.
	lo, hi := 0, len(t.roots)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.roots[mid].start <= ver {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return t.roots[lo-1].node
}

func (t *Tree) setRoot(n *node) {
	if t.roots[len(t.roots)-1].start == t.version {
		t.roots[len(t.roots)-1].node = n
		return
	}
	t.roots = append(t.roots, rootRef{start: t.version, node: n})
}

// liveCount returns the number of entries alive at the current
// version.
func (n *node) liveCount() int {
	c := 0
	for _, e := range n.entries {
		if e.end == infinity {
			c++
		}
	}
	return c
}

// liveEntries returns copies of the entries alive at the current
// version.
func (n *node) liveEntries() []entry {
	out := make([]entry, 0, len(n.entries))
	for _, e := range n.entries {
		if e.end == infinity {
			out = append(out, e)
		}
	}
	return out
}

// findLive returns the index of the live entry with the given key, or
// -1.
func (n *node) findLive(key int64) int {
	for i, e := range n.entries {
		if e.end == infinity && e.key == key {
			return i
		}
	}
	return -1
}

// childFor returns the index of the live internal entry responsible
// for key: the live entry with the greatest router key <= key, or the
// smallest router if key precedes all of them.
func (n *node) childFor(key int64) int {
	best := -1
	var bestKey int64
	first := -1
	var firstKey int64
	for i, e := range n.entries {
		if e.end != infinity {
			continue
		}
		if first == -1 || e.key < firstKey {
			first, firstKey = i, e.key
		}
		if e.key <= key && (best == -1 || e.key > bestKey) {
			best, bestKey = i, e.key
		}
	}
	if best >= 0 {
		return best
	}
	return first
}

// Insert adds key with the given measure value to a new version. It
// returns an error if the key is already live (use Add for
// accumulate semantics).
func (t *Tree) Insert(key int64, value float64) error {
	return t.update(key, value, true)
}

// Delete logically deletes the live key in a new version; the key
// remains visible in all earlier versions.
func (t *Tree) Delete(key int64) error {
	return t.update(key, 0, false)
}

func (t *Tree) update(key int64, value float64, insert bool) error {
	t.version++
	root := t.roots[len(t.roots)-1].node
	res, err := t.updateRec(root, key, value, insert)
	if err != nil {
		t.version--
		return err
	}
	switch {
	case res.replacement != nil:
		t.setRoot(res.replacement)
	case len(res.siblings) > 0:
		// Root split: grow a new root over the pieces.
		kids := res.siblings
		nr := &node{}
		for _, k := range kids {
			nr.entries = append(nr.entries, entry{
				key:   k.minLiveKey(),
				start: t.version,
				end:   infinity,
				child: k,
			})
		}
		t.setRoot(nr)
	}
	// Collapse a root with a single live child (after deletions).
	t.collapseRoot()
	if insert {
		t.size++
	} else {
		t.size--
	}
	return nil
}

func (t *Tree) collapseRoot() {
	for {
		root := t.roots[len(t.roots)-1].node
		if root.leaf {
			return
		}
		live := root.liveEntries()
		if len(live) != 1 {
			return
		}
		t.setRoot(live[0].child)
	}
}

func (n *node) minLiveKey() int64 {
	first := true
	var m int64
	for _, e := range n.entries {
		if e.end != infinity {
			continue
		}
		if first || e.key < m {
			m = e.key
			first = false
		}
	}
	return m
}

// updateResult describes how a child changed: in place (nil, nil), by
// replacement (version split that fit into one node), or by splitting
// into multiple siblings.
type updateResult struct {
	replacement *node
	siblings    []*node
}

func (t *Tree) updateRec(n *node, key int64, value float64, insert bool) (updateResult, error) {
	if n.leaf {
		if insert {
			if n.findLive(key) >= 0 {
				return updateResult{}, fmt.Errorf("mvbt: key %d already live; Delete it first or use Add", key)
			}
			work, copied := t.withRoom(n, 1)
			work.entries = append(work.entries, entry{key: key, start: t.version, end: infinity, value: value})
			return t.finish(work, copied), nil
		}
		i := n.findLive(key)
		if i < 0 {
			return updateResult{}, fmt.Errorf("mvbt: key %d not live", key)
		}
		if n.entries[i].start == t.version {
			// Inserted at this same version: drop it physically.
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
		} else {
			n.entries[i].end = t.version
		}
		return updateResult{}, nil
	}

	ci := n.childFor(key)
	if ci < 0 {
		return updateResult{}, fmt.Errorf("mvbt: internal node has no live children")
	}
	child := n.entries[ci].child
	res, err := t.updateRec(child, key, value, insert)
	if err != nil {
		return updateResult{}, err
	}
	if res.replacement == nil && len(res.siblings) == 0 {
		return updateResult{}, nil
	}
	install := res.siblings
	if res.replacement != nil {
		install = []*node{res.replacement}
	}
	// Net growth: new child entries minus the killed one when the kill
	// physically removes it (same-version entries are dropped, older
	// ones only get their interval closed).
	need := len(install)
	if n.entries[ci].start == t.version {
		need--
	}
	oldRouter := n.entries[ci].key
	work, copied := t.withRoom(n, need)
	// Locate and kill the old child entry in the working node.
	wi := -1
	for i, e := range work.entries {
		if e.child == child && e.end == infinity {
			wi = i
			break
		}
	}
	if wi < 0 {
		return updateResult{}, fmt.Errorf("mvbt: lost child entry during version split")
	}
	if work.entries[wi].start == t.version {
		work.entries = append(work.entries[:wi], work.entries[wi+1:]...)
	} else {
		work.entries[wi].end = t.version
	}
	for j, k := range install {
		router := k.minLiveKey()
		if j == 0 && oldRouter < router {
			// Routers are coverage lower bounds, not minimum keys: the
			// leftmost replacement must keep covering everything the
			// killed entry covered, or live keys below the copy's
			// current minimum (still present in the subtree) become
			// unreachable.
			router = oldRouter
		}
		work.entries = append(work.entries, entry{
			key:   router,
			start: t.version,
			end:   infinity,
			child: k,
		})
	}
	return t.finish(work, copied), nil
}

// withRoom returns a node that can absorb `need` more physical entries
// without exceeding the block capacity: the node itself when it fits,
// or a fresh version-split copy of its live entries. The old node's
// live entries are closed at the current version (it is frozen; the
// parent will redirect to the copy).
func (t *Tree) withRoom(n *node, need int) (*node, bool) {
	if len(n.entries)+need <= t.cap {
		return n, false
	}
	fresh := &node{leaf: n.leaf}
	for i := range n.entries {
		if n.entries[i].end != infinity {
			continue
		}
		e := n.entries[i]
		e.start = t.version
		fresh.entries = append(fresh.entries, e)
		n.entries[i].end = t.version
	}
	sortEntriesByKey(fresh.entries)
	return fresh, true
}

// finish applies the strong version condition to a fresh version-split
// node: a strongly overfull copy is key-split into two siblings. Weak
// live underflow is tolerated (nodes with few live entries remain
// valid; the single-live-child root collapse removes degenerate
// levels), trading part of Becker et al.'s space bound for simpler
// restructuring — documented in DESIGN.md.
func (t *Tree) finish(work *node, copied bool) updateResult {
	if !copied {
		return updateResult{}
	}
	sortEntriesByKey(work.entries)
	if len(work.entries) <= t.strongHi {
		return updateResult{replacement: work}
	}
	mid := len(work.entries) / 2
	left := &node{leaf: work.leaf, entries: append([]entry(nil), work.entries[:mid]...)}
	right := &node{leaf: work.leaf, entries: append([]entry(nil), work.entries[mid:]...)}
	return updateResult{siblings: []*node{left, right}}
}

func sortEntriesByKey(es []entry) {
	// Insertion sort: nodes are small (<= capacity).
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].key < es[j-1].key; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Add gives accumulate semantics on top of Insert/Delete: if the key
// is live, its value is replaced by old+delta in a new version
// (delete + insert, two versions); otherwise the key is inserted with
// value delta.
func (t *Tree) Add(key int64, delta float64) error {
	if v, ok := t.Get(t.version, key); ok {
		if err := t.Delete(key); err != nil {
			return err
		}
		return t.Insert(key, v+delta)
	}
	return t.Insert(key, delta)
}

// Get returns the value of key as of version ver.
func (t *Tree) Get(ver int64, key int64) (float64, bool) {
	if ver < 0 || ver > t.version {
		return 0, false
	}
	n := t.rootAt(ver)
	for n != nil && !n.leaf {
		n = n.childAt(ver, key)
	}
	if n == nil {
		return 0, false
	}
	for _, e := range n.entries {
		if e.key == key && e.start <= ver && ver < e.end {
			return e.value, true
		}
	}
	return 0, false
}

// childAt returns the child responsible for key at version ver.
func (n *node) childAt(ver, key int64) *node {
	var best *node
	var bestKey int64
	var first *node
	var firstKey int64
	for _, e := range n.entries {
		if e.start > ver || ver >= e.end {
			continue
		}
		if first == nil || e.key < firstKey {
			first, firstKey = e.child, e.key
		}
		if e.key <= key && (best == nil || e.key > bestKey) {
			best, bestKey = e.child, e.key
		}
	}
	if best != nil {
		return best
	}
	return first
}

// RangeSum returns the sum of the values of all keys in [lo, hi] as of
// version ver.
func (t *Tree) RangeSum(ver, lo, hi int64) float64 {
	if ver < 0 || ver > t.version || lo > hi {
		return 0
	}
	n := t.rootAt(ver)
	if n == nil {
		return 0
	}
	return t.rangeSumRec(n, ver, lo, hi)
}

func (t *Tree) rangeSumRec(n *node, ver, lo, hi int64) float64 {
	if n.leaf {
		total := 0.0
		for _, e := range n.entries {
			if e.start <= ver && ver < e.end && e.key >= lo && e.key <= hi {
				total += e.value
			}
		}
		return total
	}
	// Visit children alive at ver whose key range can intersect
	// [lo, hi]: a child covers [router, nextRouter).
	type kid struct {
		key   int64
		child *node
	}
	var kids []kid
	for _, e := range n.entries {
		if e.start <= ver && ver < e.end {
			kids = append(kids, kid{key: e.key, child: e.child})
		}
	}
	// Sort by router key.
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0 && kids[j].key < kids[j-1].key; j-- {
			kids[j], kids[j-1] = kids[j-1], kids[j]
		}
	}
	total := 0.0
	for i, k := range kids {
		next := int64(math.MaxInt64)
		if i+1 < len(kids) {
			next = kids[i+1].key
		}
		// Child i covers keys in [k.key, next) — except the first,
		// which also covers anything below its router.
		cLo := k.key
		if i == 0 {
			cLo = math.MinInt64
		}
		if cLo > hi || next <= lo && next != int64(math.MaxInt64) {
			if cLo > hi {
				break
			}
			continue
		}
		total += t.rangeSumRec(k.child, ver, lo, hi)
	}
	return total
}

// Ascend calls fn for each live (key, value) at version ver in
// ascending key order; fn returning false stops the walk.
func (t *Tree) Ascend(ver int64, fn func(key int64, value float64) bool) {
	n := t.rootAt(ver)
	if n == nil {
		return
	}
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n.leaf {
			es := make([]entry, 0, len(n.entries))
			for _, e := range n.entries {
				if e.start <= ver && ver < e.end {
					es = append(es, e)
				}
			}
			sortEntriesByKey(es)
			for _, e := range es {
				if !fn(e.key, e.value) {
					return false
				}
			}
			return true
		}
		type kid struct {
			key   int64
			child *node
		}
		var kids []kid
		for _, e := range n.entries {
			if e.start <= ver && ver < e.end {
				kids = append(kids, kid{e.key, e.child})
			}
		}
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && kids[j].key < kids[j-1].key; j-- {
				kids[j], kids[j-1] = kids[j-1], kids[j]
			}
		}
		for _, k := range kids {
			if !walk(k.child) {
				return false
			}
		}
		return true
	}
	walk(n)
}

// CheckInvariants verifies structural sanity for every version
// sampled: version intervals well-formed, capacities respected, and
// leaf reachability consistent. Heavy; intended for tests.
func (t *Tree) CheckInvariants() error {
	seen := map[*node]bool{}
	var walk func(n *node) error
	walk = func(n *node) error {
		if seen[n] {
			return nil
		}
		seen[n] = true
		if len(n.entries) > t.cap {
			return fmt.Errorf("mvbt: node with %d entries exceeds capacity %d", len(n.entries), t.cap)
		}
		for _, e := range n.entries {
			if e.end != infinity && e.end <= e.start {
				return fmt.Errorf("mvbt: entry with empty version interval [%d,%d)", e.start, e.end)
			}
			if e.start > t.version {
				return fmt.Errorf("mvbt: entry starts at future version %d", e.start)
			}
			if !n.leaf {
				if e.child == nil {
					return fmt.Errorf("mvbt: internal entry without child")
				}
				if err := walk(e.child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, r := range t.roots {
		if err := walk(r.node); err != nil {
			return err
		}
	}
	return nil
}

// SpaceStats reports the multiversion storage profile: Nodes reachable
// from any root, physical Entries across them, and Live entries in the
// current version. The Becker et al. analysis promises space linear in
// the number of updates; tests pin Entries/updates to a small constant.
type SpaceStats struct {
	Nodes   int
	Entries int
	Live    int
}

// Space computes SpaceStats by walking every root.
func (t *Tree) Space() SpaceStats {
	seen := map[*node]bool{}
	var st SpaceStats
	var walk func(n *node)
	walk = func(n *node) {
		if seen[n] {
			return
		}
		seen[n] = true
		st.Nodes++
		st.Entries += len(n.entries)
		for _, e := range n.entries {
			if !n.leaf {
				walk(e.child)
			} else if e.end == infinity {
				st.Live++
			}
		}
	}
	for _, r := range t.roots {
		walk(r.node)
	}
	return st
}
