package mversion

import (
	"fmt"
	"sort"
)

// Array is a fat-node multiversion array: each cell keeps a list of
// (version, value) pairs, so any cell of any version is readable in
// O(log v) where v is the number of versions of that cell. Updates to
// the current version cost amortised O(1).
//
// Section 4 of the paper observes that no multiversion array offers
// constant-time access to every version — the logarithmic fat-node
// cost here is exactly the overhead the Section 3 cache construction
// avoids; the ablation benchmarks quantify it.
type Array struct {
	cells [][]cellVersion
	cur   int
}

type cellVersion struct {
	ver int
	val float64
}

// NewArray returns a multiversion array of the given size, at version
// 0, with all cells zero in every version.
func NewArray(size int) *Array {
	return &Array{cells: make([][]cellVersion, size)}
}

// Size returns the number of cells.
func (a *Array) Size() int { return len(a.cells) }

// Version returns the current version number.
func (a *Array) Version() int { return a.cur }

// NewVersion freezes the current state and returns the new current
// version number. Cells not written afterwards keep their old value.
func (a *Array) NewVersion() int {
	a.cur++
	return a.cur
}

// Set writes val to cell i in the current version.
func (a *Array) Set(i int, val float64) {
	vs := a.cells[i]
	if n := len(vs); n > 0 && vs[n-1].ver == a.cur {
		vs[n-1].val = val
		return
	}
	a.cells[i] = append(vs, cellVersion{ver: a.cur, val: val})
}

// Add adds delta to cell i in the current version.
func (a *Array) Add(i int, delta float64) {
	a.Set(i, a.Get(a.cur, i)+delta)
}

// Get reads cell i as of version ver. Versions beyond the current are
// rejected.
func (a *Array) Get(ver, i int) float64 {
	if ver > a.cur || ver < 0 {
		panic(fmt.Sprintf("mversion: version %d out of range [0, %d]", ver, a.cur))
	}
	vs := a.cells[i]
	// Find the last version <= ver.
	idx := sort.Search(len(vs), func(k int) bool { return vs[k].ver > ver }) - 1
	if idx < 0 {
		return 0
	}
	return vs[idx].val
}

// Versions returns the number of stored versions of cell i (its fat
// node length) — the space metric of the fat-node method.
func (a *Array) Versions(i int) int { return len(a.cells[i]) }
