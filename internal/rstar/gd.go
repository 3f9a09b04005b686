package rstar

import (
	"fmt"

	"histcube/internal/dims"
)

// Gd is the general d-dimensional structure G_d of Section 2.5 that
// buffers out-of-order updates, on an R*-tree: indexed queries instead
// of the linear scan of the baseline list buffer. The time coordinate
// is stored as dimension 0.
type Gd struct {
	t *Tree
}

// NewGd returns an empty R*-tree-backed out-of-order buffer for
// updates with pointDims non-time coordinates.
func NewGd(pointDims int) (*Gd, error) {
	t, err := New(Config{Dim: pointDims + 1})
	if err != nil {
		return nil, err
	}
	return &Gd{t: t}, nil
}

// Insert buffers the d-dimensional point (t, x) with measure delta.
func (g *Gd) Insert(t int64, x []int, delta float64) {
	coords := make([]int, 0, len(x)+1)
	coords = append(coords, clampToInt(t))
	coords = append(coords, x...)
	if err := g.t.Insert(Entry{Coords: coords, Value: delta}); err != nil {
		panic(fmt.Sprintf("rstar: Gd insert: %v", err))
	}
}

// Query aggregates buffered updates over the time range and box. An
// empty buffer answers 0 at once, without checking the box: an
// out-of-order cube asks it on every query, and the cube has checked
// the box already.
func (g *Gd) Query(tLo, tHi int64, b dims.Box) (float64, error) {
	if g.Len() == 0 {
		return 0, nil
	}
	lo := make([]int, 0, len(b.Lo)+1)
	hi := make([]int, 0, len(b.Hi)+1)
	lo = append(lo, clampToInt(tLo))
	hi = append(hi, clampToInt(tHi))
	lo = append(lo, b.Lo...)
	hi = append(hi, b.Hi...)
	return g.t.RangeAggregate(dims.Box{Lo: lo, Hi: hi})
}

func clampToInt(v int64) int {
	const maxInt = int64(^uint(0) >> 1)
	if v > maxInt {
		return int(maxInt)
	}
	if v < -maxInt-1 {
		return int(-maxInt - 1)
	}
	return int(v)
}

// Len returns the number of buffered updates.
func (g *Gd) Len() int { return g.t.Len() }

// Tree exposes the underlying R*-tree (for stats).
func (g *Gd) Tree() *Tree { return g.t }
