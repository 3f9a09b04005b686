// Package dims provides the dimension and index algebra shared by all
// array-based aggregation techniques in histcube: mixed-radix
// linearisation of multidimensional cell coordinates, iteration over
// hyper-rectangular boxes, and validation helpers.
//
// Every MOLAP structure in this repository (prefix-sum arrays, DDC
// arrays, eCubes, the append-only cube) stores a d-dimensional array in
// a single flat slice in row-major order; this package is the single
// source of truth for how coordinates map to flat offsets.
package dims

import (
	"errors"
	"fmt"
	"math"
)

// Shape describes the domain sizes of a d-dimensional array. Shape[i]
// is the number of distinct coordinate values in dimension i; all
// coordinates are dense integers in [0, Shape[i]).
type Shape []int

// ErrEmptyShape is returned when a Shape with zero dimensions is used
// where at least one dimension is required.
var ErrEmptyShape = errors.New("dims: shape must have at least one dimension")

// Validate returns an error if the shape has no dimensions, any
// non-positive domain size, or more cells than an int can count.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return ErrEmptyShape
	}
	size := 1
	for i, n := range s {
		if n <= 0 {
			return fmt.Errorf("dims: dimension %d has non-positive size %d", i, n)
		}
		if size > math.MaxInt/n {
			return fmt.Errorf("dims: shape %v has more cells than an int can count", s)
		}
		size *= n
	}
	return nil
}

// Size returns the total number of cells, i.e. the product of all
// domain sizes. An empty shape has size 0.
func (s Shape) Size() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions.
func (s Shape) Dims() int { return len(s) }

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Drop returns the shape with dimension i removed. It is used to
// obtain the geometry of a (d-1)-dimensional time slice from a
// d-dimensional cube whose dimension i is the TT-dimension.
func (s Shape) Drop(i int) Shape {
	c := make(Shape, 0, len(s)-1)
	c = append(c, s[:i]...)
	c = append(c, s[i+1:]...)
	return c
}

// Contains reports whether the coordinate vector x is inside the
// shape's bounds. It returns false when the arity differs.
func (s Shape) Contains(x []int) bool {
	if len(x) != len(s) {
		return false
	}
	for i, v := range x {
		if v < 0 || v >= s[i] {
			return false
		}
	}
	return true
}

// Strides returns the row-major strides of the shape: the flat offset
// of coordinate x is sum_i x[i]*strides[i], with the last dimension
// varying fastest.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// Flatten converts the coordinate vector x to its row-major flat
// offset. It panics if x is out of bounds; use Contains first when the
// input is untrusted.
func (s Shape) Flatten(x []int) int {
	if len(x) != len(s) {
		panic(fmt.Sprintf("dims: coordinate arity %d does not match shape arity %d", len(x), len(s)))
	}
	off := 0
	for i, v := range x {
		if v < 0 || v >= s[i] {
			panic(fmt.Sprintf("dims: coordinate %d out of range [0,%d) in dimension %d", v, s[i], i))
		}
		off = off*s[i] + v
	}
	return off
}

// Unflatten converts a row-major flat offset back into a coordinate
// vector, writing into dst (which must have length len(s)) and
// returning it. If dst is nil a fresh vector is allocated.
func (s Shape) Unflatten(off int, dst []int) []int {
	if dst == nil {
		dst = make([]int, len(s))
	}
	if len(dst) != len(s) {
		panic("dims: dst arity does not match shape arity")
	}
	for i := len(s) - 1; i >= 0; i-- {
		dst[i] = off % s[i]
		off /= s[i]
	}
	return dst
}

// Box is a closed hyper-rectangle: it selects all coordinates x with
// Lo[i] <= x[i] <= Hi[i] in every dimension i, matching the paper's
// range-query semantics (boundaries included).
type Box struct {
	Lo, Hi []int
}

// NewBox copies lo and hi into a Box.
func NewBox(lo, hi []int) Box {
	b := Box{Lo: make([]int, len(lo)), Hi: make([]int, len(hi))}
	copy(b.Lo, lo)
	copy(b.Hi, hi)
	return b
}

// FullBox returns the box selecting the entire domain of shape s.
func FullBox(s Shape) Box {
	b := Box{Lo: make([]int, len(s)), Hi: make([]int, len(s))}
	for i, n := range s {
		b.Hi[i] = n - 1
	}
	return b
}

// Validate checks that the box has the same arity as the shape, lies
// within bounds and is non-inverted in every dimension.
func (b Box) Validate(s Shape) error {
	if len(b.Lo) != len(s) || len(b.Hi) != len(s) {
		return fmt.Errorf("dims: box arity (%d,%d) does not match shape arity %d", len(b.Lo), len(b.Hi), len(s))
	}
	for i := range s {
		if b.Lo[i] < 0 || b.Hi[i] >= s[i] {
			return fmt.Errorf("dims: box [%d,%d] out of domain [0,%d) in dimension %d", b.Lo[i], b.Hi[i], s[i], i)
		}
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("dims: box inverted in dimension %d: lo %d > hi %d", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// Size returns the number of cells the box selects.
func (b Box) Size() int {
	n := 1
	for i := range b.Lo {
		n *= b.Hi[i] - b.Lo[i] + 1
	}
	return n
}

// Contains reports whether coordinate x lies inside the box.
func (b Box) Contains(x []int) bool {
	if len(x) != len(b.Lo) {
		return false
	}
	for i, v := range x {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the box.
func (b Box) Clone() Box { return NewBox(b.Lo, b.Hi) }

// String renders the box as [lo..hi] per dimension.
func (b Box) String() string {
	out := "{"
	for i := range b.Lo {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("[%d..%d]", b.Lo[i], b.Hi[i])
	}
	return out + "}"
}

// Iter calls fn with every coordinate vector inside the box, in
// row-major order. The slice passed to fn is reused between calls; fn
// must copy it if it needs to retain it.
func (b Box) Iter(fn func(x []int)) {
	d := len(b.Lo)
	if d == 0 {
		return
	}
	x := make([]int, d)
	copy(x, b.Lo)
	for {
		fn(x)
		i := d - 1
		for i >= 0 {
			x[i]++
			if x[i] <= b.Hi[i] {
				break
			}
			x[i] = b.Lo[i]
			i--
		}
		if i < 0 {
			return
		}
	}
}

// CrossProduct enumerates the cross product of per-dimension index
// sets, calling fn with each combination. The combination slice is
// reused between calls. It is the combination step of Section 3.1 of
// the paper: per-dimension pre-aggregation index sets are combined by
// generating the cross product over all result sets.
func CrossProduct(sets [][]int, fn func(combo []int)) {
	d := len(sets)
	if d == 0 {
		return
	}
	for _, s := range sets {
		if len(s) == 0 {
			return
		}
	}
	idx := make([]int, d)
	combo := make([]int, d)
	for {
		for i := range combo {
			combo[i] = sets[i][idx[i]]
		}
		fn(combo)
		i := d - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(sets[i]) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// ToCoord narrows an int64 (the type coordinates travel as on the
// wire, in WAL records and in workload streams) to an in-memory cell
// coordinate. Coordinates are bounded to int32 range — every real
// dimension is far smaller — so the explicit check keeps a plain
// int(...) conversion from silently truncating, and possibly wrapping
// back into the valid domain, on 32-bit platforms.
func ToCoord(v int64) (int, bool) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	return int(v), true
}
