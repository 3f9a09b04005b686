// Package molap implements the multidimensional pre-aggregation
// machinery of Riedewald et al. (ICDT 2001) that Section 3.1 of the
// SIGMOD 2002 paper builds on: a one-dimensional pre-aggregation
// technique is chosen per dimension, applied to every one-dimensional
// vector along that dimension, and query/update index sets are
// combined across dimensions by cross product.
//
// The package provides the Technique interface, the identity (Raw)
// technique, and the generic pre-aggregated Array. Concrete techniques
// live in internal/prefix (Prefix Sum, PS) and internal/ddc (Dynamic
// Data Cube, DDC).
package molap

import (
	"fmt"

	"histcube/internal/dims"
)

// Term is one cell contribution to a range aggregate: the value stored
// at Index is multiplied by Factor (+1 or -1 for the techniques in
// this repository) and summed.
type Term struct {
	Index  int
	Factor float64
}

// Technique is a one-dimensional pre-aggregation scheme over vectors
// of length n. Implementations must be stateless: all methods are pure
// functions of (n, indices).
type Technique interface {
	// Name identifies the technique in diagnostics ("RAW", "PS", "DDC").
	Name() string
	// Aggregate transforms v in place from original values to
	// pre-aggregated values.
	Aggregate(v []float64)
	// Disaggregate is the inverse of Aggregate.
	Disaggregate(v []float64)
	// QueryTerms appends the terms for the range sum over [l, u]
	// (bounds included), with any cell that a naive P[u] - P[l-1]
	// combination would both add and subtract already cancelled.
	QueryTerms(dst []Term, n, l, u int) []Term
	// UpdateCells appends the indices of pre-aggregated cells whose
	// value changes by delta when original cell i changes by delta.
	UpdateCells(dst []int, n, i int) []int
}

// Raw is the identity technique: no pre-aggregation. Queries over a
// range of length r access r cells; updates access one cell.
type Raw struct{}

// Name implements Technique.
func (Raw) Name() string { return "RAW" }

// Aggregate implements Technique (identity).
func (Raw) Aggregate([]float64) {}

// Disaggregate implements Technique (identity).
func (Raw) Disaggregate([]float64) {}

// QueryTerms implements Technique: the range touches cells l..u.
func (Raw) QueryTerms(dst []Term, _ int, l, u int) []Term {
	for i := l; i <= u; i++ {
		dst = append(dst, Term{Index: i, Factor: 1})
	}
	return dst
}

// UpdateCells implements Technique: only cell i changes.
func (Raw) UpdateCells(dst []int, _ int, i int) []int {
	return append(dst, i)
}

// Array is a d-dimensional array whose cells hold values
// pre-aggregated with one Technique per dimension. It is the
// building block for the PS and DDC baselines of the paper's
// evaluation and for the time slices of the append-only cube.
//
// Accesses counts every cell read or write performed by Query and
// Update; it is the paper's cost metric.
type Array struct {
	shape    dims.Shape
	techs    []Technique
	cells    []float64
	Accesses int64
}

// New returns an all-zero pre-aggregated array (the pre-aggregation of
// an all-zero original array is zero for every linear technique).
func New(shape dims.Shape, techs []Technique) (*Array, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if len(techs) != len(shape) {
		return nil, fmt.Errorf("molap: %d techniques for %d dimensions", len(techs), len(shape))
	}
	return &Array{
		shape: shape.Clone(),
		techs: append([]Technique(nil), techs...),
		cells: make([]float64, shape.Size()),
	}, nil
}

// FromDense pre-aggregates a dense original array (row-major, length
// shape.Size()). The input slice is copied.
func FromDense(data []float64, shape dims.Shape, techs []Technique) (*Array, error) {
	a, err := New(shape, techs)
	if err != nil {
		return nil, err
	}
	if len(data) != shape.Size() {
		return nil, fmt.Errorf("molap: data length %d does not match shape size %d", len(data), shape.Size())
	}
	copy(a.cells, data)
	a.aggregateAll()
	return a, nil
}

// aggregateAll applies each dimension's technique to every 1-d vector
// along that dimension, transforming original values into
// pre-aggregated values in place.
func (a *Array) aggregateAll() {
	a.eachVector(func(dim int, v []float64, gather, scatter func([]float64)) {
		gather(v)
		a.techs[dim].Aggregate(v)
		scatter(v)
	})
}

// disaggregateAll is the inverse of aggregateAll; dimensions are
// processed in reverse order so each technique sees exactly the state
// its Aggregate produced.
func (a *Array) disaggregateAll() {
	for dim := len(a.shape) - 1; dim >= 0; dim-- {
		a.eachVectorOf(dim, func(v []float64, gather, scatter func([]float64)) {
			gather(v)
			a.techs[dim].Disaggregate(v)
			scatter(v)
		})
	}
}

// eachVector visits dimensions in increasing order.
func (a *Array) eachVector(fn func(dim int, v []float64, gather, scatter func([]float64))) {
	for dim := range a.shape {
		d := dim
		a.eachVectorOf(d, func(v []float64, gather, scatter func([]float64)) {
			fn(d, v, gather, scatter)
		})
	}
}

// eachVectorOf visits every 1-d vector along dimension dim. The
// callback receives a scratch vector plus gather/scatter closures that
// copy the vector out of and back into the flat cell storage.
func (a *Array) eachVectorOf(dim int, fn func(v []float64, gather, scatter func([]float64))) {
	n := a.shape[dim]
	strides := a.shape.Strides()
	stride := strides[dim]
	v := make([]float64, n)
	// Iterate over all coordinates with dimension dim fixed at 0.
	outer := a.shape.Clone()
	outer[dim] = 1
	dims.FullBox(outer).Iter(func(x []int) {
		base := 0
		for i, c := range x {
			base += c * strides[i]
		}
		gather := func(v []float64) {
			for i := 0; i < n; i++ {
				v[i] = a.cells[base+i*stride]
			}
		}
		scatter := func(v []float64) {
			for i := 0; i < n; i++ {
				a.cells[base+i*stride] = v[i]
			}
		}
		fn(v, gather, scatter)
	})
}

// Shape returns the array's shape (caller must not modify it).
func (a *Array) Shape() dims.Shape { return a.shape }

// Techniques returns the per-dimension techniques (caller must not
// modify the slice).
func (a *Array) Techniques() []Technique { return a.techs }

// Cells exposes the raw pre-aggregated cell storage. It is used by the
// eCube construction, which re-interprets a DDC array's cells, and by
// the disk layout code; ordinary callers should use Query/Update.
func (a *Array) Cells() []float64 { return a.cells }

// Clone returns a deep copy (cost counter reset).
func (a *Array) Clone() *Array {
	c := &Array{
		shape: a.shape.Clone(),
		techs: append([]Technique(nil), a.techs...),
		cells: append([]float64(nil), a.cells...),
	}
	return c
}

// Update adds delta to original cell x by adjusting every
// pre-aggregated cell that covers it: the cross product of the
// per-dimension UpdateCells index sets.
func (a *Array) Update(x []int, delta float64) {
	if !a.shape.Contains(x) {
		panic(fmt.Sprintf("molap: update coordinate %v outside shape %v", x, a.shape))
	}
	sets := make([][]int, len(a.shape))
	for d, t := range a.techs {
		sets[d] = t.UpdateCells(nil, a.shape[d], x[d])
	}
	strides := a.shape.Strides()
	dims.CrossProduct(sets, func(combo []int) {
		off := 0
		for i, c := range combo {
			off += c * strides[i]
		}
		a.cells[off] += delta
		a.Accesses++
	})
}

// Query computes the aggregate over the closed box by combining the
// per-dimension QueryTerms via cross product, multiplying factors.
func (a *Array) Query(b dims.Box) (float64, error) {
	if err := b.Validate(a.shape); err != nil {
		return 0, err
	}
	sets := make([][]Term, len(a.shape))
	for d, t := range a.techs {
		sets[d] = t.QueryTerms(nil, a.shape[d], b.Lo[d], b.Hi[d])
		if len(sets[d]) == 0 {
			// A technique may report an empty term set when the range
			// contribution is exactly zero (cannot happen for the
			// closed in-bounds boxes validated above, but keep the
			// result well-defined).
			return 0, nil
		}
	}
	return a.combineTerms(sets), nil
}

func (a *Array) combineTerms(sets [][]Term) float64 {
	idxSets := make([][]int, len(sets))
	for d, s := range sets {
		idx := make([]int, len(s))
		for i := range s {
			idx[i] = i
		}
		idxSets[d] = idx
	}
	strides := a.shape.Strides()
	total := 0.0
	dims.CrossProduct(idxSets, func(combo []int) {
		off := 0
		f := 1.0
		for d, i := range combo {
			term := sets[d][i]
			off += term.Index * strides[d]
			f *= term.Factor
		}
		total += f * a.cells[off]
		a.Accesses++
	})
	return total
}
