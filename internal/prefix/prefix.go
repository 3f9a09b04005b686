// Package prefix implements the Prefix Sum technique (PS) of Ho et
// al. (SIGMOD 1997) as a one-dimensional pre-aggregation technique:
// each cell k stores P[k] = sum(A[0..k]). A range sum costs at most
// two cell accesses per dimension (P[u] - P[l-1]); an update to A[i]
// costs up to N-i cell accesses.
//
// In the paper's append-only construction PS is the target form of
// historic time slices: a fully PS-converted (d-1)-dimensional slice
// answers any range query in at most 2^(d-1) cell accesses.
package prefix

import (
	"histcube/internal/dims"
	"histcube/internal/molap"
)

// PS is the Prefix Sum technique. The zero value is ready to use.
type PS struct{}

// Name implements molap.Technique.
func (PS) Name() string { return "PS" }

// Aggregate implements molap.Technique: running sum in place.
func (PS) Aggregate(v []float64) {
	for i := 1; i < len(v); i++ {
		v[i] += v[i-1]
	}
}

// Disaggregate implements molap.Technique: adjacent differences.
func (PS) Disaggregate(v []float64) {
	for i := len(v) - 1; i >= 1; i-- {
		v[i] -= v[i-1]
	}
}

// QueryTerms implements molap.Technique: q(l,u) = P[u] - P[l-1], with
// the P[-1] = 0 convention of the paper.
func (PS) QueryTerms(dst []molap.Term, _ int, l, u int) []molap.Term {
	dst = append(dst, molap.Term{Index: u, Factor: 1})
	if l > 0 {
		dst = append(dst, molap.Term{Index: l - 1, Factor: -1})
	}
	return dst
}

// UpdateCells implements molap.Technique: every P[j], j >= i, covers
// original cell i.
func (PS) UpdateCells(dst []int, n, i int) []int {
	for j := i; j < n; j++ {
		dst = append(dst, j)
	}
	return dst
}

// FromDense pre-aggregates a dense original array with PS in every
// dimension.
func FromDense(data []float64, shape dims.Shape) (*molap.Array, error) {
	return molap.FromDense(data, shape, uniform(len(shape)))
}

func uniform(d int) []molap.Technique {
	ts := make([]molap.Technique, d)
	for i := range ts {
		ts[i] = PS{}
	}
	return ts
}
