// Package ddc implements the one-dimensional Dynamic Data Cube
// pre-aggregation technique (Geffner et al., EDBT 2000) in the variant
// used by the SIGMOD 2002 paper (Section 3.1): cell N-1 stores the sum
// of the whole vector, the middle of the remaining sub-vector stores
// the sum of its left half measured from the sub-vector's start, and
// the two halves are processed recursively. Every prefix sum P[k] is
// the sum of at most ceil(log2 N)+1 cells (the descent chain), and an
// update touches at most that many cells, balancing query and update
// cost.
//
// The exported index functions (PrefixTerms, UpdateCells, RangeStart)
// are pure; they are shared by the DDC baseline arrays, the eCube
// conversion algorithm and the append-only cube's cache.
package ddc

import (
	"histcube/internal/dims"
	"histcube/internal/molap"
)

// DDC is the Dynamic Data Cube technique. The zero value is ready to
// use.
type DDC struct{}

// Name implements molap.Technique.
func (DDC) Name() string { return "DDC" }

// Aggregate implements molap.Technique: cell k receives
// sum(A[RangeStart(n,k) .. k]).
func (DDC) Aggregate(v []float64) {
	n := len(v)
	if n == 0 {
		return
	}
	p := make([]float64, n)
	run := 0.0
	for i, x := range v {
		run += x
		p[i] = run
	}
	for k := 0; k < n; k++ {
		lo := RangeStart(n, k)
		if lo > 0 {
			v[k] = p[k] - p[lo-1]
		} else {
			v[k] = p[k]
		}
	}
}

// Disaggregate implements molap.Technique, recovering original values
// from DDC values via prefix sums.
func (DDC) Disaggregate(v []float64) {
	n := len(v)
	if n == 0 {
		return
	}
	p := make([]float64, n)
	var terms []molap.Term
	for k := 0; k < n; k++ {
		terms = DDC{}.PrefixTerms(terms[:0], n, k)
		s := 0.0
		for _, t := range terms {
			s += t.Factor * v[t.Index]
		}
		p[k] = s
	}
	v[0] = p[0]
	for k := n - 1; k >= 1; k-- {
		v[k] = p[k] - p[k-1]
	}
}

// PrefixTerms appends to dst the descent chain whose cell values sum
// to P[k] and returns the extended slice. All factors are +1. Terms are appended in
// descent order (top of the hierarchy first), which QueryTerms relies
// on for cancellation.
func (DDC) PrefixTerms(dst []molap.Term, n, k int) []molap.Term {
	if k == n-1 {
		return append(dst, molap.Term{Index: n - 1, Factor: 1})
	}
	lo, hi := 0, n-2
	for {
		mid := (lo + hi) / 2
		switch {
		case k == mid:
			return append(dst, molap.Term{Index: mid, Factor: 1})
		case k < mid:
			hi = mid - 1
		default:
			dst = append(dst, molap.Term{Index: mid, Factor: 1})
			lo = mid + 1
		}
	}
}

// QueryTerms implements molap.Technique. It computes the chains for
// P[u] and P[l-1] and cancels their common leading cells — the
// "direct approach" of DDC that the paper contrasts with eCube's
// two-prefix reduction (Section 5).
func (DDC) QueryTerms(dst []molap.Term, n, l, u int) []molap.Term {
	if l == 0 {
		return DDC{}.PrefixTerms(dst, n, u)
	}
	pu := DDC{}.PrefixTerms(nil, n, u)
	pl := DDC{}.PrefixTerms(nil, n, l-1)
	i := 0
	for i < len(pu) && i < len(pl) && pu[i].Index == pl[i].Index {
		i++
	}
	dst = append(dst, pu[i:]...)
	for _, t := range pl[i:] {
		dst = append(dst, molap.Term{Index: t.Index, Factor: -1})
	}
	return dst
}

// UpdateCells implements molap.Technique: all cells whose covered
// range [RangeStart..index] contains original index i. Cell n-1 always
// qualifies.
func (DDC) UpdateCells(dst []int, n, i int) []int {
	dst = append(dst, n-1)
	lo, hi := 0, n-2
	for lo <= hi && i <= hi {
		mid := (lo + hi) / 2
		if i <= mid {
			dst = append(dst, mid)
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return dst
}

// RangeStart returns the start of the range covered by DDC cell k in a
// vector of length n: cell k stores sum(A[RangeStart(n,k) .. k]).
func RangeStart(n, k int) int {
	if k == n-1 {
		return 0
	}
	lo, hi := 0, n-2
	for {
		mid := (lo + hi) / 2
		switch {
		case k == mid:
			return lo
		case k < mid:
			hi = mid - 1
		default:
			lo = mid + 1
		}
	}
}

// MaxChainLen returns the worst-case number of cells in a prefix chain
// for a vector of length n — the log2 N bound of the paper.
//
//histlint:ignore deadexport the log2 N chain bound that the cost-bound tests of ddc, appendcube, ecube and molap assert (EXPERIMENTS "Update touches ≤ (log₂N)^(d-1)")
func MaxChainLen(n int) int {
	if n <= 1 {
		return 1
	}
	// The worst chain descends the sub-hierarchy over cells [0, n-2];
	// each step keeps at most the right half: span -> floor(span/2).
	depth := 0
	span := n - 1
	for span > 0 {
		depth++
		span /= 2
	}
	return depth
}

// FromDense pre-aggregates a dense original array with DDC in every
// dimension.
func FromDense(data []float64, shape dims.Shape) (*molap.Array, error) {
	return molap.FromDense(data, shape, Uniform(len(shape)))
}

// Uniform returns d copies of the DDC technique, for mixed-technique
// arrays built via molap.New.
func Uniform(d int) []molap.Technique {
	ts := make([]molap.Technique, d)
	for i := range ts {
		ts[i] = DDC{}
	}
	return ts
}
