// Package oracle is the one reference the tree checks range aggregates
// against: every update kept as a point, and each query answered by
// scanning all of them. It shares no code with the cube or any other
// structure it checks — it imports only the standard library, and
// histlint's importfence holds it to that — so a bug of the engine
// under test cannot hide in the reference too.
package oracle

import "strings"

// point is one update: v inserted (sign 1) or deleted (sign -1) at
// time t and coordinates coords.
type point struct {
	t      int64
	coords []int
	v      float64
	sign   int64
}

// Points is the list of updates applied so far, in the order applied;
// the zero value is empty and ready to use.
type Points []point

// Insert records v inserted at time t and coords.
func (ps *Points) Insert(t int64, coords []int, v float64) { ps.add(t, coords, v, 1) }

// Delete records v deleted at time t and coords: the inverse of an
// insert, it takes v off the sum and one off the count.
func (ps *Points) Delete(t int64, coords []int, v float64) { ps.add(t, coords, v, -1) }

func (ps *Points) add(t int64, coords []int, v float64, sign int64) {
	*ps = append(*ps, point{t: t, coords: append([]int(nil), coords...), v: v, sign: sign})
}

// Pair is what a range holds: the sum of its values and the number of
// its points, each delete counted as minus one.
type Pair struct {
	Sum   float64
	Count int64
}

// Query returns the pair of the points with tlo <= t <= thi and
// lo[i] <= coords[i] <= hi[i] in every dimension.
func (ps Points) Query(tlo, thi int64, lo, hi []int) Pair {
	var p Pair
	for _, pt := range ps {
		if pt.t < tlo || pt.t > thi || !inBox(pt.coords, lo, hi) {
			continue
		}
		p.Sum += float64(pt.sign) * pt.v
		p.Count += pt.sign
	}
	return p
}

func inBox(coords, lo, hi []int) bool {
	for i, x := range coords {
		if x < lo[i] || x > hi[i] {
			return false
		}
	}
	return true
}

// Of reads operator op — sum, count or avg, in any case — off the
// pair. An average of nothing is 0, as on histserve.
func (p Pair) Of(op string) float64 {
	switch strings.ToLower(op) {
	case "sum":
		return p.Sum
	case "count":
		return float64(p.Count)
	case "avg":
		if p.Count == 0 {
			return 0
		}
		return p.Sum / float64(p.Count)
	}
	panic("oracle: unknown operator " + op)
}
