// Package hierarchy models dimension hierarchies (city -> state ->
// region, day -> month -> year) and translates roll-up and drill-down
// operations into the collections of range-aggregate queries the
// paper's introduction describes ("roll-up and drill-down queries
// that aggregate on different levels of granularity are often
// collections of related range queries").
//
// A hierarchy is an ordered-partition view of a dense base domain:
// each level partitions [0, baseSize) into consecutive ranges, and
// coarser levels must be refinements in reverse — every coarse value
// is a union of consecutive finer values. The base level is implicit
// (identity).
//
// Reproduction only — not importable from the serving path (histlint
// `importfence`).
package hierarchy

import (
	"fmt"
	"sort"
)

// Hierarchy describes the levels of one dimension.
type Hierarchy struct {
	name   string
	base   int
	levels []level
}

type level struct {
	name   string
	bounds []int // bounds[i] = first base coordinate of coarse value i; bounds[0] = 0
}

// New returns a hierarchy over a base domain of the given size with no
// coarse levels yet.
func New(name string, baseSize int) (*Hierarchy, error) {
	if baseSize <= 0 {
		return nil, fmt.Errorf("hierarchy: base size %d must be positive", baseSize)
	}
	return &Hierarchy{name: name, base: baseSize}, nil
}

// AddLevel appends a coarser level defined by the first base
// coordinate of each coarse value. bounds must start at 0, be strictly
// ascending and stay within the base domain; levels must be added
// fine-to-coarse, and each must coarsen the previous one (its bounds
// must be a subset of the previous level's bounds).
func (h *Hierarchy) AddLevel(name string, bounds []int) error {
	if len(bounds) == 0 || bounds[0] != 0 {
		return fmt.Errorf("hierarchy: level %q bounds must start at 0", name)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("hierarchy: level %q bounds not strictly ascending at %d", name, i)
		}
	}
	if bounds[len(bounds)-1] >= h.base {
		return fmt.Errorf("hierarchy: level %q bound %d outside base domain [0,%d)", name, bounds[len(bounds)-1], h.base)
	}
	if _, err := h.levelIndex(name); err == nil {
		return fmt.Errorf("hierarchy: duplicate level name %q", name)
	}
	if len(h.levels) > 0 {
		prev := h.levels[len(h.levels)-1].bounds
		set := make(map[int]bool, len(prev))
		for _, b := range prev {
			set[b] = true
		}
		for _, b := range bounds {
			if !set[b] {
				return fmt.Errorf("hierarchy: level %q bound %d does not align with level %q", name, b, h.levels[len(h.levels)-1].name)
			}
		}
		if len(bounds) > len(prev) {
			return fmt.Errorf("hierarchy: level %q is finer than level %q", name, h.levels[len(h.levels)-1].name)
		}
	}
	h.levels = append(h.levels, level{name: name, bounds: append([]int(nil), bounds...)})
	return nil
}

// AddUniformLevel appends a level grouping the previous level's values
// (or base coordinates) into consecutive groups of groupSize.
func (h *Hierarchy) AddUniformLevel(name string, groupSize int) error {
	if groupSize <= 1 {
		return fmt.Errorf("hierarchy: group size %d must exceed 1", groupSize)
	}
	prev := h.finestBounds()
	var bounds []int
	for i := 0; i < len(prev); i += groupSize {
		bounds = append(bounds, prev[i])
	}
	return h.AddLevel(name, bounds)
}

func (h *Hierarchy) finestBounds() []int {
	if len(h.levels) > 0 {
		return h.levels[len(h.levels)-1].bounds
	}
	bounds := make([]int, h.base)
	for i := range bounds {
		bounds[i] = i
	}
	return bounds
}

func (h *Hierarchy) levelIndex(name string) (int, error) {
	for i, l := range h.levels {
		if l.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("hierarchy: unknown level %q in dimension %q", name, h.name)
}

// Range returns the base-coordinate range [lo, hi] covered by coarse
// value v at the level ("" = base: [v, v]).
func (h *Hierarchy) Range(levelName string, v int) (lo, hi int, err error) {
	if levelName == "" {
		if v < 0 || v >= h.base {
			return 0, 0, fmt.Errorf("hierarchy: base value %d outside [0,%d)", v, h.base)
		}
		return v, v, nil
	}
	i, err := h.levelIndex(levelName)
	if err != nil {
		return 0, 0, err
	}
	b := h.levels[i].bounds
	if v < 0 || v >= len(b) {
		return 0, 0, fmt.Errorf("hierarchy: value %d outside level %q [0,%d)", v, levelName, len(b))
	}
	lo = b[v]
	hi = h.base - 1
	if v+1 < len(b) {
		hi = b[v+1] - 1
	}
	return lo, hi, nil
}

// ValueAt returns the coarse value at the level containing base
// coordinate x — the drill-up direction.
func (h *Hierarchy) ValueAt(levelName string, x int) (int, error) {
	if x < 0 || x >= h.base {
		return 0, fmt.Errorf("hierarchy: base coordinate %d outside [0,%d)", x, h.base)
	}
	if levelName == "" {
		return x, nil
	}
	i, err := h.levelIndex(levelName)
	if err != nil {
		return 0, err
	}
	b := h.levels[i].bounds
	return sort.Search(len(b), func(k int) bool { return b[k] > x }) - 1, nil
}

// QueryFunc evaluates one base-coordinate range aggregate; GroupBy
// adapts any cube query to it.
type QueryFunc func(lo, hi []int) (float64, error)

// GroupBy rolls up dimension dim of the region [baseLo, baseHi] to a
// hierarchy level: one aggregate per coarse value whose range
// intersects the region (clipped to it), returned with the coarse
// values. This is exactly the "collection of related range queries"
// view of roll-up.
func GroupBy(q QueryFunc, baseLo, baseHi []int, dim int, h *Hierarchy, levelName string) (values []int, aggs []float64, err error) {
	if dim < 0 || dim >= len(baseLo) {
		return nil, nil, fmt.Errorf("hierarchy: dimension %d outside query arity %d", dim, len(baseLo))
	}
	first, err := h.ValueAt(levelName, baseLo[dim])
	if err != nil {
		return nil, nil, err
	}
	last, err := h.ValueAt(levelName, baseHi[dim])
	if err != nil {
		return nil, nil, err
	}
	lo := append([]int(nil), baseLo...)
	hi := append([]int(nil), baseHi...)
	for v := first; v <= last; v++ {
		rLo, rHi, err := h.Range(levelName, v)
		if err != nil {
			return nil, nil, err
		}
		if rLo < baseLo[dim] {
			rLo = baseLo[dim]
		}
		if rHi > baseHi[dim] {
			rHi = baseHi[dim]
		}
		lo[dim], hi[dim] = rLo, rHi
		a, err := q(lo, hi)
		if err != nil {
			return nil, nil, err
		}
		values = append(values, v)
		aggs = append(aggs, a)
	}
	return values, aggs, nil
}

// TimeBuckets partitions the closed time range [tLo, tHi] into
// consecutive buckets of width step (the last bucket may be shorter)
// and evaluates q on each — the roll-up along the TT-dimension (e.g.
// daily times grouped into months).
func TimeBuckets(q func(tLo, tHi int64) (float64, error), tLo, tHi, step int64) (starts []int64, aggs []float64, err error) {
	if step <= 0 {
		return nil, nil, fmt.Errorf("hierarchy: time bucket step %d must be positive", step)
	}
	if tLo > tHi {
		return nil, nil, fmt.Errorf("hierarchy: inverted time range [%d, %d]", tLo, tHi)
	}
	for s := tLo; s <= tHi; s += step {
		e := s + step - 1
		if e > tHi {
			e = tHi
		}
		a, err := q(s, e)
		if err != nil {
			return nil, nil, err
		}
		starts = append(starts, s)
		aggs = append(aggs, a)
	}
	return starts, aggs, nil
}
