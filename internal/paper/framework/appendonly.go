package framework

import (
	"fmt"

	"histcube/internal/btree"
	"histcube/internal/dims"
	"histcube/internal/directory"
)

// GeneralStructure is the general d-dimensional structure G_d of
// Section 2.5 that buffers out-of-order updates: it supports the
// operations of Table 2 without exploiting the append-only property.
type GeneralStructure interface {
	// Insert stores the d-dimensional point (t, x) with measure delta.
	Insert(t int64, x []int, delta float64)
	// Query aggregates over the time range and box.
	Query(tLo, tHi int64, b dims.Box) (float64, error)
	// PopLatest removes and returns a point with the greatest time
	// coordinate — the background process drains latest-first so it
	// does not chase newly created time slices.
	PopLatest() (t int64, x []int, delta float64, ok bool)
}

// ListGd is the baseline G_d: an unindexed point list with linear-scan
// queries. Its per-query cost is linear in the number of out-of-order
// updates, which matches the paper's graceful-degradation analysis and
// makes the degradation measurable (rstar.Gd is the indexed G_d the
// serving cube buffers in).
type ListGd struct {
	pts []gdPoint
}

type gdPoint struct {
	t     int64
	x     []int
	delta float64
}

// NewListGd returns an empty buffer.
func NewListGd() *ListGd { return &ListGd{} }

// Insert implements GeneralStructure.
func (g *ListGd) Insert(t int64, x []int, delta float64) {
	g.pts = append(g.pts, gdPoint{t: t, x: append([]int(nil), x...), delta: delta})
}

// Query implements GeneralStructure.
func (g *ListGd) Query(tLo, tHi int64, b dims.Box) (float64, error) {
	total := 0.0
	for _, p := range g.pts {
		if p.t < tLo || p.t > tHi {
			continue
		}
		if b.Contains(p.x) {
			total += p.delta
		}
	}
	return total, nil
}

// PopLatest implements GeneralStructure.
func (g *ListGd) PopLatest() (int64, []int, float64, bool) {
	if len(g.pts) == 0 {
		return 0, nil, 0, false
	}
	best := 0
	for i, p := range g.pts {
		if p.t > g.pts[best].t {
			best = i
		}
	}
	p := g.pts[best]
	g.pts[best] = g.pts[len(g.pts)-1]
	g.pts = g.pts[:len(g.pts)-1]
	return p.t, p.x, p.delta, true
}

// Config configures an AppendOnly data set.
type Config struct {
	// Source manages the R_{d-1} instances (required).
	Source InstanceSource
	// OutOfOrder buffers out-of-order updates; nil rejects them with
	// ErrOutOfOrder.
	OutOfOrder GeneralStructure
}

// AppendOnly is the framework's d-dimensional append-only data set D:
// dimension 1 is the TT-dimension, handled by cumulative instances;
// the remaining d-1 dimensions are handled by the instance source.
type AppendOnly struct {
	src InstanceSource
	dir *directory.Array
	gd  GeneralStructure
}

// New returns an AppendOnly data set.
func New(cfg Config) (*AppendOnly, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("framework: Config.Source is required")
	}
	return &AppendOnly{src: cfg.Source, dir: directory.NewArray(), gd: cfg.OutOfOrder}, nil
}

// Update applies update_D((t, x), delta). Appends (t >= latest
// occurring time) go to the latest instance, creating a new one when t
// is new; out-of-order updates go to G_d when configured.
func (a *AppendOnly) Update(t int64, x []int, delta float64) error {
	_, latestT, ok := a.dir.Latest()
	switch {
	case !ok || t > latestT:
		if _, err := a.dir.Append(t); err != nil {
			return err
		}
		return a.src.Update(true, x, delta)
	case t == latestT:
		return a.src.Update(false, x, delta)
	default:
		if a.gd == nil {
			return fmt.Errorf("%w: time %d, latest %d", ErrOutOfOrder, t, latestT)
		}
		a.gd.Insert(t, x, delta)
		return nil
	}
}

// PrefixQuery answers the prefix time query "all points with time <= t
// inside the box": one directory lookup plus one (d-1)-dimensional
// query, plus the G_d contribution.
func (a *AppendOnly) PrefixQuery(t int64, b dims.Box) (float64, error) {
	total, err := a.prefixMain(t, b)
	if err != nil {
		return 0, err
	}
	if a.gd != nil {
		g, err := a.gd.Query(minTime, t, b)
		if err != nil {
			return 0, err
		}
		total += g
	}
	return total, nil
}

const minTime = int64(-1) << 62

func (a *AppendOnly) prefixMain(t int64, b dims.Box) (float64, error) {
	idx, ok := a.dir.Floor(t)
	if !ok {
		return 0, nil
	}
	return a.src.QueryAt(idx, b)
}

// Query answers query_D over the closed time range [tLo, tHi] and box:
// q_u - q_l on the cumulative instances, plus the buffered
// out-of-order contribution.
//
//histlint:ignore deadexport Sec. 2.2 range query q_u - q_l plus G_d (DESIGN row 10); framework_test.go and mvbtsource_test.go check it against the oracle, the root integration test against core, for every source
func (a *AppendOnly) Query(tLo, tHi int64, b dims.Box) (float64, error) {
	if tLo > tHi {
		return 0, fmt.Errorf("framework: inverted time range [%d, %d]", tLo, tHi)
	}
	qu, err := a.prefixMain(tHi, b)
	if err != nil {
		return 0, err
	}
	var ql float64
	if tLo != minTime && tLo != -int64(1)<<63 {
		// tLo-1 would wrap at the int64 minimum; nothing precedes it.
		ql, err = a.prefixMain(tLo-1, b)
		if err != nil {
			return 0, err
		}
	}
	total := qu - ql
	if a.gd != nil {
		g, err := a.gd.Query(tLo, tHi, b)
		if err != nil {
			return 0, err
		}
		total += g
	}
	return total, nil
}

// ApplyOutOfOrder drains up to n buffered out-of-order updates
// (latest-first, so the process does not chase newly created slices)
// into the instances, cascading each to every instance with time >=
// the update's time. It is the paper's asynchronous background
// process, exposed synchronously so callers control the schedule.
//
// Only updates whose time coordinate is an occurring time can be
// folded into the cumulative instances; an update at a non-occurring
// historic time would require inserting an instance retroactively
// (which the paper leaves beyond scope), so such updates stay in G_d —
// queries remain exact either way, since G_d's contribution is always
// merged. ApplyOutOfOrder returns the number applied;
// ErrCascadeUnsupported means the instance source cannot rewrite
// history and the buffer is left intact.
//
//histlint:ignore deadexport Sec. 2.5 cascade of buffered updates; framework_test.go pins EXPERIMENTS "Out-of-order updates degrade gracefully through G_d and stay exact"
func (a *AppendOnly) ApplyOutOfOrder(n int) (int, error) {
	if a.gd == nil {
		return 0, nil
	}
	applied := 0
	var skipped []gdPoint
	defer func() {
		for _, p := range skipped {
			a.gd.Insert(p.t, p.x, p.delta)
		}
	}()
	for popped := 0; applied < n && popped < n; popped++ {
		t, x, delta, ok := a.gd.PopLatest()
		if !ok {
			break
		}
		idx, found := a.dir.Floor(t)
		if !found || a.dir.Time(idx) != t || idx >= a.src.Len() {
			skipped = append(skipped, gdPoint{t: t, x: x, delta: delta})
			continue
		}
		if err := a.src.UpdateFrom(idx, x, delta); err != nil {
			skipped = append(skipped, gdPoint{t: t, x: x, delta: delta})
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// BTreeStructure adapts the aggregate B+tree to a one-dimensional
// Structure — the paper's Section 2.2 example of R_1 ("e.g., a B-tree
// with location keys").
type BTreeStructure struct {
	T *btree.Tree
}

// NewBTreeStructure returns an empty B-tree structure.
func NewBTreeStructure() *BTreeStructure { return &BTreeStructure{T: btree.New(0)} }

// Update implements Structure; x must be one-dimensional.
func (s *BTreeStructure) Update(x []int, delta float64) { s.T.Add(int64(x[0]), delta) }

// Query implements Structure.
func (s *BTreeStructure) Query(b dims.Box) (float64, error) {
	if len(b.Lo) != 1 {
		return 0, fmt.Errorf("framework: BTreeStructure requires 1-dimensional boxes")
	}
	return s.T.RangeSum(int64(b.Lo[0]), int64(b.Hi[0])), nil
}

// Clone implements Cloneable.
func (s *BTreeStructure) Clone() Cloneable { return &BTreeStructure{T: s.T.Clone()} }
