// Package framework implements the general construction of Section 2
// of the paper, independent of any storage model: a d-dimensional
// append-only data set is maintained as cumulative instances of an
// arbitrary (d-1)-dimensional aggregate structure R_{d-1}, one per
// occurring value of the transaction-time dimension. Any d-dimensional
// range aggregate reduces to two (d-1)-dimensional queries (q_u - q_l)
// plus two directory lookups, so query and update cost are within a
// constant factor of the (d-1)-dimensional problem — the history
// length never matters.
//
// Two instance sources realise the "constant-time copy" assumption of
// Section 2.3: CloneSource physically copies the latest instance
// (adequate when updates per slice amortise the copy, and the basis of
// the paper's own Section 3 array construction), and TreapSource uses
// the partially persistent treap of internal/paper/mversion, where every
// snapshot is O(1) — the multiversion route of Section 4.
//
// Out-of-order updates (Section 2.5) are buffered in a general
// d-dimensional structure G_d; queries merge its contribution, and a
// background ApplyOutOfOrder drains it into the affected instances,
// degrading gracefully towards general d-dimensional cost as the
// out-of-order share grows.
//
// Reproduction only — not importable from the serving path (histlint
// `importfence`).
package framework

import (
	"errors"
	"fmt"

	"histcube/internal/dims"
	"histcube/internal/molap"
	"histcube/internal/paper/mversion"
)

// Structure is the (d-1)-dimensional aggregate structure R_{d-1} of
// the paper's Table 1.
type Structure interface {
	// Update adds delta to the measure of point x.
	Update(x []int, delta float64)
	// Query returns the aggregate over the closed box.
	Query(b dims.Box) (float64, error)
}

// Cloneable is a Structure that can copy itself; the clone must be
// independent of (and the same dynamic type as) the receiver.
type Cloneable interface {
	Structure
	Clone() Cloneable
}

// InstanceSource manages the instances R_{d-1}(t). Instance indices
// are dense, in occurring-time order.
type InstanceSource interface {
	// Update applies an update to the latest instance, first creating
	// a new instance (a copy of the latest, or an empty one if none
	// exists) when newInstance is true.
	Update(newInstance bool, x []int, delta float64) error
	// QueryAt queries instance idx.
	QueryAt(idx int, b dims.Box) (float64, error)
	// UpdateFrom applies an update to every instance with index >= idx
	// (the out-of-order cascade of Section 2.5). Sources that cannot
	// rewrite history return ErrCascadeUnsupported.
	UpdateFrom(idx int, x []int, delta float64) error
	// Len returns the number of instances.
	Len() int
}

// ErrCascadeUnsupported reports an instance source that cannot apply
// out-of-order updates to historic instances (e.g. persistent
// versions are immutable); such updates then stay in G_d permanently,
// which remains correct.
var ErrCascadeUnsupported = errors.New("framework: instance source cannot rewrite historic instances")

// ErrOutOfOrder reports an out-of-order update when no G_d buffer is
// configured.
var ErrOutOfOrder = errors.New("framework: out-of-order update and no out-of-order buffer configured")

// CloneSource keeps one physical structure per occurring time by
// cloning the latest instance — the direct reading of Section 2.3.
type CloneSource struct {
	fresh func() Cloneable
	insts []Cloneable
}

// NewCloneSource returns a CloneSource; fresh creates an empty
// structure.
func NewCloneSource(fresh func() Cloneable) *CloneSource {
	return &CloneSource{fresh: fresh}
}

// Update implements InstanceSource.
func (s *CloneSource) Update(newInstance bool, x []int, delta float64) error {
	if newInstance {
		if len(s.insts) == 0 {
			s.insts = append(s.insts, s.fresh())
		} else {
			s.insts = append(s.insts, s.insts[len(s.insts)-1].Clone())
		}
	}
	if len(s.insts) == 0 {
		return errors.New("framework: update before any instance exists")
	}
	s.insts[len(s.insts)-1].Update(x, delta)
	return nil
}

// QueryAt implements InstanceSource.
func (s *CloneSource) QueryAt(idx int, b dims.Box) (float64, error) {
	if idx < 0 || idx >= len(s.insts) {
		return 0, fmt.Errorf("framework: instance %d out of range [0,%d)", idx, len(s.insts))
	}
	return s.insts[idx].Query(b)
}

// UpdateFrom implements InstanceSource.
func (s *CloneSource) UpdateFrom(idx int, x []int, delta float64) error {
	if idx < 0 || idx >= len(s.insts) {
		return fmt.Errorf("framework: instance %d out of range [0,%d)", idx, len(s.insts))
	}
	for i := idx; i < len(s.insts); i++ {
		s.insts[i].Update(x, delta)
	}
	return nil
}

// Len implements InstanceSource.
func (s *CloneSource) Len() int { return len(s.insts) }

// TreapSource keeps all instances as versions of one persistent treap
// over one-dimensional int64 keys (coordinates are x[0]). Snapshots
// are O(1) — the "copy in constant time" the framework assumes,
// obtained through the multiversion methodology of Section 4.
type TreapSource struct {
	cur      mversion.Treap
	versions []mversion.Treap
}

// NewTreapSource returns an empty TreapSource.
//
//histlint:ignore deadexport Sec. 4 persistent-treap source (DESIGN row 13); framework_test.go, mvbtsource_test.go and the root integration test compare it with the other sources
func NewTreapSource() *TreapSource { return &TreapSource{} }

// Update implements InstanceSource; x must be one-dimensional.
func (s *TreapSource) Update(newInstance bool, x []int, delta float64) error {
	if len(x) != 1 {
		return fmt.Errorf("framework: TreapSource requires 1-dimensional points, got %d", len(x))
	}
	if newInstance {
		s.versions = append(s.versions, s.cur)
	}
	if len(s.versions) == 0 {
		return errors.New("framework: update before any instance exists")
	}
	s.cur = s.cur.Add(int64(x[0]), delta)
	s.versions[len(s.versions)-1] = s.cur
	return nil
}

// QueryAt implements InstanceSource.
func (s *TreapSource) QueryAt(idx int, b dims.Box) (float64, error) {
	if idx < 0 || idx >= len(s.versions) {
		return 0, fmt.Errorf("framework: instance %d out of range [0,%d)", idx, len(s.versions))
	}
	if len(b.Lo) != 1 {
		return 0, fmt.Errorf("framework: TreapSource requires 1-dimensional boxes, got %d", len(b.Lo))
	}
	return s.versions[idx].RangeSum(int64(b.Lo[0]), int64(b.Hi[0])), nil
}

// UpdateFrom implements InstanceSource: persistent versions are
// immutable, so historic rewrites are unsupported.
func (s *TreapSource) UpdateFrom(int, []int, float64) error {
	return ErrCascadeUnsupported
}

// Len implements InstanceSource.
func (s *TreapSource) Len() int { return len(s.versions) }

// ArrayStructure adapts a molap pre-aggregated array to the Structure
// interface, with deep-copy cloning.
type ArrayStructure struct {
	A *molap.Array
}

// NewArrayStructure wraps an array.
func NewArrayStructure(a *molap.Array) *ArrayStructure { return &ArrayStructure{A: a} }

// Update implements Structure.
func (s *ArrayStructure) Update(x []int, delta float64) { s.A.Update(x, delta) }

// Query implements Structure.
func (s *ArrayStructure) Query(b dims.Box) (float64, error) { return s.A.Query(b) }

// Clone implements Cloneable.
func (s *ArrayStructure) Clone() Cloneable { return &ArrayStructure{A: s.A.Clone()} }
