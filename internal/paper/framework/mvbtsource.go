package framework

import (
	"fmt"

	"histcube/internal/dims"
	"histcube/internal/paper/mvbt"
)

// MVBTSource keeps all instances as versions of one multiversion
// B-tree (internal/paper/mvbt) over one-dimensional int64 keys — the
// external-memory multiversion route of Section 4: snapshots are free
// (a version number), old versions stay queryable at B-tree cost, and
// storage grows linearly in the number of updates.
type MVBTSource struct {
	t        *mvbt.Tree
	versions []int64
}

// NewMVBTSource returns an empty MVBT-backed instance source.
//
//histlint:ignore deadexport Sec. 4 MVBT source (DESIGN row 13b); mvbtsource_test.go and the root integration test compare it with the other sources
func NewMVBTSource() (*MVBTSource, error) {
	t, err := mvbt.New(mvbt.Config{})
	if err != nil {
		return nil, err
	}
	return &MVBTSource{t: t}, nil
}

// Update implements InstanceSource; x must be one-dimensional.
func (s *MVBTSource) Update(newInstance bool, x []int, delta float64) error {
	if len(x) != 1 {
		return fmt.Errorf("framework: MVBTSource requires 1-dimensional points, got %d", len(x))
	}
	if newInstance {
		s.versions = append(s.versions, s.t.Version())
	}
	if len(s.versions) == 0 {
		return fmt.Errorf("framework: update before any instance exists")
	}
	if err := s.t.Add(int64(x[0]), delta); err != nil {
		return err
	}
	s.versions[len(s.versions)-1] = s.t.Version()
	return nil
}

// QueryAt implements InstanceSource.
func (s *MVBTSource) QueryAt(idx int, b dims.Box) (float64, error) {
	if idx < 0 || idx >= len(s.versions) {
		return 0, fmt.Errorf("framework: instance %d out of range [0,%d)", idx, len(s.versions))
	}
	if len(b.Lo) != 1 {
		return 0, fmt.Errorf("framework: MVBTSource requires 1-dimensional boxes, got %d", len(b.Lo))
	}
	return s.t.RangeSum(s.versions[idx], int64(b.Lo[0]), int64(b.Hi[0])), nil
}

// UpdateFrom implements InstanceSource: multiversion history is
// immutable.
func (s *MVBTSource) UpdateFrom(int, []int, float64) error {
	return ErrCascadeUnsupported
}

// Len implements InstanceSource.
func (s *MVBTSource) Len() int { return len(s.versions) }
