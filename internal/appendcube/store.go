package appendcube

import (
	"fmt"

	"histcube/internal/pager"
)

// Flag describes the state of one cell of one historic time slice.
type Flag uint8

const (
	// Unmaterialized means the cell was never copied from cache: its
	// value for this slice is the cache value (the cache timestamp is
	// <= the slice index, by the lazy-copy invariant).
	Unmaterialized Flag = iota
	// DDCValue means the cell holds a DDC-aggregated cumulative value
	// copied from cache.
	DDCValue
	// PSValue means the cell was converted to a prefix-sum value by
	// the eCube query algorithm.
	PSValue
)

// SliceStore stores the historic time slices of an append-only cube.
// Slice indices are dense and reserved in increasing order. The store
// counts its accesses in its native cost unit: cells for the
// in-memory store, page I/Os for the disk store.
type SliceStore interface {
	// Flags reports whether the store keeps per-cell flags. A store
	// without flags cannot distinguish materialised from unmaterialised
	// cells, so the cube falls back to the paper's timestamp rule and
	// skips eCube conversion.
	Flags() bool
	// Reserve allocates (but does not fill) space for slice s. It is
	// called with s = 0, 1, 2, ... in order.
	Reserve(s int) error
	// Read returns the value and flag of cell off of slice s.
	Read(s, off int) (float64, Flag, error)
	// Write materialises cell off of slice s.
	Write(s, off int, v float64, f Flag) error
	// Convert stores a PS value for cell off of slice s, if the store
	// supports it. Conversion is free (not counted): the paper notes
	// the transformation adds no access overhead since only cells the
	// query already holds are rewritten.
	Convert(s, off int, v float64) (bool, error)
	// Accesses returns the cumulative counted accesses.
	Accesses() int64
}

// MemStore keeps historic slices in main memory, one value and one
// flag byte per cell. It is the store behind the paper's in-memory
// algorithm (Figures 8 and 9).
type MemStore struct {
	size     int
	vals     [][]float64
	flags    [][]uint8
	accesses int64
}

// NewMemStore returns an empty in-memory store for slices of the
// given cell count.
func NewMemStore(sliceSize int) *MemStore {
	return &MemStore{size: sliceSize}
}

// Flags implements SliceStore.
func (m *MemStore) Flags() bool { return true }

// Reserve implements SliceStore. The allocation itself is not counted:
// the paper's algorithm only marks the memory block as reserved.
func (m *MemStore) Reserve(s int) error {
	if s != len(m.vals) {
		return fmt.Errorf("appendcube: reserve slice %d out of order (have %d)", s, len(m.vals))
	}
	m.vals = append(m.vals, make([]float64, m.size))
	m.flags = append(m.flags, make([]uint8, m.size))
	return nil
}

// Read implements SliceStore.
func (m *MemStore) Read(s, off int) (float64, Flag, error) {
	m.accesses++
	return m.vals[s][off], Flag(m.flags[s][off]), nil
}

// Write implements SliceStore.
func (m *MemStore) Write(s, off int, v float64, f Flag) error {
	m.accesses++
	m.vals[s][off] = v
	m.flags[s][off] = uint8(f)
	return nil
}

// Convert implements SliceStore (free rewrite to a PS value).
func (m *MemStore) Convert(s, off int, v float64) (bool, error) {
	m.vals[s][off] = v
	m.flags[s][off] = uint8(PSValue)
	return true, nil
}

// Accesses implements SliceStore (unit: cells).
func (m *MemStore) Accesses() int64 { return m.accesses }

// DiskStore keeps historic slices on paged secondary storage
// (Section 3.5): 4-byte cells, slice-major layout, page-granular cost
// accounting through the pager's single-page buffer. It keeps no
// per-cell flags; the cube uses the timestamp rule for reads and the
// page-wise copy-ahead policy.
type DiskStore struct {
	size int
	pg   *pager.Pager
	n    int
}

// NewDiskStore returns a store over the given pager for slices of the
// given cell count.
func NewDiskStore(sliceSize int, pg *pager.Pager) *DiskStore {
	return &DiskStore{size: sliceSize, pg: pg}
}

// Flags implements SliceStore.
func (d *DiskStore) Flags() bool { return false }

// Reserve implements SliceStore: disk pages materialise on first
// write, so reserving is free (the paper likewise only reserves the
// address range).
func (d *DiskStore) Reserve(s int) error {
	if s != d.n {
		return fmt.Errorf("appendcube: reserve slice %d out of order (have %d)", s, d.n)
	}
	d.n++
	return nil
}

// Read implements SliceStore. The flag is always DDCValue: without
// flags the cube must only read cells the timestamp rule proves
// materialised, and the disk store never holds PS conversions.
func (d *DiskStore) Read(s, off int) (float64, Flag, error) {
	v, err := d.pg.ReadCell(s*d.size + off)
	return v, DDCValue, err
}

// Write implements SliceStore.
func (d *DiskStore) Write(s, off int, v float64, f Flag) error {
	return d.pg.WriteCell(s*d.size+off, v)
}

// Convert implements SliceStore: not supported on disk.
func (d *DiskStore) Convert(int, int, float64) (bool, error) { return false, nil }

// Accesses implements SliceStore (unit: page I/Os).
func (d *DiskStore) Accesses() int64 { return d.pg.IOs() }

// Pager exposes the underlying pager (for flushing and I/O stats).
func (d *DiskStore) Pager() *pager.Pager { return d.pg }

// CellsPerPage returns the page capacity, which the page-wise
// copy-ahead policy copies per update.
func (d *DiskStore) CellsPerPage() int { return d.pg.CellsPerPage() }

// PageSpan returns the global cell index range [lo, hi) of page p
// clipped to slice s.
func (d *DiskStore) PageSpan(s, p int) (lo, hi int) {
	per := d.pg.CellsPerPage()
	base := s * d.size
	lo = p * per
	hi = lo + per
	if lo < base {
		lo = base
	}
	if hi > base+d.size {
		hi = base + d.size
	}
	return lo - base, hi - base
}
