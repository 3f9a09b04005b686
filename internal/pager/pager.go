// Package pager simulates the secondary-memory model of the paper's
// external-memory algorithm (Section 3.5): fixed-size pages (8 KiB by
// default), 4-byte cells (2048 cells per 8 KiB page, as in the
// paper's disk experiments), and I/O counters as the cost metric. A
// single-page buffer is the only caching — consecutive accesses to the
// same page cost one I/O, matching the paper's "no further caching"
// setup.
//
// Two backends are provided: an in-memory backend (fast, used by the
// benchmark harness) and a file backend (real disk I/O through the
// same interface).
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// DefaultPageSize is the page size used throughout the paper's
// experiments.
const DefaultPageSize = 8192

// CellSize is the size of one measure value on disk; the paper stores
// 4-byte measures, so an 8 KiB page holds 2048 cells.
const CellSize = 4

// Backend stores fixed-size pages by id. Pages that were never stored
// read as all zero.
type Backend interface {
	// Load fills buf (exactly one page) with the content of page id.
	Load(id int, buf []byte) error
	// Store persists buf (exactly one page) as page id.
	Store(id int, buf []byte) error
	// Close releases backend resources, syncing first where that is
	// meaningful.
	Close() error
}

// MemBackend keeps pages in memory; it exists so the cost model can be
// exercised deterministically without touching the filesystem.
type MemBackend struct {
	pages map[int][]byte
	size  int
}

// NewMemBackend returns an empty in-memory backend for pages of the
// given size.
func NewMemBackend(pageSize int) *MemBackend {
	return &MemBackend{pages: make(map[int][]byte), size: pageSize}
}

// Load implements Backend.
func (m *MemBackend) Load(id int, buf []byte) error {
	if p, ok := m.pages[id]; ok {
		copy(buf, p)
		return nil
	}
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

// Store implements Backend.
func (m *MemBackend) Store(id int, buf []byte) error {
	p, ok := m.pages[id]
	if !ok {
		p = make([]byte, m.size)
		m.pages[id] = p
	}
	copy(p, buf)
	return nil
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// FileBackend stores pages in a regular file at offset id*pageSize.
type FileBackend struct {
	f    *os.File
	size int
}

// NewFileBackend creates (or truncates) the file at path.
func NewFileBackend(path string, pageSize int) (*FileBackend, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileBackend{f: f, size: pageSize}, nil
}

// Load implements Backend; reads past EOF yield zero pages. Only EOF
// is tolerated — a page that was never written reads as zero by
// design, but any other read error (a failing disk, a closed file)
// propagates instead of being silently zero-filled, which would turn
// an I/O fault into wrong query answers.
func (b *FileBackend) Load(id int, buf []byte) error {
	n, err := b.f.ReadAt(buf, int64(id)*int64(b.size))
	if err != nil {
		if !errors.Is(err, io.EOF) {
			return fmt.Errorf("pager: loading page %d: %w", id, err)
		}
		// Short read at EOF: the remainder was never stored, so it is
		// zero.
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	}
	return nil
}

// Store implements Backend.
func (b *FileBackend) Store(id int, buf []byte) error {
	_, err := b.f.WriteAt(buf, int64(id)*int64(b.size))
	return err
}

// Close implements Backend. It syncs before closing — pages written
// through WriteAt otherwise sit in the OS cache with no durability
// point at all — and propagates both the sync and the close error
// (first one wins) instead of swallowing them.
func (b *FileBackend) Close() error {
	err := b.f.Sync()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Pager provides cell-granular access to paged storage of float32
// measure values, with the single-page buffer cost model. Reads and
// Writes count page I/Os (a buffer hit costs nothing; evicting a dirty
// page costs one write).
type Pager struct {
	backend  Backend
	pageSize int
	perPage  int

	cur   int // buffered page id, -1 if none
	buf   []byte
	dirty bool

	Reads  int64
	Writes int64
}

// New returns a Pager over the backend.
func New(b Backend, pageSize int) (*Pager, error) {
	if pageSize < CellSize || pageSize%CellSize != 0 {
		return nil, fmt.Errorf("pager: page size %d is not a positive multiple of the cell size %d", pageSize, CellSize)
	}
	return &Pager{
		backend:  b,
		pageSize: pageSize,
		perPage:  pageSize / CellSize,
		cur:      -1,
		buf:      make([]byte, pageSize),
	}, nil
}

// CellsPerPage returns the number of 4-byte cells per page (2048 for
// the default 8 KiB page).
func (p *Pager) CellsPerPage() int { return p.perPage }

// PageOf returns the page id holding cell index i.
func (p *Pager) PageOf(i int) int { return i / p.perPage }

// pin makes page id current, flushing a dirty buffer first.
func (p *Pager) pin(id int) error {
	if p.cur == id {
		return nil
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	if err := p.backend.Load(id, p.buf); err != nil {
		return err
	}
	p.Reads++
	p.cur = id
	return nil
}

func (p *Pager) flushLocked() error {
	if p.cur >= 0 && p.dirty {
		if err := p.backend.Store(p.cur, p.buf); err != nil {
			return err
		}
		p.Writes++
		p.dirty = false
	}
	return nil
}

// ReadCell reads the float32 measure at global cell index i.
func (p *Pager) ReadCell(i int) (float64, error) {
	if err := p.pin(p.PageOf(i)); err != nil {
		return 0, err
	}
	off := (i % p.perPage) * CellSize
	bits := binary.LittleEndian.Uint32(p.buf[off:])
	return float64(math.Float32frombits(bits)), nil
}

// WriteCell writes the measure at global cell index i (stored as
// float32, as in the paper's 4-byte cells).
func (p *Pager) WriteCell(i int, v float64) error {
	if err := p.pin(p.PageOf(i)); err != nil {
		return err
	}
	off := (i % p.perPage) * CellSize
	binary.LittleEndian.PutUint32(p.buf[off:], math.Float32bits(float32(v)))
	p.dirty = true
	return nil
}

// Flush writes the buffered page back if dirty.
func (p *Pager) Flush() error { return p.flushLocked() }

// Close flushes and closes the backend.
func (p *Pager) Close() error {
	if err := p.flushLocked(); err != nil {
		return err
	}
	return p.backend.Close()
}

// IOs returns Reads+Writes, the total page access count.
func (p *Pager) IOs() int64 { return p.Reads + p.Writes }

// ResetCounters zeroes the I/O counters (e.g. between benchmark
// phases). The buffered page stays pinned, matching a measurement that
// starts with a warm one-page buffer.
func (p *Pager) ResetCounters() {
	p.Reads = 0
	p.Writes = 0
}
