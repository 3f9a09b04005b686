package appendcube

import (
	"errors"
	"testing"

	"histcube/internal/dims"
	"histcube/internal/pager"
)

// faultBackend fails every page operation after a fuse burns,
// simulating a dying disk.
type faultBackend struct {
	inner pager.Backend
	fuse  int
	err   error
}

func (f *faultBackend) tick() error {
	if f.fuse <= 0 {
		return f.err
	}
	f.fuse--
	return nil
}

func (f *faultBackend) Load(id int, buf []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Load(id, buf)
}

func (f *faultBackend) Store(id int, buf []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.Store(id, buf)
}

func (f *faultBackend) Close() error { return f.inner.Close() }

var errDiskDied = errors.New("simulated disk failure")

// TestDiskFaultsPropagate burns the fuse at several points of a
// disk-backed cube's life; the I/O error must surface from Update (or
// a later operation) rather than being swallowed.
func TestDiskFaultsPropagate(t *testing.T) {
	for _, fuse := range []int{0, 1, 3, 10, 40} {
		fb := &faultBackend{inner: pager.NewMemBackend(64), fuse: fuse, err: errDiskDied}
		pg, err := pager.New(fb, 64)
		if err != nil {
			t.Fatal(err)
		}
		shape := dims.Shape{8, 8}
		c, err := New(Config{SliceShape: shape, Store: NewDiskStore(shape.Size(), pg)})
		if err != nil {
			t.Fatal(err)
		}
		sawErr := false
		for i := 0; i < 200 && !sawErr; i++ {
			if _, err := c.Update(int64(i/10), []int{i % 8, (i / 8) % 8}, 1); err != nil {
				if !errors.Is(err, errDiskDied) {
					t.Fatalf("fuse %d: unexpected error %v", fuse, err)
				}
				sawErr = true
			}
		}
		if !sawErr {
			// Updates may have stayed within the page buffer; a query
			// or flush must surface the failure instead.
			if _, err := c.Query(0, 100, dims.FullBox(shape)); err == nil {
				if err := pg.Flush(); err == nil {
					t.Fatalf("fuse %d: no operation surfaced the disk failure", fuse)
				}
			}
		}
	}
}

// TestDiskFaultDuringForceComplete exercises the bulk-copy error path.
func TestDiskFaultDuringForceComplete(t *testing.T) {
	fb := &faultBackend{inner: pager.NewMemBackend(64), fuse: 1 << 30, err: errDiskDied}
	pg, err := pager.New(fb, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Two updates per 256-cell slice (16 pages): the one-page-per-update
	// sweep cannot keep up, so ForceComplete has real copying left.
	shape := dims.Shape{16, 16}
	c, err := New(Config{SliceShape: shape, Store: NewDiskStore(shape.Size(), pg)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Update(int64(i/2), []int{i % 16, (i / 16) % 16}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if c.Incomplete() == 0 {
		t.Fatal("test setup: no incomplete slices to copy")
	}
	fb.fuse = 0 // disk dies now
	if err := c.ForceComplete(); !errors.Is(err, errDiskDied) {
		t.Errorf("ForceComplete err = %v, want the disk failure", err)
	}
}
