package pager

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadPageSize(t *testing.T) {
	for _, sz := range []int{0, -8, 3, 6} {
		if _, err := New(NewMemBackend(sz), sz); err == nil {
			t.Errorf("New accepted page size %d", sz)
		}
	}
}

func TestCellsPerPageDefault(t *testing.T) {
	p, err := New(NewMemBackend(DefaultPageSize), DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if p.CellsPerPage() != 2048 {
		t.Errorf("CellsPerPage = %d, want 2048 (paper: 8K page, 4-byte cells)", p.CellsPerPage())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	p, _ := New(NewMemBackend(64), 64)
	for i := 0; i < 100; i++ {
		if err := p.WriteCell(i, float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := p.ReadCell(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(i)*0.5 {
			t.Fatalf("cell %d = %v, want %v", i, got, float64(i)*0.5)
		}
	}
}

func TestUnwrittenCellsReadZero(t *testing.T) {
	p, _ := New(NewMemBackend(64), 64)
	got, err := p.ReadCell(12345)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("unwritten cell = %v", got)
	}
}

func TestSinglePageBufferCostModel(t *testing.T) {
	p, _ := New(NewMemBackend(64), 64) // 16 cells per page
	// All accesses within one page cost exactly one read.
	for i := 0; i < 16; i++ {
		if _, err := p.ReadCell(i); err != nil {
			t.Fatal(err)
		}
	}
	if p.Reads != 1 || p.Writes != 0 {
		t.Fatalf("same-page reads cost %d reads %d writes, want 1/0", p.Reads, p.Writes)
	}
	// Touching a second page costs another read.
	if _, err := p.ReadCell(16); err != nil {
		t.Fatal(err)
	}
	if p.Reads != 2 {
		t.Fatalf("second page read: Reads = %d, want 2", p.Reads)
	}
	// Dirtying page 1 then switching pages incurs one write-back.
	if err := p.WriteCell(16, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadCell(0); err != nil {
		t.Fatal(err)
	}
	if p.Writes != 1 {
		t.Fatalf("dirty eviction: Writes = %d, want 1", p.Writes)
	}
	if p.IOs() != p.Reads+p.Writes {
		t.Error("IOs() inconsistent")
	}
}

func TestFlushPersistsDirtyPage(t *testing.T) {
	b := NewMemBackend(64)
	p, _ := New(b, 64)
	if err := p.WriteCell(3, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(b.pages) != 1 {
		t.Fatalf("backend holds %d pages after flush, want 1", len(b.pages))
	}
	// A fresh pager over the same backend sees the value.
	p2, _ := New(b, 64)
	got, err := p2.ReadCell(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("reloaded cell = %v, want 7", got)
	}
}

func TestResetCounters(t *testing.T) {
	p, _ := New(NewMemBackend(64), 64)
	if _, err := p.ReadCell(0); err != nil {
		t.Fatal(err)
	}
	p.ResetCounters()
	if p.Reads != 0 || p.Writes != 0 {
		t.Error("counters not reset")
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	b, err := NewFileBackend(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(b, 64)
	for i := 0; i < 50; i++ {
		if err := p.WriteCell(i*7, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := p.ReadCell(i * 7)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(i) {
			t.Fatalf("cell %d = %v, want %d", i*7, got, i)
		}
	}
	// Reading far past everything written yields zero.
	got, err := p.ReadCell(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("past-EOF cell = %v", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// Property: a Pager behaves like a flat float32 array under random
// read/write sequences, on both backends.
func TestPagerShadowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, err := New(NewMemBackend(32), 32) // 8 cells/page
		if err != nil {
			return false
		}
		shadow := make(map[int]float64)
		for op := 0; op < 200; op++ {
			i := r.Intn(100)
			if r.Intn(2) == 0 {
				v := float64(r.Intn(1000))
				if err := p.WriteCell(i, v); err != nil {
					return false
				}
				shadow[i] = v
			} else {
				got, err := p.ReadCell(i)
				if err != nil || got != shadow[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFileBackendSyncAndCloseErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	b, err := NewFileBackend(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(b, 64)
	if err := p.WriteCell(3, 42); err != nil {
		t.Fatal(err)
	}
	// Flush writes the dirty buffered page back to the file: the value
	// must then be visible through a second backend.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	b2, err := openFileBackend(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := New(b2, 64)
	if got, err := p2.ReadCell(3); err != nil || got != 42 {
		t.Fatalf("after Flush, reopened cell = %v (%v), want 42", got, err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// A second close hits the already-closed file; the error must
	// surface instead of being swallowed.
	if err := b.Close(); err == nil {
		t.Error("double close reported no error")
	}
}

// openFileBackend opens the page file at path without truncating it,
// creating it when absent — the reopen path a durable deployment takes
// across restarts.
func openFileBackend(path string, pageSize int) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileBackend{f: f, size: pageSize}, nil
}
