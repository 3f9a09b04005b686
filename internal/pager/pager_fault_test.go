package pager_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"histcube/internal/pager"
)

// TestFileBackendLoadPastEOF pins the designed behaviour: pages never
// stored read as zero, including a page that straddles EOF.
func TestFileBackendLoadPastEOF(t *testing.T) {
	b, err := pager.NewFileBackend(filepath.Join(t.TempDir(), "pages"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Store(0, []byte("01234567")); err != nil {
		t.Fatal(err)
	}
	buf := []byte("xxxxxxxx")
	if err := b.Load(5, buf); err != nil {
		t.Fatalf("load past EOF: %v", err)
	}
	if string(buf) != "\x00\x00\x00\x00\x00\x00\x00\x00" {
		t.Fatalf("page past EOF = %q, want zeros", buf)
	}
}

// TestFileBackendLoadPropagatesRealErrors is the regression test for
// the bug where every read error was zero-filled and reported as
// success: a Load against a closed file must fail, not silently return
// a zero page.
func TestFileBackendLoadPropagatesRealErrors(t *testing.T) {
	b, err := pager.NewFileBackend(filepath.Join(t.TempDir(), "pages"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Store(0, []byte("01234567")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	err = b.Load(0, buf)
	if err == nil {
		t.Fatal("Load on a closed file reported success")
	}
	if !strings.Contains(err.Error(), "loading page 0") {
		t.Fatalf("error %v should name the page", err)
	}
}

// TestFileBackendErrorPropagation drives Store and Close through
// their failure paths against a closed file.
func TestFileBackendErrorPropagation(t *testing.T) {
	b, err := pager.NewFileBackend(filepath.Join(t.TempDir(), "pages"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(0, make([]byte, 8)); err == nil {
		t.Error("Store on a closed file reported success")
	}
	if err := b.Close(); err == nil {
		t.Error("second Close reported success")
	}
}

// failNthLoad fails the backend's nth Load.
type failNthLoad struct {
	pager.Backend
	n, loads int
}

func (f *failNthLoad) Load(id int, buf []byte) error {
	if f.loads++; f.loads == f.n {
		return errors.New("injected load fault")
	}
	return f.Backend.Load(id, buf)
}

// TestPagerSurfacesBackendFaults runs a Pager over a faulty backend and
// checks the error reaches cell reads instead of being absorbed into a
// zero page.
func TestPagerSurfacesBackendFaults(t *testing.T) {
	b := &failNthLoad{Backend: pager.NewMemBackend(64), n: 2}
	p, err := pager.New(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCell(0, 1.5); err != nil {
		t.Fatal(err)
	}
	// Pin page 0 (load op 1), then force an eviction to page 1 so the
	// second load hits the injected fault.
	if _, err := p.ReadCell(0); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := p.ReadCell(100); err == nil {
		t.Fatal("faulted page load should surface from ReadCell")
	}
}
