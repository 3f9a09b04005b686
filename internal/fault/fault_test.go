package fault

import (
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                      // no rules
		"wal.write",             // no kind
		"wal.write:explode",     // unknown kind
		"wal.write:slow=banana", // bad duration
		"wal.write:err@0",       // @N must be >= 1
		"wal.write:err%2",       // probability > 1
		"wal.write:err%0",       // probability must be positive
		"wal.write:err@3%0.5",   // mixed triggers
		"wal.write:errx0",       // bad cap
		":err",                  // empty site
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestNthOpFiresOnce(t *testing.T) {
	inj := MustParse("wal.write:err@3", 1)
	for n := 1; n <= 6; n++ {
		out := inj.Check("wal.write")
		if (n == 3) != (out.Err != nil) {
			t.Fatalf("op %d: err=%v, want an error exactly on op 3", n, out.Err)
		}
	}
	if got := inj.Ops("wal.write"); got != 6 {
		t.Fatalf("Ops = %d, want 6", got)
	}
}

func TestPersistentNthOp(t *testing.T) {
	inj := MustParse("wal.write:nospace@3+", 1)
	for n := 1; n <= 6; n++ {
		out := inj.Check("wal.write")
		wantErr := n >= 3
		if wantErr != (out.Err != nil) {
			t.Fatalf("op %d: err=%v, want errors from op 3 on", n, out.Err)
		}
		if wantErr && !errors.Is(out.Err, syscall.ENOSPC) {
			t.Fatalf("op %d: %v should wrap syscall.ENOSPC", n, out.Err)
		}
	}
}

func TestFireCap(t *testing.T) {
	inj := MustParse("pager.load:err@2+x2", 1)
	errs := 0
	for n := 1; n <= 10; n++ {
		if inj.Check("pager.load").Err != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("errors = %d, want the x2 cap", errs)
	}
}

func TestSitesAreIndependent(t *testing.T) {
	inj := MustParse("wal.write:err@1", 1)
	if out := inj.Check("wal.sync"); out.Err != nil {
		t.Fatalf("wal.sync should be unaffected, got %v", out.Err)
	}
	if out := inj.Check("wal.write"); out.Err == nil {
		t.Fatal("wal.write op 1 should fail")
	}
}

func TestProbabilisticIsSeedDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		inj := MustParse("pager.load:err%0.3", seed)
		out := make([]bool, 50)
		for n := range out {
			out[n] = inj.Check("pager.load").Err != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i+1)
		}
	}
	fires := 0
	for _, hit := range a {
		if hit {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("fires = %d/%d, want a proper subset for p=0.3", fires, len(a))
	}
}

func TestSlowOutcome(t *testing.T) {
	inj := MustParse("wal.sync:slow=5ms@1", 1)
	if d := inj.Check("wal.sync").Delay; d != 5*time.Millisecond {
		t.Fatalf("Delay = %v, want 5ms", d)
	}
}

func TestPanicKindPanics(t *testing.T) {
	inj := MustParse("serve.dispatch:panic@2", 1)
	if out := inj.Check("serve.dispatch"); out.Err != nil {
		t.Fatalf("op 1 should pass, got %v", out.Err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("op 2 should panic")
		}
		if !strings.Contains(r.(string), "serve.dispatch") {
			t.Fatalf("panic %v should name the site", r)
		}
	}()
	inj.Check("serve.dispatch")
}

func TestHeal(t *testing.T) {
	inj := MustParse("wal.write:err", 1)
	if inj.Check("wal.write").Err == nil {
		t.Fatal("armed rule should fire on every op")
	}
	inj.Heal()
	if inj.Check("wal.write").Err != nil {
		t.Fatal("healed injector should be inert")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if out := inj.Check("anything"); out.Err != nil || out.Delay != 0 {
		t.Fatalf("nil injector returned %+v", out)
	}
}

// memFile is a minimal File for wrapper tests.
type memFile struct {
	data   []byte
	syncs  int
	closes int
}

func (m *memFile) Write(p []byte) (int, error) { m.data = append(m.data, p...); return len(p), nil }
func (m *memFile) Sync() error                 { m.syncs++; return nil }
func (m *memFile) Close() error                { m.closes++; return nil }
func (m *memFile) Truncate(size int64) error   { m.data = m.data[:size]; return nil }

func TestWrapFileTornWrite(t *testing.T) {
	inj := MustParse("wal.write:short@2", 1)
	mf := &memFile{}
	f := inj.WrapFile("wal", mf)
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	n, err := f.Write([]byte("abcdefghij"))
	if err == nil {
		t.Fatal("op 2 should fail torn")
	}
	if n != 5 || string(mf.data) != "0123456789abcde" {
		t.Fatalf("torn write persisted %d bytes, data %q; want half the buffer", n, mf.data)
	}
	// Truncate passes through so the WAL's repair can cut back.
	if err := f.Truncate(10); err != nil || string(mf.data) != "0123456789" {
		t.Fatalf("truncate rollback failed: %v, data %q", err, mf.data)
	}
}
