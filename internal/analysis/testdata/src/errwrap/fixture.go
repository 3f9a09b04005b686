package errwrap

import (
	"fmt"
	"os"
)

func wrapBad(err error) error {
	return fmt.Errorf("open failed: %v", err) // want `use %w so callers can errors\.Is/As`
}

func wrapGood(err error) error {
	return fmt.Errorf("open failed: %w", err)
}

func wrapNoError(n int) error {
	return fmt.Errorf("bad count: %d", n)
}

func dropBad(f *os.File) {
	f.Close() // want `f\.Close\(\) silently drops its error`
}

func dropDeferBad(f *os.File) {
	defer f.Close() // want `defer f\.Close\(\) silently drops its error`
}

func dropSyncBad(f *os.File) {
	f.Sync() // want `f\.Sync\(\) silently drops its error`
}

func handled(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func explicitDiscard(f *os.File) {
	_ = f.Close()
}

// --- retry-helper idioms ---
//
// Retry closures are ordinary error paths: a %v inside one hides the
// wrapped cause from errors.Is exactly like it would anywhere else, and
// Sync calls inside a closure still may not drop their error.

type policy struct{}

func (policy) Do(label string, fn func() error) error { return fn() }

func permanent(err error) error { return fmt.Errorf("permanent: %w", err) }

func retryFlattensCause(p policy, f *os.File) error {
	return p.Do("seg.write", func() error {
		if _, err := f.Write(nil); err != nil {
			return fmt.Errorf("segment write: %v", err) // want `use %w so callers can errors\.Is/As`
		}
		return nil
	})
}

func retryWrapsCause(p policy, f *os.File) error {
	return p.Do("seg.write", func() error {
		if _, err := f.Write(nil); err != nil {
			return fmt.Errorf("segment write: %w", err)
		}
		return nil
	})
}

func retryDoubleWrap(p policy, f *os.File) error {
	return p.Do("seg.rollback", func() error {
		_, err := f.Write(nil)
		if err == nil {
			return nil
		}
		if terr := f.Truncate(0); terr != nil {
			return permanent(fmt.Errorf("rollback failed: %w (after write error: %w)", terr, err))
		}
		return err
	})
}

func retryDropsSync(p policy, f *os.File) error {
	return p.Do("seg.sync", func() error {
		f.Sync() // want `f\.Sync\(\) silently drops its error`
		return nil
	})
}

// Passing the Sync method value itself hands the error to the retry
// policy; nothing is dropped.
func retryMethodValue(p policy, f *os.File) error {
	return p.Do("seg.sync", f.Sync)
}
