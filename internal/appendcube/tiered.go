package appendcube

import (
	"errors"
	"fmt"
)

// TieredStore implements the data-aging scheme the paper's conclusion
// describes: "an aging process moves old detail data to (slower) mass
// storage ... aggregates of retired detail data can be retained
// without additional computation costs at the time of the retirement."
// Because the cube clusters data by time coordinate, aging is just a
// slice-granular demotion: complete historic slices move from the hot
// in-memory store to a cold (typically disk) store; their cumulative
// pre-aggregated values are already the retained aggregates.
//
// Slices with index < boundary live in the cold store; queries route
// transparently. Cold slices lose their PS-conversion flags (the cold
// store keeps plain values), so reads report DDC values — still
// correct, at DDC query cost.
type TieredStore struct {
	hot       *MemStore
	cold      SliceStore
	boundary  int   // slices < boundary are cold
	demotions int64 // slices demoted so far (tier-promotion progress)
}

// NewTieredStore layers a hot in-memory store over a cold store.
func NewTieredStore(sliceSize int, cold SliceStore) *TieredStore {
	return &TieredStore{hot: NewMemStore(sliceSize), cold: cold}
}

// Cold exposes the cold store (for flushing and closing its backing
// resources).
func (t *TieredStore) Cold() SliceStore { return t.cold }

// Flags implements SliceStore: hot slices carry flags; cold reads
// report materialised DDC values, which the flag-based read rule
// handles (a demoted slice is complete, so no cell falls back to
// cache through the Unmaterialized path).
func (t *TieredStore) Flags() bool { return true }

// Reserve implements SliceStore.
func (t *TieredStore) Reserve(s int) error {
	if err := t.cold.Reserve(s); err != nil {
		return err
	}
	return t.hot.Reserve(s)
}

// Read implements SliceStore.
func (t *TieredStore) Read(s, off int) (float64, Flag, error) {
	if s < t.boundary {
		v, _, err := t.cold.Read(s, off)
		return v, DDCValue, err
	}
	return t.hot.Read(s, off)
}

// Write implements SliceStore. Writes to cold slices indicate a bug:
// only complete slices are demoted and complete slices receive no
// further copies.
func (t *TieredStore) Write(s, off int, v float64, f Flag) error {
	if s < t.boundary {
		return fmt.Errorf("appendcube: write to retired slice %d", s)
	}
	return t.hot.Write(s, off, v, f)
}

// Convert implements SliceStore: hot slices convert; cold ones
// decline.
func (t *TieredStore) Convert(s, off int, v float64) (bool, error) {
	if s < t.boundary {
		return false, nil
	}
	return t.hot.Convert(s, off, v)
}

// Accesses implements SliceStore (hot cells + cold accesses in the
// cold store's unit).
func (t *TieredStore) Accesses() int64 { return t.hot.Accesses() + t.cold.Accesses() }

// NumSlices implements SliceStore.
func (t *TieredStore) NumSlices() int { return t.hot.NumSlices() }

// ErrNotTiered reports an aging request on a cube without a
// TieredStore.
var ErrNotTiered = errors.New("appendcube: cube store is not tiered; configure a TieredStore to age slices")

// ErrIncompleteSlice reports a demotion of a slice that is not
// completely copied yet.
var ErrIncompleteSlice = errors.New("appendcube: cannot retire an incompletely copied slice")

// demote moves slice s (which must be the current boundary and
// complete) to the cold store and frees its hot storage.
func (t *TieredStore) demote(s int) error {
	if s != t.boundary {
		return fmt.Errorf("appendcube: demote slice %d out of order (boundary %d)", s, t.boundary)
	}
	vals := t.hot.vals[s]
	flags := t.hot.flags[s]
	for off, f := range flags {
		if Flag(f) == Unmaterialized {
			return fmt.Errorf("%w: slice %d cell %d", ErrIncompleteSlice, s, off)
		}
		if err := t.cold.Write(s, off, vals[off], DDCValue); err != nil {
			return err
		}
	}
	t.hot.vals[s] = nil
	t.hot.flags[s] = nil
	t.boundary = s + 1
	t.demotions++
	return nil
}

// Demotions returns how many slices have been demoted to the cold
// store since the process started.
func (t *TieredStore) Demotions() int64 { return t.demotions }

// Age retires the oldest n historic slices of the cube to the cold
// store: they are force-completed first (retaining their cumulative
// aggregates costs nothing extra, per the paper), then demoted. The
// latest slice never retires. It returns the number of slices
// actually demoted.
func (c *Cube) Age(n int) (int, error) {
	ts, ok := c.store.(*TieredStore)
	if !ok {
		return 0, ErrNotTiered
	}
	latest := c.dir.Len() - 1
	demoted := 0
	for i := 0; i < n; i++ {
		s := ts.boundary
		if s >= latest {
			break
		}
		// Complete the slice: copy every cache cell still covering it.
		for off := range c.cache {
			cell := &c.cache[off]
			if int(cell.ts) <= s {
				for v := cell.ts; int(v) <= s; v++ {
					if err := c.store.Write(int(v), off, cell.val, DDCValue); err != nil {
						return demoted, err
					}
				}
				c.moveTS(off, int32(s+1))
			}
		}
		if err := ts.demote(s); err != nil {
			return demoted, err
		}
		demoted++
	}
	return demoted, nil
}
