// Package directory implements the time directory of Section 2.3: the
// mapping between occurring time values in the TT-dimension and the
// instances of the (d-1)-dimensional structure R_{d-1}. The paper
// suggests "standard one-dimensional data structures for this
// purpose, e.g., a B-tree for a sparse or an array for a dense
// TT-dimension". The array is the one both the served cube and the
// framework use. A pointer to the latest instance keeps update lookups
// O(1); Floor lookups cost at most O(log n).
package directory

import (
	"errors"
	"sort"
)

// ErrNotAppendOnly reports an Append with a time value not greater
// than the latest occurring time.
var ErrNotAppendOnly = errors.New("directory: time value must exceed the latest occurring time")

// Array is the dense-TT-dimension directory: a sorted slice of the
// occurring time values with binary-search lookups, mapping each to a
// dense instance index.
type Array struct {
	times []int64
}

// NewArray returns an empty array directory.
func NewArray() *Array { return &Array{} }

// Append registers a new occurring time (strictly greater than the
// latest) and returns its instance index.
func (a *Array) Append(t int64) (int, error) {
	if n := len(a.times); n > 0 && t <= a.times[n-1] {
		return 0, ErrNotAppendOnly
	}
	a.times = append(a.times, t)
	return len(a.times) - 1, nil
}

// Floor returns the index of the greatest occurring time <= t.
func (a *Array) Floor(t int64) (int, bool) {
	idx := sort.Search(len(a.times), func(i int) bool { return a.times[i] > t }) - 1
	return idx, idx >= 0
}

// Latest returns the latest instance index and time; ok is false when
// empty. This is the O(1) pointer of Section 2.3.
func (a *Array) Latest() (idx int, t int64, ok bool) {
	n := len(a.times)
	if n == 0 {
		return 0, 0, false
	}
	return n - 1, a.times[n-1], true
}

// Len returns the number of occurring times.
func (a *Array) Len() int { return len(a.times) }

// Time returns the occurring time of instance idx.
func (a *Array) Time(idx int) int64 { return a.times[idx] }

// Times returns the backing slice of occurring times in ascending
// order. Callers must not mutate it; it stays valid until the next
// Append.
func (a *Array) Times() []int64 { return a.times }
