// Package stats provides the small statistical helpers the paper's
// evaluation section needs: sorted per-operation cost curves
// (Figures 12-14), rolling averages over query sequences (Figures
// 10-11), and min/max/most-frequent trackers (Table 4).
package stats

import (
	"math"
	"sort"
)

// Sorted returns a copy of xs in ascending order — the presentation
// used by the paper's per-operation cost figures.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using the
// nearest-rank rule on a sorted copy: the smallest element whose rank
// r satisfies r >= q*n, i.e. index ceil(q*n)-1. The small epsilon
// keeps exact bucket boundaries (q*n an integer, e.g. the median of 4
// items) from rounding up a rank through floating-point error. This is
// the convention the bucketed estimators (perf.Recorder, obs's runtime
// histogram digests) mirror, so live summaries and offline experiment
// summaries agree. It returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := Sorted(xs)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RollingAvg returns the rolling averages of xs over non-overlapping
// groups of the given window size (the paper uses groups of 50 queries
// in Figures 10 and 11). A trailing partial group is averaged over its
// actual length. A window <= 1 returns a copy of xs.
func RollingAvg(xs []float64, window int) []float64 {
	if window <= 1 {
		return append([]float64(nil), xs...)
	}
	var out []float64
	for i := 0; i < len(xs); i += window {
		j := i + window
		if j > len(xs) {
			j = len(xs)
		}
		out = append(out, Mean(xs[i:j]))
	}
	return out
}

// FreqTracker accumulates integer observations and reports the
// minimum, maximum and most frequent value — exactly the three columns
// of the paper's Table 4.
type FreqTracker struct {
	counts map[int]int
	min    int
	max    int
	n      int
}

// NewFreqTracker returns an empty tracker.
func NewFreqTracker() *FreqTracker {
	return &FreqTracker{counts: make(map[int]int)}
}

// Observe records one value.
func (f *FreqTracker) Observe(v int) {
	if f.n == 0 || v < f.min {
		f.min = v
	}
	if f.n == 0 || v > f.max {
		f.max = v
	}
	f.counts[v]++
	f.n++
}

// N returns the number of observations.
func (f *FreqTracker) N() int { return f.n }

// Min returns the minimum observed value (0 if empty).
func (f *FreqTracker) Min() int { return f.min }

// Max returns the maximum observed value (0 if empty).
func (f *FreqTracker) Max() int { return f.max }

// MostFrequent returns the value with the highest count; ties break
// towards the smaller value for determinism. It returns 0 if empty.
func (f *FreqTracker) MostFrequent() int {
	best, bestCount := 0, -1
	for v, c := range f.counts {
		if c > bestCount || (c == bestCount && v < best) {
			best, bestCount = v, c
		}
	}
	if bestCount < 0 {
		return 0
	}
	return best
}

// Count returns how often v was observed.
func (f *FreqTracker) Count(v int) int { return f.counts[v] }

// Histogram returns (value, count) pairs in ascending value order.
func (f *FreqTracker) Histogram() (values []int, counts []int) {
	for v := range f.counts {
		values = append(values, v)
	}
	sort.Ints(values)
	counts = make([]int, len(values))
	for i, v := range values {
		counts[i] = f.counts[v]
	}
	return values, counts
}
