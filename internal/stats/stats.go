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

// Summary is the standard p50/p90/p99/mean digest of a sample.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summarize digests xs with Quantile's nearest-rank rule — the helper
// cmd/histbench uses to turn experiment cost curves into the standard
// digest.
func Summarize(xs []float64) Summary {
	sum := Summary{
		Count: len(xs),
		Mean:  Mean(xs),
		P50:   Quantile(xs, 0.5),
		P90:   Quantile(xs, 0.9),
		P99:   Quantile(xs, 0.99),
	}
	if len(xs) > 0 {
		sum.Max = Quantile(xs, 1)
	}
	return sum
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
