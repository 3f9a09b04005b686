package main

import "slices"

// quantile returns the q-quantile of ascending samples by nearest
// rank; 0 for none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

// tailSupported reports whether at least ten samples lie beyond the
// q-quantile, the rule for quoting a tail percentile at all.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// digest is how every latency is reported: median, p99 and the sample
// count the two rest on.
type digest struct {
	N     int     `json:"n"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
	P99OK bool    `json:"p99_supported"` // >= 10 samples beyond p99
}

func digestOf(ns []int64) digest {
	sorted := slices.Clone(ns)
	slices.Sort(sorted)
	return digest{
		N:     len(sorted),
		P50US: float64(quantile(sorted, 0.50)) / 1e3,
		P99US: float64(quantile(sorted, 0.99)) / 1e3,
		P99OK: tailSupported(len(sorted), 0.99),
	}
}

// p50US sorts ns in place and returns its median in microseconds.
func p50US(ns []int64) float64 {
	slices.Sort(ns)
	return float64(quantile(ns, 0.5)) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, 0 when b is 0 (a count of things that did not happen).
func ratio(a, b float64) float64 {
	//histlint:ignore nofloateq guards the division; only an exact zero (nothing counted) matters
	if b == 0 {
		return 0
	}
	return a / b
}
