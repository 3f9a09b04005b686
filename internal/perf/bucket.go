package perf

import "math/bits"

// The histogram layout is HDR-style sub-bucketed base-2: every octave
// [2^k, 2^(k+1)) of nanoseconds is split into 2^subBits equal-width
// sub-buckets, so a bucket's upper bound overestimates a sample by at
// most 1/2^subBits (12.5% with subBits=3) regardless of magnitude.
//
// The sliding-window Recorder keeps one bucket array per window slot.
const (
	// subBits selects 8 sub-buckets per octave: <= 12.5% relative
	// quantile error at 8 bytes * numBuckets = ~2.6 KiB per bucket
	// array.
	subBits  = 3
	subCount = 1 << subBits

	// maxOctave caps the representable value at 2^(maxOctave+1) ns
	// (about 2.4 hours); larger samples clamp into the last bucket.
	maxOctave = 42

	// numBuckets: indices [0, subCount) hold the exact small values
	// 0..subCount-1 ns, then (maxOctave-subBits+1) blocks of subCount
	// sub-buckets cover octaves subBits..maxOctave.
	numBuckets = subCount + (maxOctave-subBits+1)*subCount
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns < subCount {
		return int(ns) // in [0, subCount): identity mapping
	}
	octave := bits.Len64(uint64(ns)) - 1
	if octave > maxOctave {
		return numBuckets - 1
	}
	idx := int64(octave-subBits+1)*subCount + ((ns >> (uint(octave) - subBits)) & (subCount - 1))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return int(idx)
}
