// Package perf holds RunMeta/CollectMeta, the build and machine
// stamp that both servers answer VERSION from and every benchmark
// report carries, and the sliding-window latency Recorder.
//
// The Recorder is on no request path: both servers time every served
// request once, into internal/obs histograms (lineserver's
// request_seconds family), where any window is the difference of two
// scrapes. It stays only because benchmark/probes.go prices it as the
// perf.record_ns probe and benchmark/ compiles against it; it goes, with
// bucket.go and their tests, once that probe is dropped.
//
// A Recorder keeps a ring of fixed-width log-bucketed histogram slots
// (bucket.go) and rotates them on a coarse clock: each slot covers
// window/slots of wall time, recording is a handful of atomic adds
// into the slot owning the current time unit, and a snapshot merges
// the slots still inside the window. There are no per-sample
// allocations and no locks on the hot path — a mutex is taken only on
// slot rotation (once per slot duration per recorder) to serialise the
// zeroing. Every method is nil-receiver-safe.
//
// Accuracy contract: quantiles come from bucket upper bounds, so they
// overestimate by at most 1/2^subBits (12.5%); window edges are
// quantised to the slot duration, so a snapshot covers between
// window-slotDur and window of history. Both slacks are deliberate —
// they buy the atomic, allocation-free hot path.
//
// Rotation slack: a sample recorded exactly while its slot is being
// re-zeroed for a new time unit may land in the new window or be
// dropped; at one rotation per slot per slotDur this mis-accounts at
// most a handful of samples per window, which is noise at the ops/sec
// volumes the recorder exists to measure.
package perf

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is one recorder's view of the sliding window.
type Snapshot struct {
	// Window is the nominal window the recorder was configured with.
	Window time.Duration
	// Covered is the wall time the merged slots actually span (between
	// Window-slotDur and Window once the ring is warm; less right
	// after start).
	Covered time.Duration
	Count   int64
	// OpsPerSec is Count over Covered (0 when nothing was recorded).
	OpsPerSec float64
	Mean      time.Duration
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	Max       time.Duration
}

// slot is one rotation unit of the ring: a log-bucketed histogram plus
// count/sum/max, all atomics. epoch holds the absolute time unit
// (elapsed/slotDur) the slot currently covers, -1 while empty.
type slot struct {
	epoch atomic.Int64
	// mu serialises rotation (zeroing) only; recording never takes it.
	mu      sync.Mutex
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// reset re-points the slot at time unit `unit`, zeroing its contents.
// Only the rotation path calls it, under mu.
func (s *slot) reset(unit int64) {
	s.count.Store(0)
	s.sum.Store(0)
	s.max.Store(0)
	for i := range s.buckets {
		s.buckets[i].Store(0)
	}
	// The epoch flips last: a recorder that observes the new epoch
	// without taking mu is guaranteed to find zeroed buckets.
	s.epoch.Store(unit)
}

// Recorder measures latency over a sliding window. The zero value is
// not usable; call New. All methods are safe on a nil receiver and
// safe for concurrent use.
type Recorder struct {
	window    time.Duration
	slotNanos int64
	start     time.Time
	// clock returns elapsed nanoseconds since start; tests swap it for
	// a deterministic one. time.Since reads the monotonic clock, so
	// wall-clock jumps cannot tear the window.
	clock func() int64
	slots []slot
}

// recorderSlots fixes the ring size: window/8 slot granularity keeps
// the edge quantisation at 12.5% of the window, matching the bucket
// resolution.
const recorderSlots = 8

// New returns a Recorder over the given window (<= 0 selects 10s).
func New(window time.Duration) *Recorder {
	if window <= 0 {
		window = 10 * time.Second
	}
	r := &Recorder{
		window:    window,
		slotNanos: int64(window) / recorderSlots,
		start:     time.Now(),
		slots:     make([]slot, recorderSlots),
	}
	if r.slotNanos <= 0 {
		r.slotNanos = 1
	}
	r.clock = func() int64 { return time.Since(r.start).Nanoseconds() }
	for i := range r.slots {
		r.slots[i].epoch.Store(-1)
	}
	return r
}

// Window returns the configured window (0 on nil).
func (r *Recorder) Window() time.Duration {
	if r == nil {
		return 0
	}
	return r.window
}

// Record adds one duration sample to the current slot.
func (r *Recorder) Record(d time.Duration) {
	if r == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	unit := r.clock() / r.slotNanos
	idx := unit % int64(len(r.slots))
	if idx < 0 {
		idx = 0 // a test clock running before the recorder's start
	}
	s := &r.slots[int(idx)]
	if e := s.epoch.Load(); e != unit {
		// Rotation: the slot still holds a lapsed time unit. Whoever
		// gets mu first zeroes it; laggards re-check under the lock
		// and fall through. e > unit (a recorder delayed across a
		// whole ring revolution) also lands here and re-points the
		// slot — the sample is then attributed to the current unit,
		// the closest honest choice.
		s.mu.Lock()
		if s.epoch.Load() != unit {
			s.reset(unit)
		}
		s.mu.Unlock()
	}
	s.count.Add(1)
	s.sum.Add(ns)
	for {
		old := s.max.Load()
		if ns <= old || s.max.CompareAndSwap(old, ns) {
			break
		}
	}
	s.buckets[bucketIndex(ns)].Add(1)
}

// Snapshot merges the slots still inside the window into one digest.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := r.clock()
	cur := now / r.slotNanos
	oldest := cur - int64(len(r.slots)) + 1
	var (
		merged     [numBuckets]int64
		count, sum int64
		max        int64
		minEpoch   = int64(-1)
	)
	for i := range r.slots {
		s := &r.slots[i]
		e := s.epoch.Load()
		if e < 0 || e < oldest || e > cur {
			continue // never used, lapsed, or not yet rotated: outside the window
		}
		c := s.count.Load()
		if c == 0 {
			continue // reset races ahead of the first add; treat as empty
		}
		count += c
		sum += s.sum.Load()
		if m := s.max.Load(); m > max {
			max = m
		}
		for b := range merged {
			merged[b] += s.buckets[b].Load()
		}
		if minEpoch < 0 || e < minEpoch {
			minEpoch = e
		}
	}
	snap := Snapshot{Window: r.window}
	if count == 0 {
		return snap
	}
	covered := now - minEpoch*r.slotNanos
	if covered <= 0 {
		covered = r.slotNanos
	}
	snap.Covered = time.Duration(covered)
	snap.Count = count
	snap.OpsPerSec = float64(count) / snap.Covered.Seconds()
	snap.Mean = time.Duration(sum / count)
	snap.P50 = mergedQuantile(&merged, count, 0.5)
	snap.P95 = mergedQuantile(&merged, count, 0.95)
	snap.P99 = mergedQuantile(&merged, count, 0.99)
	snap.Max = time.Duration(max)
	return snap
}

// mergedQuantile applies the nearest-rank rule of stats.Quantile to a
// merged bucket array, reporting the containing bucket's upper bound.
func mergedQuantile(buckets *[numBuckets]int64, count int64, q float64) time.Duration {
	rank := nearestRank(count, q)
	cum := int64(0)
	last := 0
	for i := range buckets {
		if buckets[i] == 0 {
			continue
		}
		cum += buckets[i]
		last = i
		if cum >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(last))
}

// nearestRank is stats.Quantile's rank rule: the smallest rank r with
// r >= q*n, clamped to [1, n], with the same epsilon guard against a
// float boundary rounding a rank up.
func nearestRank(n int64, q float64) int64 {
	rank := int64(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}
