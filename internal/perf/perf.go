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
// window/slots of wall time, and recording is a handful of atomic adds
// into the slot owning the current time unit. There are no per-sample
// allocations and no locks on the hot path — a mutex is taken only on
// slot rotation (once per slot duration per recorder) to serialise the
// zeroing. Record is nil-receiver-safe. Nothing reads the slots back:
// the probe prices the write path alone.
package perf

import (
	"sync"
	"sync/atomic"
	"time"
)

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
// not usable; call New. Record is safe on a nil receiver and
// safe for concurrent use.
type Recorder struct {
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
