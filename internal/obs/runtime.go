// Runtime telemetry: a RuntimeCollector samples runtime/metrics into
// histcube_runtime_* gauges and wires lock-contention counters, so the
// single-mutex serving bottleneck (ROADMAP: "Break the single-mutex
// bottleneck") has a measured baseline instead of a suspicion. Pause
// and latency distributions are digested to p99 with the same
// nearest-rank convention as internal/stats.Quantile.
//
// Two sampling disciplines coexist:
//
//   - Distribution-derived gauges (GC pause p99, scheduler latency p99,
//     goroutine count, heap bytes) are sampled on a ticker (Start) into
//     a mutex-guarded snapshot; scrapes read the snapshot. Walking a
//     runtime histogram on every scrape would make /metrics the most
//     expensive endpoint on the box.
//   - Monotonic totals (GC cycles, cumulative mutex wait seconds,
//     contention event counts) are read live at scrape time — each is
//     one runtime/metrics read or profile walk, and a counter sampled
//     on a ticker would systematically under-report between ticks.
//
// histcube_lock_contention_events_total stays at zero until the binary
// enables mutex profiling (runtime.SetMutexProfileFraction via
// -mutex-profile-fraction); histcube_lock_wait_seconds_total is
// always-on (the runtime keeps /sync/mutex/wait/total:seconds
// regardless of the profile fraction).
package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Names of the runtime/metrics series the collector consumes.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmMutexWait  = "/sync/mutex/wait/total:seconds"
)

// RuntimeCollector owns the sampled snapshot behind the
// histcube_runtime_* gauges.
type RuntimeCollector struct {
	mu          sync.Mutex
	goroutines  int64   // guarded by mu
	heapBytes   int64   // guarded by mu
	gcPauseP99  float64 // guarded by mu
	schedLatP99 float64 // guarded by mu
}

// NewRuntimeCollector registers the runtime and lock-contention metrics
// on r and takes a first sample so gauges are live before the first
// tick. Call Start to keep the snapshot fresh.
func NewRuntimeCollector(r *Registry) *RuntimeCollector {
	c := &RuntimeCollector{}
	c.Sample()
	r.NewGaugeFunc("histcube_runtime_goroutines",
		"Goroutines at the last runtime sample.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.goroutines)
		})
	r.NewGaugeFunc("histcube_runtime_heap_bytes",
		"Live heap object bytes at the last runtime sample.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.heapBytes)
		})
	r.NewGaugeFunc("histcube_runtime_gc_pause_p99_seconds",
		"p99 stop-the-world GC pause over the process lifetime, at the last runtime sample.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.gcPauseP99
		})
	r.NewGaugeFunc("histcube_runtime_sched_latency_p99_seconds",
		"p99 goroutine scheduling latency over the process lifetime, at the last runtime sample.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.schedLatP99
		})
	r.NewCounterFunc("histcube_runtime_gc_cycles_total",
		"Completed GC cycles.", func() int64 {
			return int64(readRuntimeUint64(rmGCCycles))
		})
	r.NewFloatCounterFunc("histcube_lock_wait_seconds_total",
		"Cumulative seconds goroutines have spent blocked on sync.Mutex/RWMutex.", func() float64 {
			return readRuntimeFloat64(rmMutexWait)
		})
	r.NewCounterFunc("histcube_lock_contention_events_total",
		"Sampled mutex contention events (zero until -mutex-profile-fraction enables sampling).",
		mutexContentionEvents)
	return c
}

// Sample refreshes the snapshot behind the gauges: one batched
// runtime/metrics read, two histogram walks.
func (c *RuntimeCollector) Sample() {
	samples := []metrics.Sample{
		{Name: rmGoroutines},
		{Name: rmHeapBytes},
		{Name: rmGCPauses},
		{Name: rmSchedLat},
	}
	metrics.Read(samples)
	goroutines := int64(valueUint64(samples[0].Value))
	heapBytes := int64(valueUint64(samples[1].Value))
	gcPauseP99 := histogramQuantile(samples[2].Value, 0.99)
	schedLatP99 := histogramQuantile(samples[3].Value, 0.99)
	c.mu.Lock()
	c.goroutines = goroutines
	c.heapBytes = heapBytes
	c.gcPauseP99 = gcPauseP99
	c.schedLatP99 = schedLatP99
	c.mu.Unlock()
}

// Start samples every interval until the returned stop function is
// called. Stop is idempotent.
func (c *RuntimeCollector) Start(every time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.Sample()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// readRuntimeUint64 reads one uint64-valued runtime metric; an absent
// or differently-typed metric (an older runtime) reads as zero rather
// than panicking a scrape.
func readRuntimeUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return valueUint64(s[0].Value)
}

// readRuntimeFloat64 is readRuntimeUint64 for float64-valued metrics.
func readRuntimeFloat64(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func valueUint64(v metrics.Value) uint64 {
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return v.Uint64()
}

// histogramQuantile estimates the q-quantile of a runtime histogram by
// nearest rank: the upper edge of the bucket containing the ceil(q*n)-th
// observation (the overflow bucket reports its finite lower edge),
// matching internal/stats.Quantile. Returns 0 for an empty or
// non-histogram value.
func histogramQuantile(v metrics.Value, q float64) float64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	return float64HistogramQuantile(v.Float64Histogram(), q)
}

func float64HistogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Counts[i] covers [Buckets[i], Buckets[i+1]).
			edge := h.Buckets[i+1]
			if edge > maxFiniteEdge {
				edge = h.Buckets[i]
			}
			return edge
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// maxFiniteEdge flags the +Inf overflow edge without an exact float
// comparison against Inf.
const maxFiniteEdge = 1e300

// mutexContentionEvents sums the sampled contention counts from the
// runtime's mutex profile. Two-pass sizing per the runtime.MutexProfile
// contract, with headroom for profiles growing between the calls.
func mutexContentionEvents() int64 {
	n, _ := runtime.MutexProfile(nil)
	if n == 0 {
		return 0
	}
	recs := make([]runtime.BlockProfileRecord, n+n/4+8)
	n, ok := runtime.MutexProfile(recs)
	if !ok || n > len(recs) {
		return 0
	}
	var total int64
	for _, r := range recs[:n] {
		total += r.Count
	}
	return total
}
