package perf

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"histcube/internal/stats"
)

// fakeClock drives a Recorder deterministically.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64              { return c.ns }
func (c *fakeClock) advance(d time.Duration) { c.ns += int64(d) }

func newTestRecorder(window time.Duration) (*Recorder, *fakeClock) {
	r := New(window)
	c := &fakeClock{}
	r.clock = c.now
	return r, c
}

func TestBucketLayout(t *testing.T) {
	// Every representable value must land in a bucket whose upper
	// bound is >= the value and overestimates by at most 1/subCount.
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 999,
		1e3, 1e6, 123456789, 1e9, 55e9, int64(1) << maxOctave} {
		i := bucketIndex(ns)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", ns, i)
		}
		up := bucketUpper(i)
		if up < ns {
			t.Errorf("bucketUpper(bucketIndex(%d)) = %d < value", ns, up)
		}
		if ns >= subCount && float64(up) > float64(ns)*(1+1.0/subCount) {
			t.Errorf("bucket upper %d overestimates %d by more than 1/%d", up, ns, subCount)
		}
	}
	// Bucket upper bounds must be strictly increasing (each value maps
	// to exactly one quantile estimate).
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
	// Negative and over-range values clamp instead of panicking.
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("bucketIndex(-5) = %d, want 0", got)
	}
	if got := bucketIndex(int64(1) << 62); got != numBuckets-1 {
		t.Errorf("bucketIndex(1<<62) = %d, want last bucket %d", got, numBuckets-1)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Record(time.Millisecond)
	if snap := r.Snapshot(); snap.Count != 0 {
		t.Fatalf("nil recorder snapshot: %+v", snap)
	}
	if r.Window() != 0 {
		t.Fatal("nil recorder window")
	}
}

// TestWindowRotation pins the sliding-window semantics: samples fall
// out of the snapshot once the coarse clock moves their slot out of
// the window, and a slot is re-zeroed when its ring position is
// reused.
func TestWindowRotation(t *testing.T) {
	const window = 8 * time.Second // slotDur = 1s with recorderSlots = 8
	r, c := newTestRecorder(window)

	// 10 samples in the first second.
	for i := 0; i < 10; i++ {
		r.Record(time.Millisecond)
	}
	if got := r.Snapshot().Count; got != 10 {
		t.Fatalf("count after first slot = %d, want 10", got)
	}

	// Four seconds later they are still inside the window...
	c.advance(4 * time.Second)
	r.Record(2 * time.Millisecond)
	if got := r.Snapshot().Count; got != 11 {
		t.Fatalf("count mid-window = %d, want 11", got)
	}

	// ...but once the clock passes slot 0's next revolution, the first
	// batch must be gone while the mid-window sample survives.
	c.advance(4 * time.Second) // t=8s: slot 0 lapses out of [1s, 8s]
	if got := r.Snapshot().Count; got != 1 {
		t.Fatalf("count after first slot lapsed = %d, want 1", got)
	}

	// Recording at t=8s reuses ring position 0; the snapshot must see
	// the fresh sample, not 10+1 stale ones.
	r.Record(3 * time.Millisecond)
	snap := r.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count after rotation reuse = %d, want 2", snap.Count)
	}
	if snap.Max != 3*time.Millisecond {
		t.Fatalf("max after rotation = %v, want 3ms", snap.Max)
	}

	// A full window of silence empties the snapshot entirely.
	c.advance(2 * window)
	snap = r.Snapshot()
	if snap.Count != 0 || snap.OpsPerSec != 0 {
		t.Fatalf("snapshot after idle window: %+v", snap)
	}
}

// TestOpsPerSec pins the throughput math: count over covered time.
func TestOpsPerSec(t *testing.T) {
	r, c := newTestRecorder(8 * time.Second)
	for i := 0; i < 4; i++ { // 100 ops/sec for 4 seconds
		for j := 0; j < 100; j++ {
			r.Record(time.Microsecond)
		}
		c.advance(time.Second)
	}
	snap := r.Snapshot()
	if snap.Count != 400 {
		t.Fatalf("count = %d, want 400", snap.Count)
	}
	// Covered time is 4s (oldest populated slot start to now).
	if snap.OpsPerSec < 95 || snap.OpsPerSec > 105 {
		t.Fatalf("ops/sec = %.1f, want ~100", snap.OpsPerSec)
	}
}

// TestQuantileAccuracy feeds known distributions through both the
// windowed Recorder and the exact internal/stats reference, asserting
// the documented error bound: the bucketed estimate never undershoots
// and overestimates by at most 1/subCount plus one bucket of slack.
func TestQuantileAccuracy(t *testing.T) {
	distributions := map[string][]float64{
		"uniform":   nil,
		"lognormal": nil,
		"bimodal":   nil,
	}
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	for i := 0; i < n; i++ {
		distributions["uniform"] = append(distributions["uniform"], 1e3+rng.Float64()*1e6)
		distributions["lognormal"] = append(distributions["lognormal"], 1e4*math.Exp(rng.NormFloat64()))
		mode := 5e4
		if rng.Intn(10) == 0 {
			mode = 5e6 // 10% slow outliers, the tail p99 must see
		}
		distributions["bimodal"] = append(distributions["bimodal"], mode*(0.5+rng.Float64()))
	}
	for name, xs := range distributions {
		r, _ := newTestRecorder(time.Hour) // one giant window: nothing lapses
		for _, x := range xs {
			r.Record(time.Duration(x))
		}
		snap := r.Snapshot()
		for _, tc := range []struct {
			q   float64
			got time.Duration
		}{
			{0.5, snap.P50},
			{0.95, snap.P95},
			{0.99, snap.P99},
		} {
			exact := stats.Quantile(xs, tc.q)
			lo, hi := exact, exact*(1+1.0/subCount)*(1+1.0/subCount)
			if g := float64(tc.got); g < lo || g > hi {
				t.Errorf("%s p%.0f: recorder %v outside [%v, %v] (exact %v)",
					name, tc.q*100, tc.got, time.Duration(lo), time.Duration(hi), time.Duration(exact))
			}
		}
		// Max is tracked exactly (the samples are ns-truncated floats,
		// so compare against the truncated exact max).
		if want := time.Duration(stats.Quantile(xs, 1)); snap.Max != want {
			t.Errorf("%s: max %v != exact max %v (max is tracked exactly)", name, snap.Max, want)
		}
	}
}

// TestConcurrentRecording is the -race guard: many goroutines hammer
// two recorders (and a nil one) while a scraper snapshots concurrently.
// Correctness bar: no race reports, no panics, and the final quiescent
// snapshot accounts exactly the samples recorded into the live window.
func TestConcurrentRecording(t *testing.T) {
	qry, ins := New(time.Hour), New(time.Hour) // nothing lapses: counts are exact
	var none *Recorder
	const (
		goroutines = 16
		perG       = 5000
	)
	var recorders, scraper sync.WaitGroup
	stop := make(chan struct{})
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = qry.Snapshot()
				_ = ins.Snapshot()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		recorders.Add(1)
		go func(g int) {
			defer recorders.Done()
			for i := 0; i < perG; i++ {
				qry.Record(time.Duration(g+1) * time.Microsecond)
				ins.Record(time.Duration(i%100) * time.Microsecond)
				none.Record(time.Second) // dropped, must not panic
			}
		}(g)
	}
	recorders.Wait()
	close(stop)
	scraper.Wait()
	if got := qry.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("QRY count = %d, want %d", got, goroutines*perG)
	}
	if got := ins.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("INS count = %d, want %d", got, goroutines*perG)
	}
	if got := qry.Snapshot().Max; got != goroutines*time.Microsecond {
		t.Fatalf("QRY max = %v, want %v", got, goroutines*time.Microsecond)
	}
}

func TestCollectMeta(t *testing.T) {
	m := CollectMeta("perftest")
	if m.Tool != "perftest" || m.GoVersion == "" || m.GOMAXPROCS < 1 || m.OS == "" || m.Arch == "" {
		t.Fatalf("incomplete meta: %+v", m)
	}
	if m.GitRev == "" {
		t.Fatal("git rev must be a hash or \"unknown\", never empty")
	}
	if _, err := time.Parse(time.RFC3339, m.Date); err != nil {
		t.Fatalf("date %q not RFC3339: %v", m.Date, err)
	}
}
