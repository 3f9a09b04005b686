package perf

import (
	"sync"
	"testing"
	"time"
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
	// Every representable value lands in range, and larger values never
	// land in an earlier bucket.
	prev := 0
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 999,
		1e3, 1e6, 123456789, 1e9, 55e9, int64(1) << maxOctave} {
		i := bucketIndex(ns)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", ns, i)
		}
		if i < prev {
			t.Errorf("bucketIndex(%d) = %d, below the previous value's bucket %d", ns, i, prev)
		}
		prev = i
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
}

// recorded sums the samples and the largest one over every slot.
func recorded(r *Recorder) (count int64, max time.Duration) {
	for i := range r.slots {
		count += r.slots[i].count.Load()
		if m := time.Duration(r.slots[i].max.Load()); m > max {
			max = m
		}
	}
	return count, max
}

// TestWindowRotation pins the ring: a slot is re-zeroed when its ring
// position is reused for a later time unit, and the other slots keep
// their samples.
func TestWindowRotation(t *testing.T) {
	const window = 8 * time.Second // slotDur = 1s with recorderSlots = 8
	r, c := newTestRecorder(window)

	// 10 samples in the first second.
	for i := 0; i < 10; i++ {
		r.Record(time.Millisecond)
	}
	if got, _ := recorded(r); got != 10 {
		t.Fatalf("count after first slot = %d, want 10", got)
	}

	// Four seconds later a second slot fills...
	c.advance(4 * time.Second)
	r.Record(2 * time.Millisecond)
	if got, _ := recorded(r); got != 11 {
		t.Fatalf("count mid-window = %d, want 11", got)
	}

	// ...and at t=8s ring position 0 is reused: its 10 stale samples
	// go, the mid-window one stays.
	c.advance(4 * time.Second)
	r.Record(3 * time.Millisecond)
	if got, max := recorded(r); got != 2 || max != 3*time.Millisecond {
		t.Fatalf("after rotation reuse: count %d, max %v; want 2, 3ms", got, max)
	}
}

// TestConcurrentRecording is the -race guard: many goroutines hammer
// two recorders (and a nil one) concurrently. Correctness bar: no race
// reports, no panics, and the slots account exactly the samples
// recorded.
func TestConcurrentRecording(t *testing.T) {
	qry, ins := New(time.Hour), New(time.Hour) // nothing lapses: counts are exact
	var none *Recorder
	const (
		goroutines = 16
		perG       = 5000
	)
	var recorders sync.WaitGroup
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
	if got, max := recorded(qry); got != goroutines*perG || max != goroutines*time.Microsecond {
		t.Fatalf("QRY count = %d, max = %v; want %d, %v", got, max, goroutines*perG, goroutines*time.Microsecond)
	}
	if got, _ := recorded(ins); got != goroutines*perG {
		t.Fatalf("INS count = %d, want %d", got, goroutines*perG)
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
