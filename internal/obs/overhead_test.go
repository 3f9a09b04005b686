package obs

import "testing"

// benchObserve is what the serving path pays per request and per stage:
// one Observe into a LatencyBuckets histogram (a bucket search over 22
// bounds, two atomic adds, one CAS on the sum).
func benchObserve(b *testing.B) {
	h := newHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserve(b *testing.B) { benchObserve(b) }

// TestHistogramObserveOverhead is the check.sh perfguard step: every
// served request is timed once into a Histogram, so Observe must stay
// allocation-free and within 150 ns/op — generous against CI noise but
// far below the microsecond-scale requests it times.
func TestHistogramObserveOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the ns/op measurement")
	}
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	res := testing.Benchmark(benchObserve)
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %d objects/op, want 0", allocs)
	}
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	const budget = 150.0
	if ns > budget {
		t.Fatalf("Histogram.Observe costs %.2f ns/op, want <= %.0f", ns, budget)
	}
	t.Logf("Histogram.Observe: %.2f ns/op", ns)
}
