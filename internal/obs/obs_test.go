package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"histcube/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	var g Gauge
	g.Add(10)
	g.Inc()
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-12 {
		t.Errorf("sum = %v", got)
	}
	// Buckets: le=1 holds {0.5, 1}, le=2 adds {1.5}, le=4 adds {3},
	// +Inf adds {100}.
	wants := []int64{2, 1, 1, 1}
	for i, want := range wants {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); math.Abs(got-8000*1e-5) > 1e-9 {
		t.Errorf("sum = %v", got)
	}
}

func TestTimer(t *testing.T) {
	h := newHistogram(nil)
	tm := NewTimer(h)
	time.Sleep(time.Millisecond)
	d := tm.ObserveDuration()
	if d <= 0 {
		t.Errorf("duration = %v", d)
	}
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("histogram not observed: count=%d sum=%v", h.Count(), h.Sum())
	}
	// nil observer (including typed nil) must not panic.
	NewTimer(nil).ObserveDuration()
	var nilH *Histogram
	NewTimer(nilH).ObserveDuration()
}

func TestSeriesSummary(t *testing.T) {
	s := &Series{}
	for _, v := range []float64{4, 1, 3, 2} {
		s.Observe(v)
	}
	sum := s.Summary()
	if sum.Count != 4 || sum.Mean != 2.5 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.P50 != stats.Quantile([]float64{1, 2, 3, 4}, 0.5) {
		t.Errorf("p50 = %v", sum.P50)
	}
	if sum.Max != 4 {
		t.Errorf("max = %v", sum.Max)
	}
	empty := (&Series{}).Summary()
	if empty.Count != 0 || empty.Max != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestRegistryPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests.", Label{"cmd", "INS"})
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	c2 := r.NewCounter("test_requests_total", "Requests.", Label{"cmd", "QRY"})
	c2.Inc()
	g := r.NewGauge("test_inflight", "In-flight requests.")
	g.Add(2)
	r.NewGaugeFunc("test_slices", "Slices.", func() float64 { return 7 })
	r.NewCounterFunc("test_conversions_total", "Conversions.", func() int64 { return 42 })
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests.",
		"# TYPE test_requests_total counter",
		`test_requests_total{cmd="INS"} 3`,
		`test_requests_total{cmd="QRY"} 1`,
		"# TYPE test_inflight gauge",
		"test_inflight 2",
		"test_slices 7",
		"test_conversions_total 42",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even with two series.
	if strings.Count(out, "# TYPE test_requests_total counter") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("esc_total", "", Label{"path", "a\"b\\c\nd"})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{path="a\"b\\c\nd"} 0`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

// TestHistogramCountMatchesInfBucketUnderLoad scrapes a histogram while
// goroutines observe into it: every scrape's _count must equal its own
// le="+Inf" bucket, as Prometheus requires of one exposition.
func TestHistogramCountMatchesInfBucketUnderLoad(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_load_seconds", "Load.", []float64{0.001, 0.1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i%3) * 0.05)
				}
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for scrape := 0; scrape < 300; scrape++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `test_load_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "test_load_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || count != inf {
			t.Fatalf("scrape %d: _count %s, le=\"+Inf\" %s\n%s", scrape, count, inf, b.String())
		}
	}
}
