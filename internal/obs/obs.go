// Package obs is histcube's observability layer: a dependency-free,
// allocation-light metrics toolkit with atomic counters, gauges and
// fixed-bucket latency histograms, plus a Registry that renders the
// Prometheus text exposition format (version 0.0.4).
//
// The package exists so the paper's cost-convergence claims (Figures
// 10-14 of Riedewald/Agrawal/El Abbadi) can be watched on a *live*
// system instead of recomputed offline: internal/core, the append-only
// cube and cmd/histserve register their counters here and the server's
// optional /metrics listener scrapes them.
//
// Everything on the hot path is a single atomic operation; callback
// metrics (CounterFunc, GaugeFunc) defer all work to scrape time so
// state-derived values cost nothing per operation. Quantile reporting
// (Series.Summary, the runtime histogram digests in runtime.go) follows
// the nearest-rank convention of internal/stats.Quantile, so offline
// experiment summaries and live summaries agree.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histcube/internal/stats"
)

// Observer receives one sample; Histogram and Series implement it, and
// Timer reports durations (in seconds) to one.
type Observer interface {
	Observe(v float64)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyBuckets is the default histogram layout for operation
// latencies: 1µs to 10s in a 1-2.5-5 progression. Cube operations sit
// at the microsecond end; snapshot save/load and cold disk queries at
// the millisecond end.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic buckets and sum.
// Buckets are cumulative at render time (Prometheus `le` semantics);
// observation picks the first upper bound >= v. The count is the
// cumulative +Inf bucket, so one rendering never disagrees with itself.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
//
//histlint:ignore deadexport test seam: the metrics and pipeline tests of cmd/histserve and lineserver's server_test.go read per-command sample counts
func (h *Histogram) Count() int64 {
	n := int64(0)
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Timer measures one duration and reports it, in seconds, to an
// optional Observer. The zero cost of a nil observer lets callers keep
// one code path whether or not metrics are enabled:
//
//	t := obs.NewTimer(h)      // h may be nil
//	defer t.ObserveDuration()
type Timer struct {
	start time.Time
	o     Observer
}

// NewTimer starts a timer reporting to o (nil is allowed: the timer
// then only returns the elapsed duration).
func NewTimer(o Observer) Timer { return Timer{start: time.Now(), o: o} }

// ObserveDuration reports the elapsed time to the observer (if any)
// and returns it.
func (t Timer) ObserveDuration() time.Duration {
	d := time.Since(t.start)
	if t.o != nil && !isNilObserver(t.o) {
		t.o.Observe(d.Seconds())
	}
	return d
}

// isNilObserver guards against typed-nil interfaces such as a nil
// *Histogram passed as an Observer.
func isNilObserver(o Observer) bool {
	switch v := o.(type) {
	case *Histogram:
		return v == nil
	case *Series:
		return v == nil
	}
	return false
}

// Series collects raw samples for offline summary — the hook
// cmd/histbench and internal/experiments use so benchmark timing goes
// through the same instrumentation as the server. Unlike Histogram it
// keeps every sample, so quantiles are exact (internal/stats).
type Series struct {
	mu sync.Mutex
	xs []float64 // guarded by mu
}

// Observe implements Observer.
func (s *Series) Observe(v float64) {
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.mu.Unlock()
}

// Summary is the standard p50/p90/p99/mean digest, computed with
// internal/stats on the raw samples.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary digests the collected samples via internal/stats.
func (s *Series) Summary() Summary {
	s.mu.Lock()
	xs := append([]float64(nil), s.xs...)
	s.mu.Unlock()
	sum := Summary{
		Count: len(xs),
		Mean:  stats.Mean(xs),
		P50:   stats.Quantile(xs, 0.5),
		P90:   stats.Quantile(xs, 0.9),
		P99:   stats.Quantile(xs, 0.99),
	}
	if len(xs) > 0 {
		sum.Max = stats.Quantile(xs, 1)
	}
	return sum
}

// Summarize digests an ad-hoc sample slice that never went through a
// Series — the helper cmd/histbench uses to turn experiment cost
// curves into the standard digest.
func Summarize(xs []float64) Summary {
	s := &Series{xs: xs}
	return s.Summary()
}

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// kind is the Prometheus metric type of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labelled time series inside a family.
type series struct {
	labels []Label

	counter          *Counter
	gauge            *Gauge
	histogram        *Histogram
	counterFunc      func() int64
	counterFloatFunc func() float64
	gaugeFunc        func() float64
}

// family is all series sharing one metric name.
type family struct {
	name string
	help string
	kind kind
	// series in registration order; key is the rendered label set.
	order []string
	byKey map[string]*series
}

// Registry holds metric families in registration order and renders
// them in the Prometheus text exposition format.
type Registry struct {
	mu       sync.Mutex
	families []*family          // guarded by mu
	byName   map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help string, k kind, labels []Label) *series {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
	}
	key := labelKey(labels)
	if _, dup := f.byKey[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q%s", name, key))
	}
	s := &series{labels: append([]Label(nil), labels...)}
	f.byKey[key] = s
	f.order = append(f.order, key)
	return s
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	s.counter = &Counter{}
	return s.counter
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — for monotonic totals already tracked elsewhere (cube
// cost counters). fn must be safe to call from the scrape goroutine.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.register(name, help, kindCounter, labels)
	s.counterFunc = fn
}

// NewFloatCounterFunc registers a counter whose float64 value is read
// from fn at scrape time — for monotonic totals the runtime reports in
// fractional units (cumulative seconds of GC pause or lock wait). fn
// must be safe to call from the scrape goroutine.
func (r *Registry) NewFloatCounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindCounter, labels)
	s.counterFloatFunc = fn
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	s.gauge = &Gauge{}
	return s.gauge
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe to call from the scrape goroutine.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGauge, labels)
	s.gaugeFunc = fn
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (nil selects LatencyBuckets).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	s.histogram = newHistogram(bounds)
	return s.histogram
}

// WritePrometheus renders every registered family in the text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			s := f.byKey[key]
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, key, s.counter.Value())
			case s.counterFunc != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, key, s.counterFunc())
			case s.counterFloatFunc != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, key, formatFloat(s.counterFloatFunc()))
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, key, s.gauge.Value())
			case s.gaugeFunc != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, key, formatFloat(s.gaugeFunc()))
			case s.histogram != nil:
				writeHistogram(&b, f.name, s.labels, s.histogram)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			labelKey(append(append([]Label(nil), labels...), Label{"le", formatFloat(bound)})), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name,
		labelKey(append(append([]Label(nil), labels...), Label{"le", "+Inf"})), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelKey(labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelKey(labels), cum)
}

// labelKey renders a label set as {k="v",...}, or "" for no labels.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
