package metricname

import (
	"example.com/metricname/internal/obs"
	"example.com/metricname/internal/trace"
)

const namedConstant = "histcube_named_constant_total"

func register(reg *obs.Registry, dynamic string) {
	reg.NewCounter("histcube_requests_total", "ok: literal, well-formed")
	reg.NewCounter(namedConstant, "ok: named constant still folds to a literal")                   // want `metric "histcube_named_constant_total" is read by name in no test`
	reg.NewGaugeFunc("histserve_queue_depth", "ok: histserve prefix", func() float64 { return 0 }) // want `metric "histserve_queue_depth" is read by name in no test`
	reg.NewHistogram("histcube_latency_seconds", "ok", nil)

	reg.NewCounter(dynamic, "bad: computed name")                  // want `metric name dynamic is not a string constant`
	reg.NewCounter("histcube_requests_total"+dynamic, "bad")       // want `is not a string constant`
	reg.NewGauge("histcube_BadCase", "bad: upper case")            // want `violates the naming contract`
	reg.NewGauge("cube_missing_prefix", "bad: prefix")             // want `violates the naming contract`
	reg.NewCounterFunc("histcube_", "bad: bare prefix", count)     // want `violates the naming contract`
	reg.NewHistogram("histcube_requests_total", "bad: duped", nil) // want `metric "histcube_requests_total" is registered at two sites`
}

func count() int64 { return 0 }

// registerPerf mirrors internal/perf's Set.Register: one NewGaugeFunc
// call site inside a loop publishes each histserve_cmd_* series for
// every cmd/stat label pair. A single site registering the same
// literal name many times is fine — the duplicate rule counts sites,
// not calls — and the per-command latency names must parse as
// well-formed histserve_ metrics.
func registerPerf(reg *obs.Registry, names []string) {
	for _, n := range names {
		for _, stat := range []string{"p50", "p95", "p99", "max", "mean"} {
			reg.NewGaugeFunc("histserve_cmd_latency_seconds", "ok: one site, many label pairs", // want `is read by name in no test`
				func() float64 { return 0 },
				obs.Label{Key: "cmd", Value: n}, obs.Label{Key: "stat", Value: stat})
		}
		reg.NewGaugeFunc("histserve_cmd_window_ops_per_sec", "ok: histserve prefix, snake case", // want `is read by name in no test`
			func() float64 { return 0 }, obs.Label{Key: "cmd", Value: n})
		reg.NewGaugeFunc("histserve_cmd_window_count", "ok: histserve prefix, snake case", // want `is read by name in no test`
			func() float64 { return 0 }, obs.Label{Key: "cmd", Value: n})
	}
	reg.NewGaugeFunc("histserve_cmd_window_count", "bad: second site for a live name", count2) // want `metric "histserve_cmd_window_count" is registered at two sites` `is read by name in no test`
}

func count2() float64 { return 0 }

// registerProxy covers the histproxy_ prefix (internal/histproxy's metric
// namespace, published by perf.RegisterProxy and the proxy's own
// counters): well-formed histproxy_ names pass, near-misses on the
// prefix or case fail like any other name.
func registerProxy(reg *obs.Registry, shards []string) {
	reg.NewCounter("histproxy_requests_total", "ok: histproxy prefix") // want `is read by name in no test`
	reg.NewCounter("histproxy_partials_total", "ok: histproxy prefix") // want `is read by name in no test`
	for _, sh := range shards {
		reg.NewGaugeFunc("histproxy_shard_up", "ok: one site, one label pair per shard", // want `metric "histproxy_shard_up" is read by name in no test`
			func() float64 { return 0 }, obs.Label{Key: "shard", Value: sh})
	}

	reg.NewCounter("histproxy_", "bad: bare prefix")            // want `violates the naming contract`
	reg.NewCounter("proxy_requests_total", "bad: short prefix") // want `violates the naming contract`
	reg.NewGauge("histproxy_Shard_Up", "bad: upper case")       // want `violates the naming contract`
}

// registerRuntime covers the runtime/contention collector's names
// (internal/obs NewRuntimeCollector): histcube_runtime_* gauges and
// counters plus the histcube_lock_* totals, including the
// NewFloatCounterFunc registration path for float64 monotonic totals.
func registerRuntime(reg *obs.Registry) {
	reg.NewGaugeFunc("histcube_runtime_goroutines", "ok: runtime gauge", count2)                  // want `is read by name in no test`
	reg.NewGaugeFunc("histcube_runtime_heap_bytes", "ok: runtime gauge", count2)                  // want `is read by name in no test`
	reg.NewGaugeFunc("histcube_runtime_gc_pause_p99_seconds", "ok: runtime gauge", count2)        // want `is read by name in no test`
	reg.NewCounterFunc("histcube_runtime_gc_cycles_total", "ok: runtime counter", count)          // want `is read by name in no test`
	reg.NewFloatCounterFunc("histcube_lock_wait_seconds_total", "ok: float counter func", count2) // want `is read by name in no test`
	reg.NewCounterFunc("histcube_lock_contention_events_total", "ok: runtime counter", count)     // want `is read by name in no test`

	reg.NewFloatCounterFunc("histcube_Lock_Wait", "bad: upper case", count2)   // want `violates the naming contract`
	reg.NewFloatCounterFunc("lock_wait_seconds_total", "bad: prefix", count2)  // want `violates the naming contract`
	reg.NewFloatCounterFunc("histcube_lock_wait_seconds_total", "bad", count2) // want `metric "histcube_lock_wait_seconds_total" is registered at two sites` `is read by name in no test`
}

const namedSpan = "histcube.named_span"

func spans(dynamic string) {
	root := trace.New("histserve.query")    // ok: literal, dotted, well-formed
	root.StartChild("histcube.prefix")      // ok
	root.StartChild("histcube.slice_query") // ok: underscores inside a dotted segment
	root.StartChild("histcube.prefix")      // ok: same span name from many sites is fine (no duplicate rule)
	_ = trace.New(namedSpan)                // ok: named constant still folds to a literal

	_ = trace.New(dynamic)                 // want `span name dynamic is not a string constant`
	_ = trace.New("histcube." + dynamic)   // want `is not a string constant`
	_ = trace.New("histcube.BadCase")      // want `span name "histcube.BadCase" violates the naming contract`
	_ = trace.New("histcube_query")        // want `violates the naming contract`
	_ = trace.New("query.histcube")        // want `violates the naming contract`
	root.StartChild("histcube.")           // want `violates the naming contract`
	root.StartChild("other.prefix.spoken") // want `violates the naming contract`
}

// proxySpans covers internal/histproxy's span namespace: proxy.query roots
// with one proxy.leg child per shard fan-out. "proxy" alone is a span
// prefix, not a metric prefix — histproxy. is NOT a valid span prefix
// (the namespaces are deliberately distinct so a grep for proxy. finds
// spans and histproxy_ finds metrics).
func proxySpans() {
	root := trace.New("proxy.query") // ok: proxy span prefix
	root.StartChild("proxy.leg")     // ok: one child per fan-out leg
	_ = trace.New("proxy.insert")    // ok

	_ = trace.New("histproxy.query") // want `violates the naming contract`
	_ = trace.New("proxy.")          // want `violates the naming contract`
	root.StartChild("proxy.Leg")     // want `violates the naming contract`
}
