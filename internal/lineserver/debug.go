package lineserver

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"histcube/internal/fault"
	"histcube/internal/obs"
	"histcube/internal/trace"
)

// ServeMetrics starts the Prometheus-style HTTP listener: /metrics,
// /healthz (pure liveness), /readyz (Server.Ready), the retained traces
// as JSON under /debug/slowlog and /debug/trace/recent, and
// /debug/pprof/*. It returns the bound listener so callers (and tests)
// learn the resolved port.
func (s *Server) ServeMetrics(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.Reg.WritePrometheus(w); err != nil {
			s.Log.Error("metrics render failed", "err", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness is distinct from liveness: a process that is alive but
	// must not receive traffic yet (or any more) answers 503 here.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, msg := s.Ready(); !ok {
			http.Error(w, msg, http.StatusServiceUnavailable)
		} else {
			fmt.Fprintln(w, msg)
		}
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		s.writeEntriesJSON(w, map[string]any{
			"threshold_ns": s.Slow.Threshold().Nanoseconds(),
			"capacity":     s.Slow.Cap(),
			"observed":     s.Slow.Observed(),
			"admitted":     s.Slow.Admitted(),
		}, s.Slow.Entries())
	})
	mux.HandleFunc("/debug/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		s.writeEntriesJSON(w, map[string]any{"capacity": s.Recent.Cap()}, s.Recent.Entries())
	})
	// pprof normally registers on http.DefaultServeMux at import; this
	// listener uses its own mux, so the handlers are wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil && !strings.Contains(err.Error(), "use of closed") {
			s.Log.Error("metrics server stopped", "err", err)
		}
	}()
	return ln, nil
}

// writeEntriesJSON renders retained traces as a JSON document: the
// meta fields plus an "entries" array of {line, trace_id, at,
// duration_ns, trace} objects (trace.EntryJSON) — one shape on both
// binaries, so fleet-wide trace_id correlation works with one jq
// expression on either side.
func (s *Server) writeEntriesJSON(w http.ResponseWriter, meta map[string]any, entries []trace.Entry) {
	meta["entries"] = trace.EntriesJSON(entries)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(meta); err != nil {
		s.Log.Error("trace JSON render failed", "err", err)
	}
}

// Flags are the command-line knobs both binaries share, registered once
// so the two cannot drift apart.
type Flags struct {
	Addr    *string
	metrics *string
	reqTO   *time.Duration
	readTO  *time.Duration
	maxLine *int
	maxConn *int64
	slowThr *time.Duration
	slowCap *int
	rtEvery *time.Duration
	mutexPF *int
	fspec   *string
	fseed   *int64
}

// RegisterFlags registers the shared flags on fs; addr is the binary's
// default listen address.
func RegisterFlags(fs *flag.FlagSet, addr string) *Flags {
	return &Flags{
		Addr:    fs.String("addr", addr, "listen address"),
		metrics: fs.String("metrics", "", "optional HTTP listen address serving /metrics, /healthz, /readyz and /debug/* (e.g. :9090)"),
		reqTO:   fs.Duration("request-timeout", 10*time.Second, "per-request deadline; 0 disables"),
		readTO:  fs.Duration("read-timeout", 5*time.Minute, "close client connections idle for this long; also bounds each response write; 0 disables"),
		maxLine: fs.Int("max-line-bytes", 1<<20, "largest accepted request line in bytes"),
		maxConn: fs.Int64("max-conns", 256, "open client connections accepted at once; 0 = unlimited"),
		slowThr: fs.Duration("slow-query-threshold", 10*time.Millisecond, "queries at or above this end-to-end duration enter the slow-query log"),
		slowCap: fs.Int("slowlog-size", 32, "worst traces retained by the slow-query log"),
		rtEvery: fs.Duration("runtime-metrics-every", 10*time.Second, "sampling interval for histcube_runtime_* gauges (GC pause, goroutines, scheduler latency); 0 disables the sampler"),
		mutexPF: fs.Int("mutex-profile-fraction", 0, "runtime mutex profile sampling fraction (1 samples every contention event, 0 disables); populates /debug/pprof/mutex and scales histcube_lock_contention_events_total"),
		fspec:   fs.String("fault-spec", "", "fault-injection spec for chaos testing (see internal/fault for the grammar, the command's doc for its sites); empty disables"),
		fseed:   fs.Int64("fault-seed", 1, "seed for probabilistic -fault-spec rules"),
	}
}

// Apply configures s from the parsed flags — logger, governance limits,
// slow log, fault injector, runtime telemetry — and brings up the
// metrics listener when -metrics is set. Failures are logged and
// returned. The returned stop function ends the runtime sampler.
func (f *Flags) Apply(s *Server, log *slog.Logger) (stop func(), err error) {
	s.Log = log
	if *f.fspec != "" {
		if s.Inj, err = fault.Parse(*f.fspec, *f.fseed); err != nil {
			log.Error("bad -fault-spec", "err", err)
			return nil, fmt.Errorf("-fault-spec: %w", err)
		}
		log.Warn("fault injection armed", "fault", s.Inj.String())
	}
	s.Slow = trace.NewSlowLog(*f.slowCap, *f.slowThr)
	s.ReqTimeout = *f.reqTO
	s.ReadTimeout = *f.readTO
	s.MaxLineLen = *f.maxLine
	s.MaxConns = *f.maxConn
	// Mutex profiling must be on before any contention happens; it
	// defaults off because sampling costs the hot path a little.
	if *f.mutexPF > 0 {
		runtime.SetMutexProfileFraction(*f.mutexPF)
	}
	stop = func() {}
	if *f.rtEvery > 0 {
		stop = obs.NewRuntimeCollector(s.Reg).Start(*f.rtEvery)
	}
	if *f.metrics != "" {
		mln, err := s.ServeMetrics(*f.metrics)
		if err != nil {
			log.Error("metrics listener failed", "addr", *f.metrics, "err", err)
			return stop, fmt.Errorf("metrics listener %s: %w", *f.metrics, err)
		}
		log.Info("metrics listening", "addr", mln.Addr().String())
	}
	return stop, nil
}
