// Command benchmark is histcube's latency-budget harness: four
// closed-loop workloads against the real histserve/histproxy binaries
// on loopback, every answer checked against a naive oracle, plus a
// traced run that attributes the time to layers. See README.md; run it
// through run.sh, which builds the binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == refServerArg {
		refServerMain()
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding the built histserve and histproxy")
		scratch  = flag.String("scratch", ".bench_build/tmp", "directory for data dirs and server logs (removed on exit)")
		outDir   = flag.String("out", "benchmark/out", "directory for result and trace JSON files")
		workload = flag.String("workload", "", "run one workload and end with the driver's one-line JSON result; empty runs all four plus the traced run")
		seed     = flag.Int64("seed", 1, "workload seed; the servers only ever see the generated lines")
		seconds  = flag.Int("seconds", 0, "measured seconds per run, split over three sessions; 0 selects 24 (9 with --smoke, which runs one 3 s session)")
		traced   = flag.Int("trace", 0, "with --workload: 0 reports the end-to-end metrics, 1 makes the traced run and reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "short phases and probes; shapes are checked, bounds are not")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and compare the runs against the bounds")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
		if *smoke {
			*seconds = smokeSeconds
		}
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(err)
	}
	e, err := newEnv(*binDir, *scratch)
	if err != nil {
		fatal(err)
	}
	// Children and temp dirs are reaped on every exit path: normal
	// return, fatal error, and SIGINT/SIGTERM (SIGKILL is covered by the
	// children's Pdeathsig).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	h := &harness{
		env: e, outDir: *outDir, seed: *seed, seconds: *seconds, smoke: *smoke,
		conns: generatorConns(),
	}
	var code int
	if *workload != "" {
		code = h.single(*workload, *traced == 1)
	} else {
		code = h.suite(*repeat)
	}
	e.cleanup()
	os.Exit(code)
}

// generatorConns is the number of closed-loop connections: never more
// generator goroutines than CPUs.
func generatorConns() int { return min(2, runtime.NumCPU()) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// harness carries one invocation's settings.
type harness struct {
	env     *env
	outDir  string
	seed    int64
	seconds int
	smoke   bool
	conns   int
}

// opts splits --seconds into sessionsPerRun timed phases. A --smoke run
// and a traced run measure one such phase, so the clock-driven slice
// count at its end is the same everywhere.
func (h *harness) opts(w *workloadSpec) runOpts {
	o := runOpts{
		w: w, seed: h.seed, conns: h.conns, sessions: sessionsPerRun,
		phase: time.Duration(h.seconds) * time.Second / sessionsPerRun,
	}
	if h.smoke {
		o.sessions = 1
	}
	return o
}

// single is the driver's contract: one workload, one run, the named
// metrics printed with their units, and a last line of JSON with
// exactly correct/attempted/failed/metrics.
func (h *harness) single(name string, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	var (
		res  *result
		err  error
		list = endToEnd
	)
	if traced {
		list = perLayer
		res, err = h.tracedRun(w, true)
	} else {
		res, err = h.env.runWorkload(h.opts(w))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res, list)
	if !traced {
		fmt.Println("before calibration (calib.go):")
		printMetrics(res, uncalibrated)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]val{}}
	for _, m := range list {
		out.Metrics[m.Name] = val{res.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed; first: %s\n", res.Failed, res.Attempted, res.FirstFail)
		return 1
	}
	return 0
}

// printResult lists the metrics of list by name with value and unit.
func printResult(res *result, list []metricSpec) {
	fmt.Printf("workload %s: attempted=%d failed=%d fail_share=%g slices=%d qry_n=%d ins_n=%d p99_supported=%t/%t\n",
		res.Workload, res.Attempted, res.Failed, res.FailShare, res.Slices, res.Qry.N, res.Ins.N, res.Qry.P99OK, res.Ins.P99OK)
	printMetrics(res, list)
}

func printMetrics(res *result, list []metricSpec) {
	for _, m := range list {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
}

func writeJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(raw, '\n'), 0o644)
}
