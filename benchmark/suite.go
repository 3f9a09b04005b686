package main

// The traced run, the full set (all four workloads untraced, then the
// traced runs, ladder and probes) and the comparison of two result
// files against the bounds.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"histcube/internal/perf"
)

const resultFormat = "histcube-benchmark/v1"

// tracedRun repeats the workload against servers started with mutex
// profiling and the 1 s runtime sampler, replays its op stream in
// process under the benchmark's own spans, and (withLadder) measures
// the ladder and the in-process probes. Its end-to-end numbers are
// discarded: only per-layer metrics are read from the result.
func (h *harness) tracedRun(w *workloadSpec, withLadder bool) (*result, error) {
	o := h.opts(w)
	o.sessions = 1
	h.env.traced = true // the workload's servers only; the ladder measures plain ones
	res, err := h.env.runWorkload(o)
	h.env.traced = false
	if err != nil {
		return nil, err
	}
	roots, err := h.replayWorkload(w)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	stats := selfTimes(roots)
	fmt.Printf("span self time, in-process replay of %s (%d requests sampled 1 in %d):\n", w.Name, len(roots), sampleEvery)
	for _, st := range stats {
		fmt.Printf("  %-16s %8d spans %10.3f us mean self\n", st.Name, st.Spans, st.SelfUS)
	}
	path, err := writeJSON(h.outDir, "trace_"+w.Name+".json", map[string]any{"self_time": stats, "requests": roots})
	if err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)
	if withLadder {
		fail := &tally{}
		if err := h.runLadder(res.Metrics, fail); err != nil {
			return nil, err
		}
		res.Attempted += fail.attempted
		res.Failed += fail.failed
		if res.FirstFail == "" {
			res.FirstFail = fail.firstFail
		}
		if err := h.runProbes(res.Metrics); err != nil {
			return nil, err
		}
		printBudget(res.Metrics)
	}
	return res, nil
}

// report is the full set's JSON, one file per run under benchmark/out.
type report struct {
	Format    string             `json:"format"`
	Meta      map[string]any     `json:"meta"`
	Untraced  map[string]*result `json:"end_to_end"`
	Traced    map[string]*result `json:"per_layer"`
	Overhead  map[string]float64 `json:"trace_overhead_share"`
	FailShare float64            `json:"fail_share"`
}

func (h *harness) meta() map[string]any {
	pm := perf.CollectMeta("benchmark")
	o := h.opts(&workloads[0])
	return map[string]any{
		"date": pm.Date, "go_version": pm.GoVersion, "os": pm.OS, "arch": pm.Arch,
		"nproc": runtime.NumCPU(), "client_gomaxprocs": pm.GOMAXPROCS,
		"server_gomaxprocs": "default (= nproc; the servers are started without GOMAXPROCS set)",
		"connections":       h.conns, "seed": h.seed, "seconds": h.seconds, "smoke": h.smoke,
		"sessions":      o.sessions,
		"phase_seconds": o.phase.Seconds(),
		"slices":        slicesIn(o.phase), // per session, sliceLoad of load each between calibration bursts
		"cube":          "-dims " + cubeDims + " -op sum -ooo",
		"flush_policy":  "durable_ingest: -fsync always; fleet_mixed: -fsync always -repl-min-acks 1; others: no WAL",
		"tick_ms":       map[string]int{"read_converged": 0, "mixed_live": 15, "durable_ingest": 150, "fleet_mixed": 150},
		"data_dir_fs":   fsType(h.env.tmp),
	}
}

// suite runs the whole set repeat times; with more than one run it
// also checks that the runs agree within the bounds.
func (h *harness) suite(repeat int) int {
	code := 0
	var reports []*report
	for k := 1; k <= repeat; k++ {
		rep, err := h.runSet()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		name := fmt.Sprintf("result_seed%d_run%d.json", h.seed, k)
		path, err := writeJSON(h.outDir, name, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println("result written to", path)
		if rep.FailShare > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: fail_share = %g > 0\n", rep.FailShare)
			code = 1
		}
		reports = append(reports, rep)
	}
	for k := 1; k < len(reports); k++ {
		fmt.Printf("\nrun 1 against run %d:\n", k+1)
		if !compareReports(reports[0], reports[k], true) {
			code = 1
		}
	}
	return code
}

func (h *harness) runSet() (*report, error) {
	rep := &report{
		Format: resultFormat, Meta: h.meta(),
		Untraced: map[string]*result{}, Traced: map[string]*result{}, Overhead: map[string]float64{},
	}
	var attempted, failed int64
	for i := range workloads {
		w := &workloads[i]
		began := time.Now()
		res, err := h.env.runWorkload(h.opts(w))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		printResult(res, slices.Concat(endToEnd, informational, uncalibrated))
		fmt.Printf("  (%s took %.1f s; server %s)\n", w.Name, time.Since(began).Seconds(), res.Server)
		if res.Failed > 0 {
			fmt.Printf("  FAILED %d of %d: %s\n", res.Failed, res.Attempted, res.FirstFail)
		}
		if share := res.Metrics["client.cpu_share"]; share > 0.6 {
			fmt.Printf("  INVALID: the generator used %.0f%% of a core per connection (> 60%%)\n", 100*share)
		}
		rep.Untraced[w.Name] = res
		attempted, failed = attempted+res.Attempted, failed+res.Failed
	}
	for i := range workloads {
		w := &workloads[i]
		res, err := h.tracedRun(w, i == len(workloads)-1)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		printResult(res, perLayer)
		rep.Traced[w.Name] = res
		attempted, failed = attempted+res.Attempted, failed+res.Failed
		rep.Overhead[w.Name] = 1 - ratio(res.Metrics["traced.ops_s"], rep.Untraced[w.Name].Metrics["ops_s"])
		fmt.Printf("  %-34s %14.4f share\n", "trace_overhead_share", rep.Overhead[w.Name])
	}
	rep.FailShare = ratio(float64(failed), float64(attempted))
	fmt.Printf("fail_share %g (%d of %d)\n", rep.FailShare, failed, attempted)
	return rep, nil
}

// compareMain is `benchmark compare BASE.json CANDIDATE.json`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json CANDIDATE.json")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			reps[i] = &report{}
			err = json.Unmarshal(raw, reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
		if reps[i].Format != resultFormat {
			fmt.Fprintf(os.Stderr, "benchmark: %s is %q, not %q (BENCH_000N.json and histperf records are not comparable)\n", path, reps[i].Format, resultFormat)
			return 2
		}
	}
	for _, key := range []string{"seed", "seconds", "nproc", "connections", "smoke"} {
		if a, b := fmt.Sprint(reps[0].Meta[key]), fmt.Sprint(reps[1].Meta[key]); a != b {
			fmt.Fprintf(os.Stderr, "benchmark: not like with like: %s is %s in %s and %s in %s\n", key, a, args[0], b, args[1])
			return 2
		}
	}
	if !compareReports(reps[0], reps[1], false) {
		return 1
	}
	return 0
}

// compareReports prints, per (metric, workload), how much worse cand is
// than base next to the metric's bound and flags the pairs beyond it.
// symmetric also flags cand being better by more than the bound: two
// runs of one commit must agree both ways. It reports whether every
// pair passed.
func compareReports(base, cand *report, symmetric bool) bool {
	ok := true
	fmt.Printf("%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "base", "candidate", "worse by", "bound")
	for _, w := range workloads {
		b, c := base.Untraced[w.Name], cand.Untraced[w.Name]
		if b == nil || c == nil {
			fmt.Printf("%-16s missing from one side\n", w.Name)
			ok = false
			continue
		}
		for _, m := range endToEnd {
			bv, cv := b.Metrics[m.Name], c.Metrics[m.Name]
			worse := ratio(cv-bv, bv)
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound || (symmetric && math.Abs(worse) > m.Bound) {
				flag, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, bv, cv, 100*worse, 100*m.Bound, flag)
		}
		// fail_share is bounded absolutely: it is 0 at the seed commit.
		flag := ""
		if c.FailShare > b.FailShare+0.001 {
			flag, ok = "  EXCEEDS", false
		}
		fmt.Printf("%-16s %-16s %14.6f %14.6f %9s %7s%s\n", w.Name, "fail_share", b.FailShare, c.FailShare, "", "+0.001", flag)
		for _, m := range informational {
			if bv, cv := b.Metrics[m.Name], c.Metrics[m.Name]; bv > 0 || cv > 0 {
				fmt.Printf("%-16s %-16s %14.4f %14.4f %+8.1f%% %7s\n", w.Name, m.Name, bv, cv, 100*ratio(cv-bv, bv), "info")
			}
		}
	}
	fmt.Println(strings.Repeat("-", 82))
	if ok {
		fmt.Println("every end-to-end (metric, workload) pair is within its bound")
	} else {
		fmt.Println("some pairs exceed their bound")
	}
	return ok
}
