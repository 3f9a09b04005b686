// Command histbench regenerates every table and figure of the paper's
// evaluation (Section 5 of Riedewald/Agrawal/El Abbadi, SIGMOD 2002).
//
// Usage:
//
//	histbench -exp table3|fig10|fig11|fig12|fig13|table4|fig14|all [flags]
//
// Flags:
//
//	-scale f    geometry scale factor (1 = the paper's full Table 3
//	            geometry; figures default to reduced scales so a run
//	            finishes in minutes — see per-experiment defaults)
//	-queries n  number of queries for fig10/fig11/fig14
//	-series     also print the full per-point series as CSV
//	-seed n     RNG seed
//	-json path  write a machine-readable report (p50/p90/p99/mean per
//	            cost curve, plus wall-clock seconds per experiment,
//	            stamped with the shared perf.RunMeta build metadata:
//	            git revision, Go version, GOMAXPROCS, OS/arch) to
//	            path, or to stdout with "-"
//	-trace      additionally run the traced per-query cost experiment:
//	            drives the core facade with a span per query and emits
//	            one JSON record per query (duration plus the span's
//	            cells_touched/conversions/instances counters) next to
//	            the closed-form DDC and PS bounds
//
// Costs are cell accesses (in-memory experiments) or page accesses
// (disk experiments), the paper's hardware-independent metric; the
// JSON digests use the same nearest-rank quantiles as the server's
// live histograms (internal/stats, internal/obs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"histcube/internal/experiments"
	"histcube/internal/perf"
	"histcube/internal/stats"
	"histcube/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table3, fig10, fig11, fig12, fig13, table4, fig14, all")
		scale   = flag.Float64("scale", 0, "geometry scale factor (0 = per-experiment default)")
		queries = flag.Int("queries", 0, "query count for fig10/fig11/fig14 (0 = paper default)")
		series  = flag.Bool("series", false, "print full per-point series as CSV")
		seed    = flag.Int64("seed", 1, "RNG seed")
		jsonOut = flag.String("json", "", "write a machine-readable JSON report to this path (\"-\" = stdout)")
		traced  = flag.Bool("trace", false, "run the traced per-query cost experiment: one JSON record per query (span counters vs the closed-form DDC/PS bounds)")
	)
	flag.Parse()

	report := make(map[string]any)
	run := func(name string, fn func() (any, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		start := time.Now()
		rec, err := fn()
		wall := time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "histbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if rec != nil {
			report[name] = map[string]any{"wall_seconds": wall, "result": rec}
		}
		fmt.Println()
	}

	pick := func(def float64) float64 {
		if *scale > 0 {
			return *scale
		}
		return def
	}
	nq := func(def int) int {
		if *queries > 0 {
			return *queries
		}
		return def
	}

	run("table3", func() (any, error) {
		sc := pick(1.0)
		rows := experiments.Table3(sc)
		fmt.Printf("Data sets (scale %g); paper: weather4 143,648,037/1,048,679/0.0073, weather6 139,826,700/549,010/0.0039, gauss3 19,902,511/950,633/0.048\n", sc)
		fmt.Printf("%-16s %5s %14s %12s %9s\n", "name", "dims", "cells", "non-empty", "density")
		for _, r := range rows {
			fmt.Printf("%-16s %5d %14d %12d %9.4f\n", r.Name, r.Dims, r.TotalCells, r.NonEmpty, r.Density)
		}
		return map[string]any{"scale": sc, "rows": rows}, nil
	})

	queryCost := func(skew bool) (any, error) {
		sc := pick(1.0)
		n := nq(2000)
		res, err := experiments.QueryCost(sc, n, skew, 50, *seed)
		if err != nil {
			return nil, err
		}
		mix := "uni"
		if skew {
			mix = "skew"
		}
		fmt.Printf("Query cost vs #queries (weather4 time slice, %s mix, scale %g, %d queries, rolling window 50)\n", mix, sc, n)
		fmt.Printf("eCube first window avg %.1f -> last window avg %.1f; DDC avg %.1f; PS avg %.1f\n",
			res.ECubeFirst, res.ECubeLast, res.DDCAvg, res.PSAvg)
		fmt.Printf("converted %d of %d slice cells to PS\n", res.Converted, res.SliceCells)
		fmt.Println("paper shape: eCube starts above DDC, converges towards the constant PS cost; skew converges faster")
		if *series {
			fmt.Println("query,ecube,ddc,ps")
			for _, p := range res.Points {
				fmt.Printf("%d,%.2f,%.2f,%.2f\n", p.Query, p.ECube, p.DDC, p.PS)
			}
		}
		ecube := make([]float64, len(res.Points))
		for i, p := range res.Points {
			ecube[i] = p.ECube
		}
		return map[string]any{
			"mix":          mix,
			"scale":        sc,
			"queries":      n,
			"ecube_first":  res.ECubeFirst,
			"ecube_last":   res.ECubeLast,
			"ddc_avg":      res.DDCAvg,
			"ps_avg":       res.PSAvg,
			"converted":    res.Converted,
			"slice_cells":  res.SliceCells,
			"wall_seconds": res.WallSeconds,
			// Digest of the eCube rolling-window cost curve.
			"ecube_window_cost": stats.Summarize(ecube),
		}, nil
	}
	run("fig10", func() (any, error) { return queryCost(false) })
	run("fig11", func() (any, error) { return queryCost(true) })

	updateCost := func(spec workload.Spec, def float64) (any, error) {
		sc := pick(def)
		res, err := experiments.UpdateCost(spec, sc)
		if err != nil {
			return nil, err
		}
		with := stats.Summarize(res.SortedWith)
		without := stats.Summarize(res.SortedWithout)
		fmt.Printf("Update cost quantiles, %s at scale %g (%d updates), costs in cell accesses\n", spec.Name, sc, res.Updates)
		fmt.Printf("with copy cost:   p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
			with.P50, with.P90, with.P99, with.Max)
		fmt.Printf("without copies:   p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
			without.P50, without.P90, without.P99, without.Max)
		fmt.Printf("total copy work (area between curves): %.0f\n", res.TotalCopy)
		fmt.Println("paper shape: copies ride on cheap updates; expensive updates do little extra work")
		if *series {
			fmt.Println("rank,with,without")
			step := len(res.SortedWith)/200 + 1
			for i := 0; i < len(res.SortedWith); i += step {
				fmt.Printf("%d,%.0f,%.0f\n", i, res.SortedWith[i], res.SortedWithout[i])
			}
		}
		return map[string]any{
			"dataset":         spec.Name,
			"scale":           sc,
			"updates":         res.Updates,
			"with_copy":       with,
			"without_copy":    without,
			"total_copy_work": res.TotalCopy,
			"wall_seconds":    res.WallSeconds,
		}, nil
	}
	run("fig12", func() (any, error) { return updateCost(workload.Weather6Spec, 0.05) })
	run("fig13", func() (any, error) { return updateCost(workload.Gauss3Spec, 0.05) })

	run("table4", func() (any, error) {
		sc := pick(0.05)
		rows, err := experiments.Table4(sc, 0)
		if err != nil {
			return nil, err
		}
		fmt.Printf("Incompletely copied historic instances after each update (scale %g)\n", sc)
		fmt.Println("paper: in-memory 0/2/2 (weather4), 0/2/2 (weather6), 0/5/1 (gauss3); disk always 0/1/1")
		fmt.Printf("%-12s %-10s %4s %4s %14s\n", "data set", "mode", "min", "max", "most frequent")
		for _, r := range rows {
			fmt.Printf("%-12s %-10s %4d %4d %14d\n", r.Dataset, r.Mode, r.Min, r.Max, r.MostFrequent)
		}
		return map[string]any{"scale": sc, "rows": rows}, nil
	})

	run("fig14", func() (any, error) {
		sc := pick(1.0)
		n := nq(10000)
		res, err := experiments.IOCost(sc, n, 0, *seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("I/O cost per query, weather6 at scale %g, %d uni queries, 8K pages\n", sc, n)
		fmt.Printf("DDC array avg %.2f page accesses; bulk-loaded R*-tree avg %.2f leaf accesses\n", res.ArrayAvg, res.RTreeAvg)
		fmt.Printf("R*-tree: height %d, %d leaves\n", res.TreeHeight, res.TreeLeaves)
		fmt.Printf("storage: array %d cells vs tree %d entries (ratio %.1fx; paper: up to 20x)\n",
			res.ArrayCells, res.TreeEntries, float64(res.ArrayCells)/float64(res.TreeEntries))
		fmt.Println("paper (full scale): array 59.17 vs R*-tree 275.65 — the array wins;")
		fmt.Println("at small scales the ordering flips (few points -> few leaves), the crossover the paper predicts for sparser data")
		if *series {
			fmt.Println("rank,array,rtree")
			step := len(res.SortedArray)/200 + 1
			for i := 0; i < len(res.SortedArray); i += step {
				fmt.Printf("%d,%.0f,%.0f\n", i, res.SortedArray[i], res.SortedRTree[i])
			}
		}
		return map[string]any{
			"scale":        sc,
			"queries":      n,
			"array_avg":    res.ArrayAvg,
			"rtree_avg":    res.RTreeAvg,
			"tree_height":  res.TreeHeight,
			"tree_leaves":  res.TreeLeaves,
			"array_cells":  res.ArrayCells,
			"tree_entries": res.TreeEntries,
			"array_cost":   stats.Summarize(res.SortedArray),
			"rtree_cost":   stats.Summarize(res.SortedRTree),
		}, nil
	})

	run("ooo", func() (any, error) {
		sc := pick(0.01)
		n := nq(200)
		rows, err := experiments.OutOfOrderSweep(sc, []float64{0, 1, 5, 10, 25, 50}, n, *seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("Graceful degradation with out-of-order updates (Section 2.5), gauss3 at scale %g, %d queries\n", sc, n)
		fmt.Printf("%8s %10s %16s %16s\n", "%ooo", "buffered", "list work/query", "rtree leaves/query")
		for _, r := range rows {
			fmt.Printf("%8.0f %10d %16.1f %16.1f\n", r.Percent, r.Buffered,
				float64(r.ListChecks)/float64(r.Queries), float64(r.TreeLeaves)/float64(r.Queries))
		}
		fmt.Println("paper claim: query cost converges to a general d-dimensional structure's cost as the share grows")
		return map[string]any{"scale": sc, "queries": n, "rows": rows}, nil
	})

	if *traced {
		run("trace", func() (any, error) {
			n := nq(48)
			res, err := experiments.TracedQueryCost(16, 2, n, true, *seed)
			if err != nil {
				return nil, err
			}
			fmt.Printf("Traced per-query cost via the core facade (n=%d, %d non-time dims, identical historic query, %d repeats)\n",
				res.N, res.Dims, res.Queries)
			fmt.Printf("bounds: ddc=(2 log2 n)^d=%.0f cells, ps=2^d=%.0f cells\n", res.DDCBound, res.PSBound)
			enc := json.NewEncoder(os.Stdout)
			for _, rec := range res.Records {
				if err := enc.Encode(rec); err != nil {
					return nil, err
				}
			}
			first := res.Records[0]
			last := res.Records[len(res.Records)-1]
			fmt.Printf("first query: %d cells, %d conversions; last: %d cells, %d conversions\n",
				first.CellsTouched, first.Conversions, last.CellsTouched, last.Conversions)
			fmt.Println("paper shape (Figs. 10/11): identical queries converge from the DDC regime to the constant PS bound")
			cells := make([]float64, len(res.Records))
			for i, rec := range res.Records {
				cells[i] = float64(rec.CellsTouched)
			}
			return map[string]any{
				"n":          res.N,
				"dims":       res.Dims,
				"queries":    res.Queries,
				"ddc_bound":  res.DDCBound,
				"ps_bound":   res.PSBound,
				"first":      first,
				"last":       last,
				"cells_cost": stats.Summarize(cells),
			}, nil
		})
	}

	if *exp != "all" && !strings.Contains("table3 fig10 fig11 fig12 fig13 table4 fig14 ooo trace", *exp) {
		fmt.Fprintf(os.Stderr, "histbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *jsonOut != "" {
		if err := writeReport(*jsonOut, report, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "histbench: writing report: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeReport emits the machine-readable run report, so the tool
// itself is the producer rather than ad-hoc postprocessing. The meta
// block (git revision, Go version, GOMAXPROCS, OS/arch) is the
// perf.RunMeta that benchmark/ results and both servers' VERSION
// replies are built from, so every number in the repo is attributable
// to a build the same way.
func writeReport(path string, experiments map[string]any, seed int64) error {
	doc := map[string]any{
		"tool":        "histbench",
		"meta":        perf.CollectMeta("histbench"),
		"seed":        seed,
		"quantiles":   "nearest-rank (internal/stats.Quantile)",
		"experiments": experiments,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
