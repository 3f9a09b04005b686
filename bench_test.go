// Package histcube's top-level benchmarks regenerate every table and
// figure of the paper (via the experiment drivers, at reduced scale so
// `go test -bench=.` completes in minutes — cmd/histbench runs the
// full-scale versions) and measure the core structures directly.
// Paper-metric results (cell/page accesses) are attached with
// b.ReportMetric; wall-clock ns/op comes from the harness.
package histcube

import (
	"math/rand"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/appendcube"
	"histcube/internal/btree"
	"histcube/internal/core"
	"histcube/internal/ddc"
	"histcube/internal/dims"
	"histcube/internal/ecube"
	"histcube/internal/experiments"
	"histcube/internal/pager"
	"histcube/internal/paper/framework"
	"histcube/internal/paper/mvbt"
	"histcube/internal/paper/mversion"
	"histcube/internal/prefix"
	"histcube/internal/rstar"
	"histcube/internal/workload"
)

// --- Table and figure reproductions (reduced scale) ---

// BenchmarkTable3Datasets regenerates the Table 3 inventory.
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(0.002)
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig10ECubeUni regenerates Figure 10 (query cost vs #queries,
// uni mix) and reports the converged eCube cost.
func BenchmarkFig10ECubeUni(b *testing.B) {
	var last experiments.QueryCostResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.QueryCost(0.01, 1000, false, 50, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ECubeFirst, "ecube-first-cells/query")
	b.ReportMetric(last.ECubeLast, "ecube-last-cells/query")
	b.ReportMetric(last.DDCAvg, "ddc-cells/query")
	b.ReportMetric(last.PSAvg, "ps-cells/query")
}

// BenchmarkFig11ECubeSkew regenerates Figure 11 (skew mix).
func BenchmarkFig11ECubeSkew(b *testing.B) {
	var last experiments.QueryCostResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.QueryCost(0.01, 1000, true, 50, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ECubeFirst, "ecube-first-cells/query")
	b.ReportMetric(last.ECubeLast, "ecube-last-cells/query")
}

// BenchmarkFig12UpdateQuantiles regenerates Figure 12 (weather6 update
// cost with and without copy work).
func BenchmarkFig12UpdateQuantiles(b *testing.B) {
	var last experiments.UpdateCostResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.UpdateCost(workload.Weather6Spec, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.P90, "p90-cells/update")
	b.ReportMetric(last.TotalCopy/float64(last.Updates), "copy-cells/update")
}

// BenchmarkFig13UpdateQuantiles regenerates Figure 13 (gauss3).
func BenchmarkFig13UpdateQuantiles(b *testing.B) {
	var last experiments.UpdateCostResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.UpdateCost(workload.Gauss3Spec, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.P90, "p90-cells/update")
	b.ReportMetric(last.TotalCopy/float64(last.Updates), "copy-cells/update")
}

// BenchmarkTable4Incomplete regenerates Table 4 (incompletely copied
// instances, both storage modes).
func BenchmarkTable4Incomplete(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table4(0.005, 8192)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxMem, maxDisk := 0, 0
	for _, r := range rows {
		if r.Mode == "disk" && r.Max > maxDisk {
			maxDisk = r.Max
		}
		if r.Mode == "in-memory" && r.Max > maxMem {
			maxMem = r.Max
		}
	}
	b.ReportMetric(float64(maxMem), "max-incomplete-mem")
	b.ReportMetric(float64(maxDisk), "max-incomplete-disk")
}

// BenchmarkFig14ArrayVsRStar regenerates Figure 14 at reduced scale
// (full scale flips the ordering decisively in the array's favour; see
// EXPERIMENTS.md for the recorded full-scale run).
func BenchmarkFig14ArrayVsRStar(b *testing.B) {
	var last experiments.IOCostResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.IOCost(0.05, 300, 8192, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ArrayAvg, "array-pages/query")
	b.ReportMetric(last.RTreeAvg, "rtree-leaves/query")
}

// --- Core structure micro-benchmarks ---

func benchCube(b *testing.B, shape dims.Shape, slices, perSlice int) *appendcube.Cube {
	b.Helper()
	cube, err := appendcube.New(appendcube.Config{SliceShape: shape})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	x := make([]int, len(shape))
	for s := 0; s < slices; s++ {
		for u := 0; u < perSlice; u++ {
			for d, n := range shape {
				x[d] = r.Intn(n)
			}
			if _, err := cube.Update(int64(s), x, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	return cube
}

// BenchmarkCubeUpdate measures one append-only update (including
// amortised copy work) on a 64x64 cube.
func BenchmarkCubeUpdate(b *testing.B) {
	shape := dims.Shape{64, 64}
	cube := benchCube(b, shape, 50, 300)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(50 + i/300)
		if _, err := cube.Update(t, []int{r.Intn(64), r.Intn(64)}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCubeQueryHistoric measures a historic range query (eCube
// path), converging as conversions accumulate.
func BenchmarkCubeQueryHistoric(b *testing.B) {
	shape := dims.Shape{64, 64}
	cube := benchCube(b, shape, 50, 300)
	r := rand.New(rand.NewSource(3))
	qs := workload.TimeQueries(r, shape, 50, 512, false)
	base := cube.CacheAccesses + cube.Store().Accesses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := cube.Query(q.TimeLo, q.TimeHi, q.Box); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64((cube.CacheAccesses+cube.Store().Accesses())-base)/float64(b.N), "cells/query")
}

// BenchmarkECubeQuery measures standalone eCube queries from cold
// (first iteration converts) to hot.
func BenchmarkECubeQuery(b *testing.B) {
	shape := dims.Shape{128, 128}
	data := make([]float64, shape.Size())
	r := rand.New(rand.NewSource(4))
	for i := range data {
		data[i] = float64(r.Intn(4))
	}
	a, err := ecube.FromDense(data, shape)
	if err != nil {
		b.Fatal(err)
	}
	boxes := workload.Boxes(r, shape, 512, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Query(boxes[i%len(boxes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDDCQuery and BenchmarkPSQuery measure the static baselines.
func BenchmarkDDCQuery(b *testing.B) {
	benchStatic(b, func(data []float64, shape dims.Shape) (interface {
		Query(dims.Box) (float64, error)
	}, error) {
		return ddc.FromDense(data, shape)
	})
}

func BenchmarkPSQuery(b *testing.B) {
	benchStatic(b, func(data []float64, shape dims.Shape) (interface {
		Query(dims.Box) (float64, error)
	}, error) {
		return prefix.FromDense(data, shape)
	})
}

func benchStatic(b *testing.B, build func([]float64, dims.Shape) (interface {
	Query(dims.Box) (float64, error)
}, error)) {
	b.Helper()
	shape := dims.Shape{128, 128}
	data := make([]float64, shape.Size())
	r := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = float64(r.Intn(4))
	}
	a, err := build(data, shape)
	if err != nil {
		b.Fatal(err)
	}
	boxes := workload.Boxes(r, shape, 512, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Query(boxes[i%len(boxes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTreeRangeSum measures the aggregate B+tree.
func BenchmarkBTreeRangeSum(b *testing.B) {
	tr := btree.New(0)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 100000; i++ {
		tr.Add(int64(r.Intn(1<<20)), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(r.Intn(1 << 20))
		tr.RangeSum(lo, lo+int64(r.Intn(1<<16)))
	}
}

// BenchmarkTreapVersionedAdd measures persistent-treap updates (one
// new version per op).
func BenchmarkTreapVersionedAdd(b *testing.B) {
	var tr mversion.Treap
	r := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr = tr.Add(int64(r.Intn(1<<20)), 1)
	}
}

// BenchmarkRStarInsert and BenchmarkRStarQuery measure the comparator
// index.
func BenchmarkRStarInsert(b *testing.B) {
	tr, err := rstar.New(rstar.Config{Dim: 3, MaxEntries: 64})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(rstar.Entry{Coords: []int{r.Intn(1000), r.Intn(1000), r.Intn(1000)}, Value: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRStarQuery(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	es := make([]rstar.Entry, 100000)
	for i := range es {
		es[i] = rstar.Entry{Coords: []int{r.Intn(1000), r.Intn(1000), r.Intn(1000)}, Value: 1}
	}
	tr, err := rstar.BulkLoad(rstar.Config{Dim: 3, MaxEntries: 64}, es)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := []int{r.Intn(900), r.Intn(900), r.Intn(900)}
		hi := []int{lo[0] + 100, lo[1] + 100, lo[2] + 100}
		if _, err := tr.RangeAggregate(dims.Box{Lo: lo, Hi: hi}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationCopyAhead compares the adaptive copy-ahead against
// lazy-copy-only: without copy-ahead, incomplete instances accumulate
// and worst-case update cost spikes.
func BenchmarkAblationCopyAhead(b *testing.B) {
	run := func(b *testing.B, threshold int) (maxInc int, maxCost int) {
		ds := workload.Generate(workload.Weather6Spec.Scaled(0.005))
		for i := 0; i < b.N; i++ {
			cube, err := appendcube.New(appendcube.Config{
				SliceShape:         ds.SliceShape,
				CopyAheadThreshold: threshold,
			})
			if err != nil {
				b.Fatal(err)
			}
			maxInc, maxCost = 0, 0
			for _, u := range ds.Updates {
				res, err := cube.Update(u.Time, u.Coords, u.Delta)
				if err != nil {
					b.Fatal(err)
				}
				if res.Incomplete > maxInc {
					maxInc = res.Incomplete
				}
				if c := res.Cost(); c > maxCost {
					maxCost = c
				}
			}
		}
		return maxInc, maxCost
	}
	b.Run("adaptive", func(b *testing.B) {
		inc, cost := run(b, 0)
		b.ReportMetric(float64(inc), "max-incomplete")
		b.ReportMetric(float64(cost), "max-cells/update")
	})
	b.Run("disabled", func(b *testing.B) {
		inc, cost := run(b, -1)
		b.ReportMetric(float64(inc), "max-incomplete")
		b.ReportMetric(float64(cost), "max-cells/update")
	})
}

// BenchmarkAblationConversion compares historic queries with and
// without the eCube DDC->PS conversion.
func BenchmarkAblationConversion(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		shape := dims.Shape{64, 64}
		cube, err := appendcube.New(appendcube.Config{SliceShape: shape, DisableConversion: disable})
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(10))
		x := make([]int, 2)
		for s := 0; s < 40; s++ {
			for u := 0; u < 200; u++ {
				x[0], x[1] = r.Intn(64), r.Intn(64)
				if _, err := cube.Update(int64(s), x, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
		qs := workload.TimeQueries(r, shape, 40, 256, false)
		base := cube.CacheAccesses + cube.Store().Accesses()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, err := cube.Query(q.TimeLo, q.TimeHi, q.Box); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64((cube.CacheAccesses+cube.Store().Accesses())-base)/float64(b.N), "cells/query")
	}
	b.Run("ecube", func(b *testing.B) { run(b, false) })
	b.Run("ddc-only", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationGd compares the linear-scan out-of-order buffer
// against the R*-tree-backed one as the buffer grows.
func BenchmarkAblationGd(b *testing.B) {
	const buffered = 20000
	type gd interface {
		Insert(t int64, x []int, delta float64)
		Query(tLo, tHi int64, b dims.Box) (float64, error)
	}
	fill := func(g gd) {
		r := rand.New(rand.NewSource(11))
		for i := 0; i < buffered; i++ {
			g.Insert(int64(r.Intn(1000)), []int{r.Intn(100), r.Intn(100)}, 1)
		}
	}
	query := func(b *testing.B, g gd) {
		r := rand.New(rand.NewSource(12))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tLo := int64(r.Intn(900))
			lo := []int{r.Intn(90), r.Intn(90)}
			if _, err := g.Query(tLo, tLo+100, dims.NewBox(lo, []int{lo[0] + 10, lo[1] + 10})); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("list", func(b *testing.B) {
		g := framework.NewListGd()
		fill(g)
		query(b, g)
	})
	b.Run("rstar", func(b *testing.B) {
		g, err := rstar.NewGd(2)
		if err != nil {
			b.Fatal(err)
		}
		fill(g)
		query(b, g)
	})
}

// BenchmarkCoreInsert measures the public facade end to end (AVERAGE
// operator: two inner cubes).
func BenchmarkCoreInsert(b *testing.B) {
	c, err := core.New(core.Config{
		Dims:     []core.Dim{{Name: "x", Size: 64}, {Name: "y", Size: 64}},
		Operator: agg.Average,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Insert(int64(i/200), []int{r.Intn(64), r.Intn(64)}, float64(r.Intn(100))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutOfOrderSweep exercises Section 2.5's graceful
// degradation: increasing out-of-order shares grow the G_d buffer; the
// R*-tree-backed buffer keeps per-query work far below the linear
// scan.
func BenchmarkOutOfOrderSweep(b *testing.B) {
	var rows []experiments.OOORow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.OutOfOrderSweep(0.003, []float64{0, 10, 50}, 100, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Buffered), "buffered-at-50pct")
	b.ReportMetric(float64(last.TreeLeaves)/float64(last.Queries), "rtree-leaves/query")
}

// BenchmarkMVBTAdd measures multiversion B-tree updates (each creates
// versions).
func BenchmarkMVBTAdd(b *testing.B) {
	tr, err := mvbt.New(mvbt.Config{Capacity: 32})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Add(int64(r.Intn(1<<16)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVBTVersionedRangeSum measures range sums against random
// historical versions.
func BenchmarkMVBTVersionedRangeSum(b *testing.B) {
	tr, err := mvbt.New(mvbt.Config{Capacity: 32})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 50000; i++ {
		if err := tr.Add(int64(r.Intn(1<<16)), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ver := int64(r.Intn(int(tr.Version())) + 1)
		lo := int64(r.Intn(1 << 16))
		tr.RangeSum(ver, lo, lo+1024)
	}
}

// BenchmarkDiskCubeUpdate measures disk-backed updates including the
// page-wise copy-ahead; the page I/O count per op is attached.
func BenchmarkDiskCubeUpdate(b *testing.B) {
	shape := dims.Shape{64, 64}
	pg, err := pager.New(pager.NewMemBackend(pager.DefaultPageSize), pager.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := appendcube.New(appendcube.Config{
		SliceShape: shape,
		Store:      appendcube.NewDiskStore(shape.Size(), pg),
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(16))
	base := pg.IOs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Update(int64(i/300), []int{r.Intn(64), r.Intn(64)}, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pg.IOs()-base)/float64(b.N), "page-ios/update")
}
