// Package experiments reproduces every table and figure of the
// paper's evaluation (Section 5). Each experiment is a pure function
// from a scale factor and seed to structured results; cmd/histbench
// renders them as tables/CSV and bench_test.go wraps them in
// testing.B benchmarks. The cost metric is the paper's: cell accesses
// in memory, page accesses on disk — deterministic given the
// workload, so the reproduced shapes are machine-independent.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"histcube/internal/appendcube"
	"histcube/internal/ddc"
	"histcube/internal/dims"
	"histcube/internal/ecube"
	"histcube/internal/molap"
	"histcube/internal/pager"
	"histcube/internal/prefix"
	"histcube/internal/rstar"
	"histcube/internal/stats"
	"histcube/internal/workload"
)

// Table3Row is one line of the paper's Table 3.
type Table3Row struct {
	Name       string
	Dims       int
	TotalCells int
	NonEmpty   int
	Density    float64
}

// Table3 generates the three data sets at the given scale and reports
// their inventory (paper: weather4 143,648,037 cells / 1,048,679
// non-empty / 0.0073; weather6 139,826,700 / 549,010 / 0.0039; gauss3
// 19,902,511 / 950,633 / 0.048).
func Table3(scale float64) []Table3Row {
	rows := make([]Table3Row, 0, 3)
	for _, spec := range []workload.Spec{
		workload.Weather4Spec.Scaled(scale),
		workload.Weather6Spec.Scaled(scale),
		workload.Gauss3Spec.Scaled(scale),
	} {
		ds := workload.Generate(spec)
		rows = append(rows, Table3Row{
			Name:       ds.Name,
			Dims:       len(ds.SliceShape) + 1,
			TotalCells: ds.TotalCells(),
			NonEmpty:   ds.NonEmpty(),
			Density:    ds.Density(),
		})
	}
	return rows
}

// QueryCostPoint is one x-position of Figures 10 and 11: the rolling
// average (window 50 in the paper) of per-query cell accesses for the
// three techniques.
type QueryCostPoint struct {
	Query int
	ECube float64
	DDC   float64
	PS    float64
}

// QueryCostResult is the Figure 10/11 output.
type QueryCostResult struct {
	Points []QueryCostPoint
	// Convergence summary: eCube's average cost over the first and
	// last rolling window, and the flat DDC/PS averages.
	ECubeFirst, ECubeLast float64
	DDCAvg, PSAvg         float64
	Converted             int // eCube cells converted to PS
	SliceCells            int
	// WallSeconds is the experiment's wall-clock time, secondary to
	// the cell-access metric and reported for context.
	WallSeconds float64
}

// QueryCost runs the Figure 10 (skew=false) / Figure 11 (skew=true)
// experiment: a weather4-style (d-1)-dimensional time slice is
// pre-aggregated three ways (eCube starting from DDC, static DDC,
// static PS) and the same query sequence is costed on each. The eCube
// curve must start at or above DDC (its two-prefix reduction touches
// cells DDC's direct algorithm cancels) and converge towards PS.
func QueryCost(scale float64, nQueries int, skew bool, window int, seed int64) (QueryCostResult, error) {
	start := time.Now()
	spec := workload.Weather4Spec.Scaled(scale)
	ds := workload.Generate(spec)
	shape := ds.SliceShape

	// Project the cube onto the slice dimensions: the cumulative slice
	// with the greatest time coordinate, which is what historic
	// instances hold.
	dense := make([]float64, shape.Size())
	for _, u := range ds.Updates {
		dense[shape.Flatten(u.Coords)] += u.Delta
	}

	ec, err := ecube.FromDense(dense, shape)
	if err != nil {
		return QueryCostResult{}, err
	}
	dd, err := ddc.FromDense(dense, shape)
	if err != nil {
		return QueryCostResult{}, err
	}
	ps, err := prefix.FromDense(dense, shape)
	if err != nil {
		return QueryCostResult{}, err
	}

	r := rand.New(rand.NewSource(seed))
	boxes := workload.Boxes(r, shape, nQueries, skew)
	costsE := make([]float64, nQueries)
	costsD := make([]float64, nQueries)
	costsP := make([]float64, nQueries)
	for i, b := range boxes {
		ec.Accesses = 0
		ve, err := ec.Query(b)
		if err != nil {
			return QueryCostResult{}, err
		}
		costsE[i] = float64(ec.Accesses)

		dd.Accesses = 0
		vd, err := dd.Query(b)
		if err != nil {
			return QueryCostResult{}, err
		}
		costsD[i] = float64(dd.Accesses)

		ps.Accesses = 0
		vp, err := ps.Query(b)
		if err != nil {
			return QueryCostResult{}, err
		}
		costsP[i] = float64(ps.Accesses)

		//histlint:ignore nofloateq cross-check oracle: all three techniques aggregate the same cells in deterministic row-major order, so exact agreement is the experiment's correctness contract
		if ve != vd || ve != vp {
			return QueryCostResult{}, fmt.Errorf("experiments: techniques disagree on query %d: eCube %v, DDC %v, PS %v", i, ve, vd, vp)
		}
	}

	if window <= 0 {
		window = 50
	}
	re := stats.RollingAvg(costsE, window)
	rd := stats.RollingAvg(costsD, window)
	rp := stats.RollingAvg(costsP, window)
	res := QueryCostResult{
		Converted:  ec.Converted(),
		SliceCells: shape.Size(),
	}
	for i := range re {
		res.Points = append(res.Points, QueryCostPoint{
			Query: i * window,
			ECube: re[i],
			DDC:   rd[i],
			PS:    rp[i],
		})
	}
	if len(re) > 0 {
		res.ECubeFirst = re[0]
		res.ECubeLast = re[len(re)-1]
	}
	res.DDCAvg = stats.Mean(costsD)
	res.PSAvg = stats.Mean(costsP)
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// UpdateCostResult is the Figure 12/13 output: per-update costs in
// sorted order, with and without copy cost.
type UpdateCostResult struct {
	SortedWith    []float64
	SortedWithout []float64
	// Quantiles of the with-copy curve.
	P50, P90, P99 float64
	// TotalCopy is the area between the curves: forced copies plus
	// copy-ahead work.
	TotalCopy float64
	Updates   int
	// WallSeconds is the experiment's wall-clock time.
	WallSeconds float64
}

// UpdateCost runs the Figure 12 (weather6) / Figure 13 (gauss3)
// experiment: every update of the data set is applied to the
// append-only cube and its cost recorded with and without copy work.
// Most copies must ride on cheap updates: the two sorted curves stay
// close except at the cheap end.
func UpdateCost(spec workload.Spec, scale float64) (UpdateCostResult, error) {
	start := time.Now()
	ds := workload.Generate(spec.Scaled(scale))
	cube, err := appendcube.New(appendcube.Config{SliceShape: ds.SliceShape})
	if err != nil {
		return UpdateCostResult{}, err
	}
	with := make([]float64, 0, len(ds.Updates))
	without := make([]float64, 0, len(ds.Updates))
	total := 0.0
	for _, u := range ds.Updates {
		res, err := cube.Update(u.Time, u.Coords, u.Delta)
		if err != nil {
			return UpdateCostResult{}, err
		}
		with = append(with, float64(res.Cost()))
		without = append(without, float64(res.CostNoCopy()))
		total += float64(res.ForcedCopies + res.CopyAhead)
	}
	return UpdateCostResult{
		SortedWith:    stats.Sorted(with),
		SortedWithout: stats.Sorted(without),
		P50:           stats.Quantile(with, 0.5),
		P90:           stats.Quantile(with, 0.9),
		P99:           stats.Quantile(with, 0.99),
		TotalCopy:     total,
		Updates:       len(with),
		WallSeconds:   time.Since(start).Seconds(),
	}, nil
}

// Table4Row is one line of the paper's Table 4: the distribution of
// the number of incompletely copied historic instances after each
// update.
type Table4Row struct {
	Dataset      string
	Mode         string // "in-memory" or "disk"
	Min          int
	Max          int
	MostFrequent int
}

// Table4 runs all three data sets through the in-memory and disk
// variants, tracking the incomplete-instance count after every update
// (paper: in-memory 0/2/2, 0/2/2, 0/5/1; disk always 0/1/1).
func Table4(scale float64, pageSize int) ([]Table4Row, error) {
	if pageSize == 0 {
		pageSize = pager.DefaultPageSize
	}
	var rows []Table4Row
	for _, spec := range []workload.Spec{
		workload.Weather4Spec,
		workload.Weather6Spec,
		workload.Gauss3Spec,
	} {
		ds := workload.Generate(spec.Scaled(scale))
		for _, mode := range []string{"in-memory", "disk"} {
			cfg := appendcube.Config{SliceShape: ds.SliceShape}
			if mode == "disk" {
				pg, err := pager.New(pager.NewMemBackend(pageSize), pageSize)
				if err != nil {
					return nil, err
				}
				cfg.Store = appendcube.NewDiskStore(ds.SliceShape.Size(), pg)
			}
			cube, err := appendcube.New(cfg)
			if err != nil {
				return nil, err
			}
			tracker := stats.NewFreqTracker()
			for _, u := range ds.Updates {
				res, err := cube.Update(u.Time, u.Coords, u.Delta)
				if err != nil {
					return nil, err
				}
				tracker.Observe(res.Incomplete)
			}
			rows = append(rows, Table4Row{
				Dataset:      spec.Name,
				Mode:         mode,
				Min:          tracker.Min(),
				Max:          tracker.Max(),
				MostFrequent: tracker.MostFrequent(),
			})
		}
	}
	return rows, nil
}

// IOCostResult is the Figure 14 output: per-query page accesses for
// the DDC array (row-major on 8K pages) and the bulk-loaded R*-tree
// (leaf accesses), in ascending order, plus the averages the paper
// quotes (59.17 vs 275.65 on weather6).
type IOCostResult struct {
	SortedArray []float64
	SortedRTree []float64
	ArrayAvg    float64
	RTreeAvg    float64
	Queries     int
	TreeHeight  int
	TreeLeaves  int
	// Storage comparison (the paper: the DDC array's pre-aggregation
	// "leads to a storage increase by a factor up to 20 compared to
	// the index"): cells stored by the array vs. entries in the tree.
	ArrayCells  int
	TreeEntries int
}

// IOCost runs the Figure 14 experiment on a weather6-style cube: the
// full d-dimensional array (time included) is DDC pre-aggregated and
// laid out row-major on disk pages; the R*-tree is bulk loaded from
// the non-empty points. Each uni query is costed in page accesses
// (array: pager I/Os through a one-page buffer; tree: leaf accesses
// only, internal nodes assumed resident, as in the paper).
func IOCost(scale float64, nQueries int, pageSize int, seed int64) (IOCostResult, error) {
	if pageSize == 0 {
		pageSize = pager.DefaultPageSize
	}
	spec := workload.Weather6Spec.Scaled(scale)
	ds := workload.Generate(spec)

	// Full d-dimensional shape with time as dimension 0.
	full := make(dims.Shape, 0, len(ds.SliceShape)+1)
	full = append(full, ds.TimeSize)
	full = append(full, ds.SliceShape...)

	dense := make([]float64, full.Size())
	coords := make([]int, len(full))
	entries := make([]rstar.Entry, 0, len(ds.Updates))
	for _, u := range ds.Updates {
		t, ok := dims.ToCoord(u.Time)
		if !ok {
			return IOCostResult{}, fmt.Errorf("experiments: update time %d overflows the coordinate range", u.Time)
		}
		coords[0] = t
		copy(coords[1:], u.Coords)
		dense[full.Flatten(coords)] += u.Delta
		entries = append(entries, rstar.Entry{Coords: append([]int(nil), coords...), Value: u.Delta})
	}

	arr, err := ddc.FromDense(dense, full)
	if err != nil {
		return IOCostResult{}, err
	}
	// Lay the DDC cells out row-major on disk.
	pg, err := pager.New(pager.NewMemBackend(pageSize), pageSize)
	if err != nil {
		return IOCostResult{}, err
	}
	cells := arr.Cells()
	for i, v := range cells {
		if err := pg.WriteCell(i, v); err != nil {
			return IOCostResult{}, err
		}
	}
	if err := pg.Flush(); err != nil {
		return IOCostResult{}, err
	}

	tree, err := rstar.BulkLoad(rstar.Config{Dim: len(full), PageSize: pageSize}, entries)
	if err != nil {
		return IOCostResult{}, err
	}

	r := rand.New(rand.NewSource(seed))
	boxes := workload.Boxes(r, full, nQueries, false)
	arrayCosts := make([]float64, nQueries)
	treeCosts := make([]float64, nQueries)
	techs := arr.Techniques()
	for i, b := range boxes {
		// Array: evaluate the DDC query term cells through the pager.
		pg.ResetCounters()
		sum, err := evalTermsOnPager(pg, full, techs, b)
		if err != nil {
			return IOCostResult{}, err
		}
		arrayCosts[i] = float64(pg.IOs())

		tree.LeafReads = 0
		tsum, err := tree.RangeScan(b)
		if err != nil {
			return IOCostResult{}, err
		}
		treeCosts[i] = float64(tree.LeafReads)

		// Integrity: both evaluations must agree (float32 disk cells
		// round large sums, so compare with tolerance).
		if !closeEnough(sum, tsum) {
			return IOCostResult{}, fmt.Errorf("experiments: array %v and tree %v disagree on query %d", sum, tsum, i)
		}
	}
	return IOCostResult{
		SortedArray: stats.Sorted(arrayCosts),
		SortedRTree: stats.Sorted(treeCosts),
		ArrayAvg:    stats.Mean(arrayCosts),
		RTreeAvg:    stats.Mean(treeCosts),
		Queries:     nQueries,
		TreeHeight:  tree.Height(),
		TreeLeaves:  tree.LeafCount(),
		ArrayCells:  full.Size(),
		TreeEntries: tree.Len(),
	}, nil
}

func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-3*scale
}

// evalTermsOnPager computes the DDC range query by reading the term
// cells through the pager (page accesses counted by its one-page
// buffer). Terms are combined exactly as molap.Array.Query does, but
// each cell read goes to disk.
func evalTermsOnPager(pg *pager.Pager, shape dims.Shape, techs []molap.Technique, b dims.Box) (float64, error) {
	sets := make([][]molap.Term, len(shape))
	idxSets := make([][]int, len(shape))
	for d, t := range techs {
		sets[d] = t.QueryTerms(nil, shape[d], b.Lo[d], b.Hi[d])
		ii := make([]int, len(sets[d]))
		for i := range ii {
			ii[i] = i
		}
		idxSets[d] = ii
	}
	strides := shape.Strides()
	total := 0.0
	var rerr error
	dims.CrossProduct(idxSets, func(combo []int) {
		if rerr != nil {
			return
		}
		off := 0
		f := 1.0
		for d, i := range combo {
			term := sets[d][i]
			off += term.Index * strides[d]
			f *= term.Factor
		}
		v, err := pg.ReadCell(off)
		if err != nil {
			rerr = err
			return
		}
		total += f * v
	})
	return total, rerr
}
