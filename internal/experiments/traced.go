package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/trace"
)

// TracedQueryRecord is one per-query cost record emitted by histbench
// -trace: the wall-clock duration and the span-counter totals of a
// single traced range query, comparable against the closed-form
// bounds in the enclosing result.
type TracedQueryRecord struct {
	Query         int     `json:"query"`
	Result        float64 `json:"result"`
	DurationNS    int64   `json:"duration_ns"`
	CellsTouched  int64   `json:"cells_touched"`
	Conversions   int64   `json:"conversions"`
	Instances     int64   `json:"instances"`
	CacheAccesses int64   `json:"cache_accesses"`
}

// TracedQueryCostResult is the output of TracedQueryCost: the
// geometry, the paper's closed-form per-instance cost bounds, and one
// record per query.
type TracedQueryCostResult struct {
	N         int     `json:"n"`
	Dims      int     `json:"dims"`
	Queries   int     `json:"queries"`
	Identical bool    `json:"identical"`
	DDCBound  float64 `json:"ddc_bound"` // (2 log2 N)^d, the pre-conversion regime
	PSBound   float64 `json:"ps_bound"`  // 2^d, the converged PS regime

	Records []TracedQueryRecord `json:"records"`
}

// TracedQueryCost is the tracing counterpart of QueryCost (Figs.
// 10/11): instead of instrumenting the raw engines it drives the full
// core.Cube facade with a span per query, so the numbers it reports
// are exactly what EXPLAIN reports over the wire. It builds a cube
// with d non-time dimensions of size n, fills three time slices, and
// runs nQueries historic queries against the oldest slice — identical
// repeats (the convergence experiment: cells_touched falls from the
// DDC regime towards PSBound and conversions dry up) or uniformly
// random boxes.
func TracedQueryCost(n, d, nQueries int, identical bool, seed int64) (TracedQueryCostResult, error) {
	res := TracedQueryCostResult{
		N: n, Dims: d, Queries: nQueries, Identical: identical,
		DDCBound: math.Pow(2*math.Log2(float64(n)), float64(d)),
		PSBound:  math.Exp2(float64(d)),
	}
	if n < 4 || d < 1 || nQueries < 1 {
		return res, fmt.Errorf("experiments: traced query cost needs n >= 4, d >= 1, queries >= 1 (got n=%d d=%d q=%d)", n, d, nQueries)
	}
	ds := make([]core.Dim, d)
	for i := range ds {
		ds[i] = core.Dim{Name: fmt.Sprintf("d%d", i), Size: n}
	}
	c, err := core.New(core.Config{Dims: ds, Operator: agg.Sum})
	if err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Three slices; the queries target time 1, historic once 2 and 3
	// open. A few points per dimension keep the slices non-trivial.
	for t := int64(1); t <= 3; t++ {
		for i := 0; i < n*d; i++ {
			coords := make([]int, d)
			for j := range coords {
				coords[j] = rng.Intn(n)
			}
			if err := c.Insert(t, coords, 1); err != nil {
				return res, err
			}
		}
	}
	lo := make([]int, d)
	hi := make([]int, d)
	res.Records = make([]TracedQueryRecord, 0, nQueries)
	for q := 0; q < nQueries; q++ {
		if identical {
			for j := 0; j < d; j++ {
				lo[j], hi[j] = 1, n-2
			}
		} else {
			for j := 0; j < d; j++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a > b {
					a, b = b, a
				}
				lo[j], hi[j] = a, b
			}
		}
		root := trace.New("histcube.bench_query")
		v, err := c.QueryCtx(trace.NewContext(context.Background(), root), core.Range{TimeLo: 1, TimeHi: 1, Lo: lo, Hi: hi})
		root.End()
		if err != nil {
			return res, err
		}
		res.Records = append(res.Records, TracedQueryRecord{
			Query:         q,
			Result:        v,
			DurationNS:    int64(root.Duration()),
			CellsTouched:  root.Total(trace.CellsTouched),
			Conversions:   root.Total(trace.Conversions),
			Instances:     root.Total(trace.Instances),
			CacheAccesses: root.Total(trace.CacheAccesses),
		})
	}
	return res, nil
}
