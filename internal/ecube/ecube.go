// Package ecube implements the Evolving Data Cube of Section 3.2 of
// the paper: a (d-1)-dimensional array in which DDC-aggregated and
// PS-aggregated cell values coexist, distinguished by a per-cell flag.
// Prefix queries recursively rewrite DDC values into PS values
// ("neighbouring" cells given by the DDC index sets), storing each
// computed PS value back into its cell, so the array gradually and
// adaptively converges from polylogarithmic DDC query cost towards
// the constant 2^(d-1) PS query cost — without any eager
// transformation pass.
//
// The query algorithm is expressed against the CellStore interface so
// the same code drives both a standalone in-memory eCube (the Fig. 10
// and 11 experiments) and the lazily materialised historic time slices
// of the append-only cube (package appendcube).
package ecube

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"histcube/internal/ddc"
	"histcube/internal/dims"
	"histcube/internal/molap"
	"histcube/internal/trace"
)

// CellStore is the storage a query engine operates on: a flat
// row-major array of cells, each holding either a DDC value or an
// already-converted PS value.
type CellStore interface {
	// Load reads cell off and reports whether it already holds a PS
	// value. Implementations count this as one cell access.
	Load(off int) (val float64, ps bool)
	// StorePS records the computed PS value for cell off and reports
	// whether it was persisted. An implementation may decline (e.g.
	// the disk store of Section 3.5, which keeps no flags); the engine
	// then memoises the value for the remainder of the current query
	// so the recursion stays within the DDC cost bound. A store that
	// persists must return ps=true from subsequent Loads.
	StorePS(off int, val float64) bool
}

// Engine evaluates prefix and range queries over mixed PS/DDC cells of
// a fixed shape. Apart from the shape it carries only two atomic cost
// counters, so it may be shared across many stores (all historic
// slices of a cube use one Engine) and across goroutines.
type Engine struct {
	shape   dims.Shape
	strides []int

	// loads counts CellStore.Load calls (cells touched); converts
	// counts persisted DDC->PS rewrites (StorePS returning true) — the
	// convergence signal of the paper's Figures 10 and 11, aggregated
	// across every store the engine drives. Atomic so a /metrics scrape
	// can read them while a query runs.
	loads    atomic.Int64
	converts atomic.Int64
}

// NewEngine returns an Engine for (d-1)-dimensional slices of the
// given shape.
func NewEngine(shape dims.Shape) (*Engine, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &Engine{shape: shape.Clone(), strides: shape.Strides()}, nil
}

// Loads returns the cumulative number of cells the engine has touched
// (CellStore.Load calls) across every query it has run.
func (en *Engine) Loads() int64 { return en.loads.Load() }

// Converts returns the cumulative number of DDC->PS conversions the
// engine has persisted — the quantity the paper's Figure 10/11 curves
// track: query cost converges from (2 log2 N)^(d-1) towards 2^(d-1)
// exactly as this counter approaches the number of queried cells.
func (en *Engine) Converts() int64 { return en.converts.Load() }

// evalCtx carries per-evaluation state: PS values the store declined
// to persist, memoised so the recursion stays within the DDC cost
// bound (the map is allocated on the first declined StorePS only),
// plus the evaluation's own load/conversion counts so a trace span can
// attribute cost to one request without reading the shared atomics.
// cctx/err implement cooperative cancellation: cctx.Err is polled every
// 64 loads (Err, not Done, so the poll makes no channel), and once err
// is set the whole recursion unwinds without touching further cells and
// without persisting any value computed from the abandoned subtree.
type evalCtx struct {
	memo     map[int]float64
	loads    int
	converts int
	cctx     context.Context
	err      error
}

// prefixRec computes P[x] = aggregate over the box [0..x] in every
// dimension, converting every DDC cell it touches to PS via StorePS.
//
// The recursion follows the paper's eCube algorithm (Fig. 6): a DDC
// cell's value covers the box [RangeStart(x_i)..x_i] per dimension, so
// P(x) = DDC(x) + sum over non-empty subsets S of dimensions of
// (-1)^(|S|+1) * P(x with x_i replaced by RangeStart(x_i)-1 for i in
// S), where a sub-prefix with any coordinate -1 is zero. The
// sub-prefix coordinates are exactly the predecessors in the DDC
// prefix index chains, so the worst case touches no more cells than
// the plain DDC algorithm.
func (en *Engine) prefixRec(cs CellStore, x []int, ctx *evalCtx) float64 {
	if ctx.err != nil {
		return 0
	}
	off := 0
	for i, c := range x {
		off += c * en.strides[i]
	}
	if v, ok := ctx.memo[off]; ok {
		return v
	}
	en.loads.Add(1)
	ctx.loads++
	if ctx.loads&63 == 0 {
		if err := ctx.cctx.Err(); err != nil {
			ctx.err = fmt.Errorf("ecube: query canceled after %d cell loads: %w", ctx.loads, err)
			return 0
		}
	}
	val, ps := cs.Load(off)
	if ps {
		return val
	}
	d := len(x)
	starts := make([]int, d)
	for i := range x {
		starts[i] = ddc.RangeStart(en.shape[i], x[i])
	}
	sub := make([]int, d)
	for mask := 1; mask < 1<<uint(d); mask++ {
		feasible := true
		for i := 0; i < d; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub[i] = starts[i] - 1
				if sub[i] < 0 {
					feasible = false
					break
				}
			} else {
				sub[i] = x[i]
			}
		}
		if !feasible {
			continue
		}
		if bits.OnesCount(uint(mask))%2 == 1 {
			val += en.prefixRec(cs, sub, ctx)
		} else {
			val -= en.prefixRec(cs, sub, ctx)
		}
	}
	if ctx.err != nil {
		// The evaluation was abandoned somewhere in the subtree: val is
		// a partial sum. Persisting (or even memoising) it would plant a
		// wrong PS value in the cube, so drop it on the floor.
		return 0
	}
	if cs.StorePS(off, val) {
		en.converts.Add(1)
		ctx.converts++
	} else {
		if ctx.memo == nil {
			ctx.memo = make(map[int]float64)
		}
		ctx.memo[off] = val
	}
	return val
}

// Range computes the aggregate over the closed box using the PS
// reduction: at most 2^d corner prefix queries with alternating signs,
// corners with a -1 coordinate contributing zero.
func (en *Engine) Range(cs CellStore, b dims.Box) (float64, error) {
	return en.RangeCtx(context.Background(), nil, cs, b)
}

// RangeCtx is Range with per-request cost attribution and cooperative
// cancellation. The query's cell loads and persisted DDC->PS
// conversions land on sp: as the slice converges to PS form the
// recorded CellsTouched falls from the (2 log2 N)^(d-1)
// DDC bound to the 2^(d-1) corner count — Figures 10/11, observable per
// query. The corner prefix evaluations share one evalCtx, which polls
// cctx.Err every 64 cell loads. On cancellation the query returns ctx's
// error; no partially computed PS value is persisted.
func (en *Engine) RangeCtx(cctx context.Context, sp *trace.Span, cs CellStore, b dims.Box) (float64, error) {
	if err := b.Validate(en.shape); err != nil {
		return 0, err
	}
	d := len(en.shape)
	corner := make([]int, d)
	total := 0.0
	ctx := &evalCtx{cctx: cctx}
	for mask := 0; mask < 1<<uint(d); mask++ {
		feasible := true
		for i := 0; i < d; i++ {
			if mask&(1<<uint(i)) != 0 {
				corner[i] = b.Lo[i] - 1
				if corner[i] < 0 {
					feasible = false
					break
				}
			} else {
				corner[i] = b.Hi[i]
			}
		}
		if !feasible {
			continue
		}
		p := en.prefixRec(cs, corner, ctx)
		if bits.OnesCount(uint(mask))%2 == 0 {
			total += p
		} else {
			total -= p
		}
		if ctx.err != nil {
			break
		}
	}
	sp.Add(trace.CellsTouched, int64(ctx.loads))
	sp.Add(trace.Conversions, int64(ctx.converts))
	if ctx.err != nil {
		return 0, ctx.err
	}
	return total, nil
}

// Array is a standalone in-memory eCube: cells start as DDC values and
// evolve to PS as queries touch them. Accesses counts cell reads and
// writes (the paper's cost metric); Conversions counts DDC->PS cell
// rewrites.
type Array struct {
	en          *Engine
	cells       []float64
	ps          []bool
	Accesses    int64
	Conversions int64
}

// FromDDC builds an eCube from a DDC-aggregated array (all dimensions
// must use the DDC technique). The source array's cells are copied.
func FromDDC(a *molap.Array) (*Array, error) {
	for _, t := range a.Techniques() {
		if t.Name() != "DDC" {
			return nil, errNotDDC
		}
	}
	en, err := NewEngine(a.Shape())
	if err != nil {
		return nil, err
	}
	return &Array{
		en:    en,
		cells: append([]float64(nil), a.Cells()...),
		ps:    make([]bool, a.Shape().Size()),
	}, nil
}

// FromDense pre-aggregates a dense original array with DDC in every
// dimension and wraps it as an eCube.
func FromDense(data []float64, shape dims.Shape) (*Array, error) {
	a, err := ddc.FromDense(data, shape)
	if err != nil {
		return nil, err
	}
	return FromDDC(a)
}

var errNotDDC = errValue("ecube: source array must be DDC-aggregated in every dimension")

type errValue string

func (e errValue) Error() string { return string(e) }

// Load implements CellStore.
func (a *Array) Load(off int) (float64, bool) {
	a.Accesses++
	return a.cells[off], a.ps[off]
}

// StorePS implements CellStore. The write is not counted as a cell
// access: the paper observes that "since only accessed cells are
// transformed, the actual transformation does not incur any access
// overhead" — the cell was just loaded and is rewritten in place.
func (a *Array) StorePS(off int, val float64) bool {
	a.cells[off] = val
	a.ps[off] = true
	a.Conversions++
	return true
}

// Query computes the aggregate over the closed box.
func (a *Array) Query(b dims.Box) (float64, error) { return a.en.Range(a, b) }

// Converted returns the number of cells currently holding PS values.
func (a *Array) Converted() int {
	n := 0
	for _, p := range a.ps {
		if p {
			n++
		}
	}
	return n
}
