// Package appendcube implements the paper's headline data structure
// (Section 3): a d-dimensional append-only MOLAP cube maintained as a
// cache of the latest cumulative time slice (DDC-aggregated in the
// non-time dimensions, with per-cell timestamps) plus lazily
// materialised historic time slices that the eCube query algorithm
// gradually converts from DDC to PS form.
//
// The transaction-time dimension is handled by the framework reduction
// of Section 2: cumulative slices make any time range answerable from
// two slices, so query and update cost are independent of the length
// of the recorded history. Lazy copying with copy-ahead (Section 3.3)
// amortises the cost of snapshotting a slice over the updates that
// share it.
package appendcube

import (
	"context"
	"errors"
	"fmt"
	"math"

	"histcube/internal/ddc"
	"histcube/internal/dims"
	"histcube/internal/directory"
	"histcube/internal/ecube"
	"histcube/internal/molap"
	"histcube/internal/pager"
	"histcube/internal/trace"
)

// ErrOutOfOrder reports an update whose time coordinate precedes the
// latest time slice. The append-only cube rejects such updates; the
// framework layer (internal/paper/framework) buffers them in a general
// d-dimensional structure instead (Section 2.5).
var ErrOutOfOrder = errors.New("appendcube: update time precedes the latest time slice")

// Config configures a Cube.
type Config struct {
	// SliceShape is the geometry of one time slice: the d-1 non-time
	// dimensions.
	SliceShape dims.Shape
	// Store holds the historic slices. Defaults to an in-memory store.
	Store SliceStore
	// CopyAheadThreshold is the per-update total work budget (cache
	// cells + forced copies + copy-ahead steps) for the in-memory
	// cell-wise copy-ahead of Section 3.3. Zero (the default) selects
	// the adaptive budget: roughly 2/θ copy steps per update, where θ
	// is the observed density (updates per slice / slice size) — the
	// paper's analysis shows 1/θ copies per update keep the cache
	// current, with the constant-bounded amortised overhead 1/θ_min.
	// A positive value fixes the budget instead; negative disables
	// copy-ahead entirely (lazy copies only), exposed for the ablation
	// benchmarks.
	CopyAheadThreshold int
	// DisableConversion turns off the eCube DDC->PS conversion in
	// historic slices (ablation: plain DDC reads via the timestamp
	// rule).
	DisableConversion bool
}

// UpdateResult reports the cost breakdown of one update, in cell
// accesses (the in-memory metric). For disk-backed cubes the page I/O
// cost is available via the store's counters.
type UpdateResult struct {
	// NewSlice is true when the update opened a new time slice.
	NewSlice bool
	// CacheCells is the number of cache cells the DDC update touched —
	// the "ideal" cost if copies were free and instantaneous.
	CacheCells int
	// ForcedCopies is the number of cell values copied to historic
	// slices because the update overwrote them (step 3 of Fig. 8).
	ForcedCopies int
	// CopyAhead is the work done by the copy-ahead loop (step 4):
	// copies plus cursor advances.
	CopyAhead int
	// Incomplete is the number of historic slices not yet completely
	// copied after this update (the Table 4 measurement).
	Incomplete int
}

// Cost returns the total update cost including copy work.
func (r UpdateResult) Cost() int { return r.CacheCells + r.ForcedCopies + r.CopyAhead }

// CostNoCopy returns the update cost if copies were free — the ideal
// curve of Figures 12 and 13.
func (r UpdateResult) CostNoCopy() int { return r.CacheCells }

type cacheCell struct {
	val float64
	ts  int32 // index of the first slice this value is current for
}

// Cube is the append-only MOLAP cube.
type Cube struct {
	shape   dims.Shape
	strides []int
	store   SliceStore
	engine  *ecube.Engine

	cache []cacheCell
	// dir is the time directory of Section 2.3: occurring time values
	// mapped to dense slice indices, with O(1) latest and O(log n)
	// Floor lookups.
	dir *directory.Array

	// Copy-ahead state.
	threshold    int  // fixed budget; 0 with adaptive=true
	adaptive     bool // density-tracking budget (the default)
	totalUpdates int
	sliceUpds    int         // updates into the current slice
	estPerSlice  float64     // EWMA of updates per slice (0 until first close)
	z            int         // cell-wise cursor (Fig. 8's Z)
	pageCur      map[int]int // per-slice page cursor for the disk policy

	// Incomplete-slice tracking: tsCount[i] counts cache cells with
	// timestamp i; minTS is the smallest index with a non-zero count.
	tsCount []int
	minTS   int

	convert bool

	// CacheAccesses counts reads/writes of cache cells; historic-slice
	// accesses are counted by the store in its own unit.
	CacheAccesses int64

	// Cumulative lazy-copy progress across all updates (the live view
	// of Figures 12/13's copy work): forcedTotal counts step-3 forced
	// copies, aheadTotal counts step-4 copy-ahead work.
	forcedTotal int64
	aheadTotal  int64

	// scratch
	updateSets [][]int
	view       sliceView     // the historic slice a query reads, lent to the engine
	eval       ecube.Scratch // the engine's working memory for that query
}

// New returns an empty cube.
func New(cfg Config) (*Cube, error) {
	if err := cfg.SliceShape.Validate(); err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = NewMemStore(cfg.SliceShape.Size())
	}
	engine, err := ecube.NewEngine(cfg.SliceShape)
	if err != nil {
		return nil, err
	}
	threshold := cfg.CopyAheadThreshold
	adaptive := threshold == 0
	if adaptive {
		threshold = 0
	}
	size := cfg.SliceShape.Size()
	c := &Cube{
		shape:      cfg.SliceShape.Clone(),
		strides:    cfg.SliceShape.Strides(),
		store:      store,
		engine:     engine,
		cache:      make([]cacheCell, size),
		dir:        directory.NewArray(),
		threshold:  threshold,
		adaptive:   adaptive,
		pageCur:    make(map[int]int),
		tsCount:    []int{size},
		minTS:      0,
		convert:    !cfg.DisableConversion && store.Flags(),
		updateSets: make([][]int, len(cfg.SliceShape)),
	}
	return c, nil
}

// SliceShape returns the slice geometry.
func (c *Cube) SliceShape() dims.Shape { return c.shape }

// Store returns the historic slice store.
func (c *Cube) Store() SliceStore { return c.store }

// NumSlices returns the number of occurring time values.
func (c *Cube) NumSlices() int { return c.dir.Len() }

// Incomplete returns the number of historic slices that are not yet
// completely copied (Table 4's measurement): slices s with
// minTS <= s < latest.
func (c *Cube) Incomplete() int {
	latest := c.dir.Len() - 1
	if latest < 0 || c.minTS >= latest {
		return 0
	}
	return latest - c.minTS
}

func (c *Cube) moveTS(off int, to int32) {
	from := c.cache[off].ts
	c.tsCount[from]--
	c.tsCount[to]++
	c.cache[off].ts = to
	latest := c.dir.Len() - 1
	for c.minTS < latest && c.tsCount[c.minTS] == 0 {
		c.minTS++
	}
}

// Update applies update_D(X^d, delta): timeVal is the coordinate in
// the TT-dimension, x the coordinates in the remaining dimensions. It
// implements the complete algorithm of Fig. 8: forced lazy copies for
// overwritten cache cells, then copy-ahead within the work budget.
func (c *Cube) Update(timeVal int64, x []int, delta float64) (UpdateResult, error) {
	return c.UpdateCtx(context.Background(), timeVal, x, delta)
}

// UpdateCtx is Update with a context that bounds only the amortised
// background work: once the mutation itself (steps 1-3 of Fig. 8) has
// started it always completes — the op is already in the WAL, and
// aborting between log and apply would diverge the log from the state
// — but the copy-ahead loop of step 4 stops early when the context is
// done. Copy-ahead is pure amortisation: stopping it early never loses
// data, it only shifts copy work to later updates, so the early stop
// is silent (no error).
func (c *Cube) UpdateCtx(ctx context.Context, timeVal int64, x []int, delta float64) (UpdateResult, error) {
	var res UpdateResult
	if !c.shape.Contains(x) {
		return res, fmt.Errorf("appendcube: update coordinate %v outside slice shape %v", x, c.shape)
	}
	// Step 1: open a new time slice if needed. The directory's O(1)
	// latest pointer (Section 2.3) decides between "same slice" and
	// "new slice"; equal times share a slice, smaller ones are
	// out of order.
	_, lastT, hasSlices := c.dir.Latest()
	if !hasSlices || timeVal > lastT {
		if err := c.store.Reserve(c.dir.Len()); err != nil {
			return res, err
		}
		if hasSlices {
			// Fold the closing slice's update count into the density
			// estimate the adaptive copy-ahead budget tracks.
			//histlint:ignore nofloateq zero is the "no estimate yet" sentinel; the estimate itself is never exactly zero once seeded
			if c.estPerSlice == 0 {
				c.estPerSlice = float64(c.sliceUpds)
			} else {
				c.estPerSlice = 0.7*c.estPerSlice + 0.3*float64(c.sliceUpds)
			}
		}
		c.sliceUpds = 0
		if _, err := c.dir.Append(timeVal); err != nil {
			return res, fmt.Errorf("appendcube: registering time %d: %w", timeVal, err)
		}
		c.tsCount = append(c.tsCount, 0)
		res.NewSlice = true
	} else if timeVal < lastT {
		return res, fmt.Errorf("%w: got %d, latest is %d", ErrOutOfOrder, timeVal, lastT)
	}
	latest := int32(c.dir.Len() - 1)

	// Step 2: cells of cache affected by the DDC update.
	for d := range c.shape {
		c.updateSets[d] = ddc.DDC{}.UpdateCells(c.updateSets[d][:0], c.shape[d], x[d])
	}

	// Step 3: per affected cell, lazily copy the old version before
	// overwriting.
	var err error
	dims.CrossProduct(c.updateSets, func(combo []int) {
		if err != nil {
			return
		}
		off := 0
		for i, v := range combo {
			off += v * c.strides[i]
		}
		cell := &c.cache[off]
		c.CacheAccesses++
		res.CacheCells++
		if cell.ts < latest {
			for s := cell.ts; s < latest; s++ {
				if werr := c.store.Write(int(s), off, cell.val, DDCValue); werr != nil {
					err = werr
					return
				}
				res.ForcedCopies++
			}
			c.moveTS(off, latest)
		}
		cell.val += delta
	})
	if err != nil {
		return res, err
	}

	// Step 4: copy-ahead within the remaining budget.
	c.totalUpdates++
	c.sliceUpds++
	if _, disk := c.store.(*DiskStore); disk {
		res.CopyAhead, err = c.copyAheadPages(ctx)
	} else if budget := c.budget(); budget > 0 {
		res.CopyAhead, err = c.copyAheadCells(ctx, res.CacheCells+res.ForcedCopies, budget)
	}
	if err != nil {
		return res, err
	}
	c.forcedTotal += int64(res.ForcedCopies)
	c.aheadTotal += int64(res.CopyAhead)
	res.Incomplete = c.Incomplete()
	return res, nil
}

// CopyProgress returns the cumulative lazy-copy work across all
// updates: forced copies (step 3 of Fig. 8) and copy-ahead steps
// (step 4).
func (c *Cube) CopyProgress() (forced, ahead int64) {
	return c.forcedTotal, c.aheadTotal
}

// Conversions returns the cumulative number of historic cells the
// eCube query algorithm has converted from DDC to PS form.
func (c *Cube) Conversions() int64 { return c.engine.Converts() }

// CellsTouched returns the cumulative number of historic-slice cells
// the eCube query algorithm has loaded.
func (c *Cube) CellsTouched() int64 { return c.engine.Loads() }

// budget returns the copy-ahead work budget for the current update:
// the fixed threshold, or the adaptive budget of about 2/θ steps,
// with θ the recent density (EWMA of updates per slice over the slice
// size). The paper's amortisation argument needs 1/θ copies per
// update; the factor 2 covers the cursor advances interleaved with
// copies, and the backlog term reacts to per-slice density variance
// (sparse stretches would otherwise let incomplete slices accumulate,
// the effect the paper's Table 4 discussion attributes to gauss3's
// clusters).
func (c *Cube) budget() int {
	if !c.adaptive {
		return c.threshold
	}
	est := c.estPerSlice
	if est < 1 {
		est = 1
	}
	base := float64(len(c.cache)) / est
	backlog := float64(c.Incomplete())
	return int((2+backlog)*base) + 8
}

// copyAheadCells is the in-memory policy of Fig. 8 step 4: while the
// operation's total cost is below the budget, copy the value of the
// cursor cell one slice ahead, or advance the cursor if the cell is
// current. Cursor advances count as work (one cache inspection).
//
// A request whose context is done stops the loop without error:
// copy-ahead is amortisation, not correctness, so a request running out
// of deadline simply leaves the remaining copy work to later updates.
func (c *Cube) copyAheadCells(ctx context.Context, used, budget int) (int, error) {
	latest := int32(c.dir.Len() - 1)
	work := 0
	for used+work < budget && c.minTS < int(latest) {
		// Poll every 64 cell steps; each step is a handful of memory
		// accesses, so a finer poll would dominate the loop.
		if work&63 == 0 && ctx.Err() != nil {
			return work, nil
		}
		cell := &c.cache[c.z]
		c.CacheAccesses++
		work++
		if cell.ts < latest {
			if err := c.store.Write(int(cell.ts), c.z, cell.val, DDCValue); err != nil {
				return work, err
			}
			c.moveTS(c.z, cell.ts+1)
		} else {
			c.z++
			if c.z == len(c.cache) {
				c.z = 0
			}
		}
	}
	return work, nil
}

// copyAheadPages is the disk policy of Section 3.5: copy one page of
// the oldest incomplete slice per update, the paper's setting. One page
// write moves up to CellsPerPage cells (2048 for 8 KiB pages), which
// the paper found keeps at most one historic instance incomplete.
func (c *Cube) copyAheadPages(ctx context.Context) (int, error) {
	ds := c.store.(*DiskStore)
	s := c.minTS
	if s >= c.dir.Len()-1 || ctx.Err() != nil {
		return 0, nil
	}
	per := ds.CellsPerPage()
	p, ok := c.pageCur[s]
	if !ok {
		p = (s * c.shape.Size()) / per
	}
	lo, hi := ds.PageSpan(s, p)
	work := 0
	for off := lo; off < hi; off++ {
		cell := &c.cache[off]
		if int(cell.ts) == s {
			if err := ds.Write(s, off, cell.val, DDCValue); err != nil {
				return work, err
			}
			c.moveTS(off, cell.ts+1)
			work++
		}
	}
	p++
	if lastPage := ((s+1)*c.shape.Size() - 1) / per; p > lastPage {
		delete(c.pageCur, s)
	} else {
		c.pageCur[s] = p
	}
	return work, nil
}

// ForceComplete drains all pending copies, materialising every
// historic slice completely; core.Cube.Retire uses it.
func (c *Cube) ForceComplete() error {
	latest := int32(c.dir.Len() - 1)
	if latest < 0 {
		return nil
	}
	for off := range c.cache {
		cell := &c.cache[off]
		for s := cell.ts; s < latest; s++ {
			if err := c.store.Write(int(s), off, cell.val, DDCValue); err != nil {
				return err
			}
		}
		if cell.ts < latest {
			c.moveTS(off, latest)
		}
	}
	return nil
}

// sliceView adapts one historic slice to the eCube CellStore
// interface, applying the read rule of Section 3.3.
type sliceView struct {
	c *Cube
	s int
}

// Load implements ecube.CellStore.
func (v sliceView) Load(off int) (float64, bool) {
	c := v.c
	if c.store.Flags() {
		// Flagged store: one slice read answers materialised cells
		// (including PS conversions); unmaterialised cells fall back
		// to cache, which the lazy-copy invariant proves current.
		val, flag, _ := c.store.Read(v.s, off)
		if flag != Unmaterialized {
			return val, flag == PSValue
		}
		c.CacheAccesses++
		return c.cache[off].val, false
	}
	// Unflagged (disk) store: the paper's timestamp rule. One cache
	// access for the timestamp; the slice is consulted only when the
	// cache value is newer than the queried slice.
	c.CacheAccesses++
	cell := c.cache[off]
	if int(cell.ts) <= v.s {
		return cell.val, false
	}
	val, _, _ := c.store.Read(v.s, off)
	return val, false
}

// StorePS implements ecube.CellStore.
func (v sliceView) StorePS(off int, val float64) bool {
	if !v.c.convert {
		return false
	}
	ok, err := v.c.store.Convert(v.s, off, val)
	return ok && err == nil
}

// Query computes the aggregate over the closed time range
// [timeLo, timeHi] and the slice-dimension box: the framework
// reduction q_u - q_l over the two relevant cumulative slices.
func (c *Cube) Query(timeLo, timeHi int64, box dims.Box) (float64, error) {
	return c.QueryCtx(context.Background(), nil, timeLo, timeHi, box)
}

// QueryCtx is Query with per-request cost attribution and cooperative
// cancellation. Each of the (at most two) prefix time queries of the
// framework reduction becomes a histcube.prefix child span under sp,
// carrying the directory lookup result, the form of the instance it
// consulted and that instance's cost counters; a nil span records
// nothing and costs a few branches. The eCube evaluations under it
// poll ctx and abandon the query (returning ctx's error) once it is
// done. Queries are read-mostly — the only state they write is the
// DDC->PS convergence, which the engine refuses to persist for
// abandoned evaluations — so cancelling one is always safe.
func (c *Cube) QueryCtx(ctx context.Context, sp *trace.Span, timeLo, timeHi int64, box dims.Box) (float64, error) {
	if err := box.Validate(c.shape); err != nil {
		return 0, err
	}
	if timeLo > timeHi {
		return 0, fmt.Errorf("appendcube: inverted time range [%d, %d]", timeLo, timeHi)
	}
	if c.dir.Len() == 0 {
		return 0, nil
	}
	qu, err := c.prefixTimeQuery(ctx, sp, timeHi, box)
	if err != nil {
		return 0, err
	}
	if timeLo == math.MinInt64 {
		// timeLo-1 would wrap around; nothing precedes the range.
		return qu, nil
	}
	ql, err := c.prefixTimeQuery(ctx, sp, timeLo-1, box)
	if err != nil {
		return 0, err
	}
	return qu - ql, nil
}

// prefixTimeQuery answers the half-open range "all points with time
// coordinate <= t" restricted to the box — the prefix time query the
// framework reduces everything to. Its histcube.prefix span under sp
// carries t, the slice the directory lookup found ("none" when no time
// is <= t) and, from sliceQuery, the form of that instance and its cost.
func (c *Cube) prefixTimeQuery(ctx context.Context, sp *trace.Span, t int64, box dims.Box) (float64, error) {
	ps := sp.StartChild("histcube.prefix")
	defer ps.End()
	ps.SetInt("t", t)
	// Directory lookup: greatest occurring time <= t.
	idx, ok := c.dir.Floor(t)
	if !ok {
		ps.SetStr("slice", "none")
		return 0, nil
	}
	ps.SetInt("slice", int64(idx))
	return c.sliceQuery(ctx, ps, idx, box)
}

// sliceQuery aggregates the box over the cumulative slice with index
// s. The latest slice is answered by the DDC algorithm on cache;
// historic slices by the eCube algorithm over the store. When sp (the
// prefix's span) is non-nil it records the cost of that one instance
// query on sp: its form, cells touched and conversions from the eCube
// engine, cache/store access deltas, and — for disk-backed stores —
// pager read/write deltas. The deltas are exact because the cube
// serialises all calls (the server's single-mutex contract).
func (c *Cube) sliceQuery(ctx context.Context, sp *trace.Span, s int, box dims.Box) (float64, error) {
	if s < 0 || s >= c.dir.Len() {
		return 0, fmt.Errorf("appendcube: slice index %d out of range [0, %d)", s, c.dir.Len())
	}
	if err := box.Validate(c.shape); err != nil {
		return 0, err
	}
	if s == c.dir.Len()-1 {
		if sp == nil {
			return c.cacheQuery(box), nil
		}
		sp.SetStr("form", "cache")
		sp.Add(trace.Instances, 1)
		cacheBefore := c.CacheAccesses
		v := c.cacheQuery(box)
		sp.Add(trace.CacheAccesses, c.CacheAccesses-cacheBefore)
		return v, nil
	}
	// The cube lends its own view and scratch: queries convert cells,
	// so they reach a cube one at a time, and boxing a fresh view
	// into the CellStore would allocate per query.
	c.view = sliceView{c: c, s: s}
	if sp == nil {
		return c.engine.RangeCtx(ctx, nil, &c.view, box, &c.eval)
	}
	sp.SetStr("form", "historic")
	sp.Add(trace.Instances, 1)
	cacheBefore := c.CacheAccesses
	storeBefore := c.store.Accesses()
	var readsBefore, writesBefore int64
	pg := storePager(c.store)
	if pg != nil {
		readsBefore, writesBefore = pg.Reads, pg.Writes
	}
	v, err := c.engine.RangeCtx(ctx, sp, &c.view, box, &c.eval)
	sp.Add(trace.CacheAccesses, c.CacheAccesses-cacheBefore)
	sp.Add(trace.StoreAccesses, c.store.Accesses()-storeBefore)
	if pg != nil {
		sp.Add(trace.PagerReads, pg.Reads-readsBefore)
		sp.Add(trace.PagerWrites, pg.Writes-writesBefore)
	}
	return v, err
}

// storePager unwraps the pager behind a disk-backed store, nil for
// pure in-memory stores.
func storePager(s SliceStore) *pager.Pager {
	if st, ok := s.(*DiskStore); ok {
		return st.Pager()
	}
	return nil
}

// cacheQuery runs the direct DDC range algorithm against the cache.
func (c *Cube) cacheQuery(box dims.Box) float64 {
	sets := make([][]molap.Term, len(c.shape))
	for d := range c.shape {
		sets[d] = ddc.DDC{}.QueryTerms(nil, c.shape[d], box.Lo[d], box.Hi[d])
	}
	idx := make([][]int, len(sets))
	for d, s := range sets {
		ii := make([]int, len(s))
		for i := range s {
			ii[i] = i
		}
		idx[d] = ii
	}
	total := 0.0
	dims.CrossProduct(idx, func(combo []int) {
		off := 0
		f := 1.0
		for d, i := range combo {
			t := sets[d][i]
			off += t.Index * c.strides[d]
			f *= t.Factor
		}
		total += f * c.cache[off].val
		c.CacheAccesses++
	})
	return total
}
