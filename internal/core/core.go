// Package core is histcube's public facade: a d-dimensional
// append-only data cube for historical range aggregation, implementing
// the SIGMOD 2002 construction of Riedewald, Agrawal and El Abbadi
// end to end. One dimension is transaction time (values must arrive in
// non-decreasing time order); the remaining dimensions are dense
// integer coordinates. Queries aggregate over a closed time range and
// a coordinate box at a cost independent of the length of the recorded
// history.
//
// The cube supports the invertible operators SUM, COUNT and AVERAGE
// (maintained as SUM and COUNT), in-memory or disk-backed historic
// storage, and optional buffering of out-of-order updates in an
// R*-tree (Section 2.5's G_d) so late corrections degrade performance
// gracefully instead of failing.
//
// Every mutation is an Op applied by Cube.ApplyOp, the cube's one
// mutation path; Insert is its library shorthand. The cube is therefore
// a deterministic function of its op stream (Section 2.2): a durable
// caller logs each op before the cube applies it with wal.Log.Apply,
// and recovery replays the log through ApplyOp.
package core

import (
	"context"
	"errors"
	"fmt"

	"histcube/internal/agg"
	"histcube/internal/appendcube"
	"histcube/internal/dims"
	"histcube/internal/pager"
	"histcube/internal/rstar"
	"histcube/internal/trace"
)

// Dim names one non-time dimension and fixes its domain size;
// coordinates are integers in [0, Size).
type Dim struct {
	Name string
	Size int
}

// StorageKind selects where historic time slices live.
type StorageKind int

// The zero StorageKind keeps historic slices in RAM (the Section
// 3.3/3.4 algorithms, with eCube conversion).
const (
	// Disk keeps historic slices on paged storage (the Section 3.5
	// external-memory algorithm with page-wise copy-ahead).
	Disk StorageKind = iota + 1
)

// Storage configures the historic slice store.
type Storage struct {
	Kind StorageKind
	// Path backs Disk storage with a real file; empty uses an
	// in-memory page store with identical I/O accounting.
	Path string
	// PageSize for Disk storage; 0 selects the paper's 8 KiB.
	PageSize int
}

// Config configures a Cube.
type Config struct {
	// Dims are the non-time dimensions (at least one).
	Dims []Dim
	// Operator is the aggregate operator; it must be invertible
	// (SUM, COUNT or AVERAGE).
	Operator agg.Operator
	// Storage defaults to RAM.
	Storage Storage
	// BufferOutOfOrder routes updates with historic time coordinates
	// into an R*-tree buffer instead of rejecting them.
	BufferOutOfOrder bool
}

// Range is a query region: a closed time range and a closed
// coordinate box.
type Range struct {
	TimeLo, TimeHi int64
	Lo, Hi         []int
}

// Stats is a snapshot of cube state and cost counters.
type Stats struct {
	Slices            int
	IncompleteSlices  int
	CacheAccesses     int64
	StoreAccesses     int64
	PendingOutOfOrder int
	AppendedUpdates   int64
	OutOfOrderUpdates int64

	// ECubeConversions is the cumulative number of historic cells the
	// eCube query algorithm rewrote from DDC to PS form — the live
	// counterpart of the paper's Figure 10/11 convergence curves.
	ECubeConversions int64
	// ECubeCellsTouched is the cumulative number of historic-slice
	// cells loaded by queries.
	ECubeCellsTouched int64
	// ForcedCopies and CopyAheadWork are the cumulative lazy-copy
	// progress of Section 3.3 (the live view of Figures 12/13).
	ForcedCopies  int64
	CopyAheadWork int64
}

// Cube is the append-only historical data cube.
type Cube struct {
	cfg    Config
	shape  dims.Shape
	byName map[string]int

	sum *appendcube.Cube
	cnt *appendcube.Cube // only for Average
	gd  *rstar.Gd
	cgd *rstar.Gd // count buffer, only for Average

	appended   int64
	outOfOrder int64
}

// New returns an empty cube.
func New(cfg Config) (*Cube, error) {
	if err := cfg.Operator.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Dims) == 0 {
		return nil, fmt.Errorf("core: at least one non-time dimension is required")
	}
	shape := make(dims.Shape, len(cfg.Dims))
	byName := make(map[string]int, len(cfg.Dims))
	for i, d := range cfg.Dims {
		if d.Size <= 0 {
			return nil, fmt.Errorf("core: dimension %q has non-positive size %d", d.Name, d.Size)
		}
		if d.Name != "" {
			if _, dup := byName[d.Name]; dup {
				return nil, fmt.Errorf("core: duplicate dimension name %q", d.Name)
			}
			byName[d.Name] = i
		}
		shape[i] = d.Size
	}
	c := &Cube{cfg: cfg, shape: shape, byName: byName}
	var err error
	c.sum, err = newInner(cfg, shape)
	if err != nil {
		return nil, err
	}
	if cfg.Operator == agg.Average {
		c.cnt, err = newInner(cfg, shape)
		if err != nil {
			return nil, err
		}
	}
	if cfg.BufferOutOfOrder {
		c.gd, err = rstar.NewGd(len(shape))
		if err != nil {
			return nil, err
		}
		if cfg.Operator == agg.Average {
			c.cgd, err = rstar.NewGd(len(shape))
			if err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

func newInner(cfg Config, shape dims.Shape) (*appendcube.Cube, error) {
	acfg := appendcube.Config{SliceShape: shape}
	if cfg.Storage.Kind == Disk {
		pageSize := cfg.Storage.PageSize
		if pageSize == 0 {
			pageSize = pager.DefaultPageSize
		}
		var backend pager.Backend
		if cfg.Storage.Path != "" {
			fb, err := pager.NewFileBackend(cfg.Storage.Path, pageSize)
			if err != nil {
				return nil, err
			}
			backend = fb
		} else {
			backend = pager.NewMemBackend(pageSize)
		}
		pg, err := pager.New(backend, pageSize)
		if err != nil {
			return nil, err
		}
		acfg.Store = appendcube.NewDiskStore(shape.Size(), pg)
	}
	return appendcube.New(acfg)
}

// Shape returns the non-time dimension sizes.
func (c *Cube) Shape() []int { return append([]int(nil), c.shape...) }

// Insert records one data point: at transaction time t, the cell at
// coords gains measure value v. Under COUNT semantics v is ignored and
// the point counts 1; AVERAGE accumulates both. Out-of-order times are
// buffered when configured, rejected with appendcube.ErrOutOfOrder
// otherwise. It is the library shorthand for ApplyOp with an OpInsert
// and no request scope; a durable caller logs the op first through
// wal.Log.Apply instead.
func (c *Cube) Insert(t int64, coords []int, v float64) error {
	return c.ApplyOp(context.Background(), Op{Kind: OpInsert, Time: t, Coords: coords, Value: v})
}

func (c *Cube) apply(ctx context.Context, sp *trace.Span, t int64, coords []int, val agg.Value) error {
	res, err := c.sum.UpdateCtx(ctx, t, coords, val.Sum)
	switch {
	case err == nil:
		c.appended++
		sp.Add(trace.CacheAccesses, int64(res.CacheCells))
		sp.Add(trace.ForcedCopies, int64(res.ForcedCopies))
		sp.Add(trace.CopyAheadWork, int64(res.CopyAhead))
		if res.NewSlice {
			sp.SetBool("new_slice", true)
		}
		if c.cnt != nil {
			if _, err := c.cnt.UpdateCtx(ctx, t, coords, val.Count); err != nil {
				return err
			}
		}
		return nil
	case errors.Is(err, appendcube.ErrOutOfOrder) && c.gd != nil:
		c.gd.Insert(t, coords, val.Sum)
		if c.cgd != nil {
			c.cgd.Insert(t, coords, val.Count)
		}
		c.outOfOrder++
		sp.SetBool("out_of_order", true)
		return nil
	default:
		return err
	}
}

// Query aggregates over the range and finalises per the operator
// (AVERAGE divides the summed measures by the count).
func (c *Cube) Query(r Range) (float64, error) {
	return c.QueryCtx(context.Background(), r)
}

// QueryCtx is Query with request scoping: when ctx carries a trace
// span, the query attributes its full cost breakdown — the two
// framework prefix queries, cells touched, DDC->PS conversions,
// instances consulted, store and pager I/O — to a histcube.query
// child span; when ctx has a deadline, the eCube evaluation polls it
// and abandons the query with ctx's error. A bare context costs one
// branch.
func (c *Cube) QueryCtx(ctx context.Context, r Range) (float64, error) {
	v, err := c.QueryPairCtx(ctx, r)
	if err != nil {
		return 0, err
	}
	return agg.Finalize(c.cfg.Operator, v), nil
}

// QueryPairCtx is QueryCtx without the final step: the (sum, count)
// pair the operator finalises. Pairs of disjoint ranges merge by
// addition for every operator; AVERAGE's answers do not.
func (c *Cube) QueryPairCtx(ctx context.Context, r Range) (agg.Value, error) {
	q := trace.FromContext(ctx).StartChild("histcube.query")
	defer q.End()
	q.SetInt("time_lo", r.TimeLo)
	q.SetInt("time_hi", r.TimeHi)
	return c.partial(ctx, q, r)
}

// Operator returns the cube's aggregate operator.
func (c *Cube) Operator() agg.Operator { return c.cfg.Operator }

func (c *Cube) partial(ctx context.Context, sp *trace.Span, r Range) (agg.Value, error) {
	box := dims.Box{Lo: r.Lo, Hi: r.Hi}
	s, err := c.sum.QueryCtx(ctx, sp, r.TimeLo, r.TimeHi, box)
	if err != nil {
		return agg.Value{}, err
	}
	out := agg.Value{Sum: s, Count: s}
	if c.cnt != nil {
		cq := sp.StartChild("histcube.count_cube")
		n, err := c.cnt.QueryCtx(ctx, cq, r.TimeLo, r.TimeHi, box)
		cq.End()
		if err != nil {
			return agg.Value{}, err
		}
		out.Count = n
	}
	// An empty buffer adds nothing, and its span would be one more per
	// query on every -ooo server that has caught up.
	if c.gd != nil && c.gd.Len() > 0 {
		gq := sp.StartChild("histcube.ooo_buffer")
		gq.SetInt("pending", int64(c.gd.Len()))
		g, err := c.gd.Query(r.TimeLo, r.TimeHi, box)
		if err != nil {
			gq.End()
			return agg.Value{}, err
		}
		out.Sum += g
		if c.cgd != nil {
			gn, err := c.cgd.Query(r.TimeLo, r.TimeHi, box)
			if err != nil {
				gq.End()
				return agg.Value{}, err
			}
			out.Count += gn
		} else {
			out.Count += g
		}
		gq.End()
	}
	return out, nil
}

// Stats returns a snapshot of counters. For AVERAGE cubes the
// cumulative cost counters sum the SUM and COUNT components.
func (c *Cube) Stats() Stats {
	st := Stats{
		Slices:            c.sum.NumSlices(),
		IncompleteSlices:  c.sum.Incomplete(),
		CacheAccesses:     c.sum.CacheAccesses,
		StoreAccesses:     c.sum.Store().Accesses(),
		AppendedUpdates:   c.appended,
		OutOfOrderUpdates: c.outOfOrder,
		ECubeConversions:  c.sum.Conversions(),
		ECubeCellsTouched: c.sum.CellsTouched(),
	}
	st.ForcedCopies, st.CopyAheadWork = c.sum.CopyProgress()
	if c.cnt != nil {
		st.CacheAccesses += c.cnt.CacheAccesses
		st.StoreAccesses += c.cnt.Store().Accesses()
		st.ECubeConversions += c.cnt.Conversions()
		st.ECubeCellsTouched += c.cnt.CellsTouched()
		f, a := c.cnt.CopyProgress()
		st.ForcedCopies += f
		st.CopyAheadWork += a
	}
	if c.gd != nil {
		st.PendingOutOfOrder = c.gd.Len()
	}
	return st
}

// Retire materialises every historic slice completely — the data-aging
// hook the paper's conclusion describes: once slices are complete they
// can move to colder storage with their aggregates intact.
func (c *Cube) Retire() error {
	if err := c.sum.ForceComplete(); err != nil {
		return err
	}
	if c.cnt != nil {
		return c.cnt.ForceComplete()
	}
	return nil
}

// Close releases storage resources: disk-backed historic stores flush
// their page buffer, fsync and close the page file, propagating any
// error. Memory-backed cubes close trivially. The cube must not be
// used after Close.
func (c *Cube) Close() error {
	err := closeStore(c.sum.Store())
	if c.cnt != nil {
		if cerr := closeStore(c.cnt.Store()); err == nil {
			err = cerr
		}
	}
	return err
}

func closeStore(s appendcube.SliceStore) error {
	if st, ok := s.(*appendcube.DiskStore); ok {
		return st.Pager().Close()
	}
	return nil
}
