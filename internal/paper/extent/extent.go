// Package extent handles objects with an extent in the TT-dimension
// (Section 2.4 of the paper): each object carries a closed time
// interval [Start, End] plus (d-1)-dimensional point coordinates and a
// measure. Following the reduction the paper adapts from Zhang et
// al., two instance families are maintained per occurring time t:
//
//	C(t) — objects whose interval contains t (alive at t)
//	B(t) — objects whose interval ended strictly before t
//
// and the aggregate over objects whose interval intersects a query
// interval [lo, up] is b(up) + c(up) - b(lo): three (d-1)-dimensional
// queries instead of two, and roughly doubled storage and update cost,
// exactly as the paper analyses.
//
// With integer times, "ends strictly before t" means End <= t-1, so
// the end of interval [s, e] fires events at time e+1: a deletion from
// C and an insertion into B. Events are processed in time order by a
// pending-event queue, which is what makes both C and B append-only
// data sets the framework can manage.
//
// Containment queries ("interval contained in [lo, up]") constrain
// Start and End jointly, which the C/B pair cannot separate; the
// Tracker therefore also maintains an endpoint-indexed family E whose
// instances store points (Start, coords) keyed by the End event time,
// so contained(lo, up) is one prefix-time query at up with a Start
// range of [lo, up].
//
// Reproduction only — not importable from the serving path (histlint
// `importfence`).
package extent

import (
	"container/heap"
	"errors"
	"fmt"

	"histcube/internal/dims"
	"histcube/internal/paper/framework"
)

// Interval is one object with extent in the TT-dimension.
type Interval struct {
	// Start and End delimit the closed validity interval; Start <= End.
	Start, End int64
	// Coords locate the object in the d-1 non-time dimensions.
	Coords []int
	// Value is the object's measure (1 for COUNT semantics).
	Value float64
}

// ErrNotAppendOnly reports an interval starting before an already
// processed event time.
var ErrNotAppendOnly = errors.New("extent: interval starts before an already processed time")

type endEvent struct {
	at    int64 // End + 1
	start int64
	x     []int
	value float64
}

type endQueue []endEvent

func (q endQueue) Len() int           { return len(q) }
func (q endQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q endQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *endQueue) Push(x any)        { *q = append(*q, x.(endEvent)) }
func (q *endQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Config configures a Tracker.
type Config struct {
	// Fresh creates an empty (d-1)-dimensional structure for the C and
	// B families (required).
	Fresh func() framework.Cloneable
	// FreshEndpoint creates an empty d-dimensional structure whose
	// first dimension is the Start coordinate, for the containment
	// family E. Nil disables ContainedQuery.
	FreshEndpoint func() framework.Cloneable
	// StartToCoord maps a Start time onto the first coordinate of the
	// endpoint structure; required with FreshEndpoint. Identity
	// truncation is typical when starts are small and dense.
	StartToCoord func(int64) int
}

// Tracker maintains the C, B (and optionally E) instance families over
// interval objects arriving in Start order.
type Tracker struct {
	c, b, e      *framework.AppendOnly
	startToCoord func(int64) int
	pending      endQueue
	processed    int64
	count        int
}

// NewTracker returns a Tracker for the configuration.
func NewTracker(cfg Config) (*Tracker, error) {
	if cfg.Fresh == nil {
		return nil, fmt.Errorf("extent: Config.Fresh is required")
	}
	c, err := framework.New(framework.Config{Source: framework.NewCloneSource(cfg.Fresh)})
	if err != nil {
		return nil, err
	}
	b, err := framework.New(framework.Config{Source: framework.NewCloneSource(cfg.Fresh)})
	if err != nil {
		return nil, err
	}
	t := &Tracker{c: c, b: b, processed: int64(-1) << 62}
	if cfg.FreshEndpoint != nil {
		if cfg.StartToCoord == nil {
			return nil, fmt.Errorf("extent: StartToCoord is required with FreshEndpoint")
		}
		e, err := framework.New(framework.Config{Source: framework.NewCloneSource(cfg.FreshEndpoint)})
		if err != nil {
			return nil, err
		}
		t.e = e
		t.startToCoord = cfg.StartToCoord
	}
	return t, nil
}

// Add registers an interval object. Objects must arrive in
// non-decreasing Start order relative to all previously processed
// event times.
func (t *Tracker) Add(iv Interval) error {
	if iv.Start > iv.End {
		return fmt.Errorf("extent: inverted interval [%d, %d]", iv.Start, iv.End)
	}
	if iv.Start < t.processed {
		return fmt.Errorf("%w: start %d, processed through %d", ErrNotAppendOnly, iv.Start, t.processed)
	}
	if err := t.Flush(iv.Start); err != nil {
		return err
	}
	if err := t.c.Update(iv.Start, iv.Coords, iv.Value); err != nil {
		return err
	}
	heap.Push(&t.pending, endEvent{
		at:    iv.End + 1,
		start: iv.Start,
		x:     append([]int(nil), iv.Coords...),
		value: iv.Value,
	})
	t.processed = iv.Start
	t.count++
	return nil
}

// Flush applies all pending end events with time <= upTo, advancing
// the processed watermark to at least upTo. Later Adds must not start
// before the watermark.
func (t *Tracker) Flush(upTo int64) error {
	for len(t.pending) > 0 && t.pending[0].at <= upTo {
		ev := heap.Pop(&t.pending).(endEvent)
		if err := t.c.Update(ev.at, ev.x, -ev.value); err != nil {
			return err
		}
		if err := t.b.Update(ev.at, ev.x, ev.value); err != nil {
			return err
		}
		if t.e != nil {
			ex := make([]int, 0, len(ev.x)+1)
			ex = append(ex, t.startToCoord(ev.start))
			ex = append(ex, ev.x...)
			if err := t.e.Update(ev.at, ex, ev.value); err != nil {
				return err
			}
		}
		t.processed = ev.at
	}
	if upTo > t.processed {
		t.processed = upTo
	}
	return nil
}

// Len returns the number of objects added.
func (t *Tracker) Len() int { return t.count }

// Pending returns the number of unexpired end events.
func (t *Tracker) Pending() int { return len(t.pending) }

// IntersectQuery aggregates over objects whose interval intersects
// [tLo, tHi] and whose coordinates lie in the box:
// b(tHi) + c(tHi) - b(tLo), the paper's three (d-1)-dimensional
// queries. All end events up to tHi are flushed first, so subsequent
// Adds must start at or after tHi.
func (t *Tracker) IntersectQuery(tLo, tHi int64, b dims.Box) (float64, error) {
	if tLo > tHi {
		return 0, fmt.Errorf("extent: inverted time range [%d, %d]", tLo, tHi)
	}
	if err := t.Flush(tHi); err != nil {
		return 0, err
	}
	bUp, err := t.b.PrefixQuery(tHi, b)
	if err != nil {
		return 0, err
	}
	cUp, err := t.c.PrefixQuery(tHi, b)
	if err != nil {
		return 0, err
	}
	bLo, err := t.b.PrefixQuery(tLo, b)
	if err != nil {
		return 0, err
	}
	return bUp + cUp - bLo, nil
}

// StabQuery aggregates over objects alive at the time instant (their
// interval contains it) with coordinates in the box: c(at).
func (t *Tracker) StabQuery(at int64, b dims.Box) (float64, error) {
	return t.IntersectQuery(at, at, b)
}

// ErrNoEndpointFamily reports a ContainedQuery on a Tracker built
// without FreshEndpoint.
var ErrNoEndpointFamily = errors.New("extent: containment queries need the endpoint family; configure FreshEndpoint")

// ContainedQuery aggregates over objects whose interval is fully
// contained in [tLo, tHi] (tLo <= Start, End <= tHi) with coordinates
// in the box: one prefix-time query on the endpoint family E at tHi+1
// (End <= tHi) with the Start coordinate restricted to [tLo, tHi].
// End events up to tHi+1 are flushed first.
func (t *Tracker) ContainedQuery(tLo, tHi int64, b dims.Box) (float64, error) {
	if t.e == nil {
		return 0, ErrNoEndpointFamily
	}
	if tLo > tHi {
		return 0, fmt.Errorf("extent: inverted time range [%d, %d]", tLo, tHi)
	}
	if err := t.Flush(tHi + 1); err != nil {
		return 0, err
	}
	lo := make([]int, 0, len(b.Lo)+1)
	hi := make([]int, 0, len(b.Hi)+1)
	lo = append(lo, t.startToCoord(tLo))
	hi = append(hi, t.startToCoord(tHi))
	lo = append(lo, b.Lo...)
	hi = append(hi, b.Hi...)
	return t.e.PrefixQuery(tHi+1, dims.Box{Lo: lo, Hi: hi})
}
