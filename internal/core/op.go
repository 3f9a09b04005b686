package core

import (
	"context"
	"fmt"

	"histcube/internal/agg"
	"histcube/internal/trace"
)

// OpKind enumerates the facade's replayable mutations. The paper's
// framework is deliberately append-only — updates only ever touch the
// latest instance R_{d-1}(t) (Section 2.2) — so the full cube state is
// a deterministic function of this op stream: exactly the property a
// write-ahead log (internal/wal) serialises for free.
type OpKind uint8

const (
	// OpInsert is one data point appended (or buffered out of order);
	// Cube.Insert is its shorthand.
	OpInsert OpKind = iota + 1
	// OpDelete is the inverse contribution of a point.
	OpDelete
)

// String names the op kind for logs and errors.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one mutation of the cube in replayable form. Replaying the ops
// in order against a cube with the same configuration reproduces the
// same state (including the out-of-order buffer).
type Op struct {
	Kind   OpKind
	Time   int64
	Coords []int
	Value  float64
}

// ApplyOp is the cube's one mutation path: it folds op into the cube —
// an insert adds the point, a delete its inverse contribution (the
// paper's translation of deletes into updates). When ctx carries a
// trace span (trace.NewContext) the op records a histcube.insert or
// histcube.delete child span with its cache/copy cost counters. ctx
// bounds only the amortised copy-ahead work: once the op is logged it
// always applies, because aborting between log and apply would diverge
// the log from the state, so the cancellation check belongs before the
// log (wal.Log.Apply). An op the cube rejects fails identically on
// recovery replay, which is why a logged op may be rejected here.
func (c *Cube) ApplyOp(ctx context.Context, op Op) error {
	val, parent := agg.Point(c.cfg.Operator, op.Value), trace.FromContext(ctx)
	var sp *trace.Span
	switch op.Kind {
	case OpInsert:
		sp = parent.StartChild("histcube.insert")
	case OpDelete:
		val, sp = val.Neg(), parent.StartChild("histcube.delete")
	default:
		return fmt.Errorf("core: unknown op kind %d", op.Kind)
	}
	defer sp.End()
	return c.apply(ctx, sp, op.Time, op.Coords, val)
}
