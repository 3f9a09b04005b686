package core

import (
	"context"
	"fmt"

	"histcube/internal/agg"
)

// OpKind enumerates the facade's replayable mutations. The paper's
// framework is deliberately append-only — updates only ever touch the
// latest instance R_{d-1}(t) (Section 2.2) — so the full cube state is
// a deterministic function of this op stream: exactly the property a
// write-ahead log (internal/wal) serialises for free.
type OpKind uint8

const (
	// OpInsert is Cube.Insert: one data point appended (or buffered
	// out of order).
	OpInsert OpKind = iota + 1
	// OpDelete is Cube.DeleteCtx: the inverse contribution of a point.
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

// SetOpSink installs fn as the cube's write-ahead hook: every insert
// and delete passes its op to fn *before* applying it, and
// aborts (returning fn's error) if fn fails. A durable sink therefore
// sees every mutation the caller may be told succeeded — an op is only
// acknowledged after both the sink and the apply succeed. fn must not
// retain the coords slice. nil detaches the sink. Replay via ApplyOp
// bypasses the sink.
func (c *Cube) SetOpSink(fn func(Op) error) { c.sink = fn }

// logOp feeds the sink, if any.
func (c *Cube) logOp(op Op) error {
	if c.sink == nil {
		return nil
	}
	return c.sink(op)
}

// ApplyOp applies a previously logged op without notifying the sink —
// the recovery replay path. Validation is the same as for the live
// calls, so an op that failed to apply when first logged fails
// identically on replay.
func (c *Cube) ApplyOp(op Op) error {
	switch op.Kind {
	case OpInsert:
		return c.apply(context.Background(), nil, op.Time, op.Coords, agg.Point(c.cfg.Operator, op.Value))
	case OpDelete:
		return c.apply(context.Background(), nil, op.Time, op.Coords, agg.Point(c.cfg.Operator, op.Value).Neg())
	default:
		return fmt.Errorf("core: unknown op kind %d", op.Kind)
	}
}
