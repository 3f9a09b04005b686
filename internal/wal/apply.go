package wal

// Log-then-apply: the one path by which a served op reaches the cube.
// The primary's mutations and the follower's shipped records both take
// it; recovery replay, which re-applies what the log already holds, is
// the only other caller of core.Cube.ApplyOp (the appendbeforeapply
// analyzer enforces that confinement).

import (
	"context"
	"fmt"

	"histcube/internal/core"
	"histcube/internal/trace"
)

// Apply logs op, then folds it into cube, and returns the op's LSN. It
// keeps two failures apart:
//
//   - lsn 0 with an error: nothing was logged or applied. Either ctx was
//     already done (its error is returned, reachable through errors.Is;
//     this is the one cancellation check of a mutation, made before the
//     op reaches the log) or staging failed, which means the log is
//     closed or broken.
//   - lsn > 0 with an error: the op is staged at lsn, but the cube
//     rejected it. Recovery replay rejects it identically (see
//     RecoverResult.SkippedOps), so the log and the cube still agree.
//
// The record is staged, not durable: the caller commits it (Commit(lsn),
// outside whatever lock serialises the cube) before acknowledging it.
// The record's framed bytes are added to the span ctx carries as
// trace.WALBytes. On a nil log Apply only applies, with lsn 0.
func (l *Log) Apply(ctx context.Context, cube *core.Cube, op core.Op) (lsn uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("wal: %s canceled before logging: %w", op.Kind, err)
	}
	if l != nil {
		if lsn, err = l.stage(op); err != nil {
			return 0, err
		}
		trace.FromContext(ctx).Add(trace.WALBytes, int64(recordSize(op)))
	}
	return lsn, cube.ApplyOp(ctx, op)
}

// ApplyReplicated applies one shipped record through Apply — the
// primary's own order, log then apply — enforcing that the shipped LSN
// continues the local sequence exactly: any gap or overlap means the
// follower diverged from the primary and must re-bootstrap rather than
// apply. As with Apply, the record is not yet durable when it returns.
//
// skipped reports an op the cube rejected. The primary logs ops before
// applying them, so a rejected op sits in its log too and recovery
// replay skips it there identically (see Recover); skipping keeps the
// replica bit-identical to a primary that crashed and recovered.
func (l *Log) ApplyReplicated(cube *core.Cube, lsn uint64, op core.Op) (skipped bool, err error) {
	if want := l.LastLSN() + 1; lsn != want {
		return false, fmt.Errorf("wal: shipped LSN %d does not continue the local log (want %d)", lsn, want)
	}
	// The caller serialises every writer of the log, so the record lands
	// at lsn.
	got, err := l.Apply(context.Background(), cube, op)
	if got == 0 {
		return false, fmt.Errorf("wal: appending shipped record %d: %w", lsn, err)
	}
	return err != nil, nil
}
