package wal

// Follower half of WAL shipping: applying records received from a
// primary. It lives here — not in the server — because replication
// replay is the same trusted path as crash-recovery replay: the only
// two places allowed to call core.ApplyOp directly (the
// appendbeforeapply analyzer enforces that confinement). Everywhere
// else, mutations must go through the cube's op sink so they are
// logged before they are applied.

import (
	"fmt"

	"histcube/internal/core"
)

// ApplyReplicated stages one shipped record in the local log and
// applies it to the cube — the primary's own order, log then apply —
// enforcing that the shipped LSN continues the local sequence exactly:
// any gap or overlap means the follower diverged from the primary and
// must re-bootstrap rather than apply. The record is not yet durable
// when it returns: the caller commits it (Commit(lsn), outside the lock
// that serialises the cube) before acknowledging it to the primary.
//
// skipped reports an op the cube rejected. The primary logs ops before
// applying them, so a rejected op sits in its log too and recovery
// replay skips it there identically (see Recover); skipping keeps the
// replica bit-identical to a primary that crashed and recovered.
func (l *Log) ApplyReplicated(cube *core.Cube, lsn uint64, op core.Op) (skipped bool, err error) {
	if want := l.LastLSN() + 1; lsn != want {
		return false, fmt.Errorf("wal: shipped LSN %d does not continue the local log (want %d)", lsn, want)
	}
	got, err := l.Stage(op)
	if err != nil {
		return false, fmt.Errorf("wal: appending shipped record %d: %w", lsn, err)
	}
	if got != lsn {
		return false, fmt.Errorf("wal: shipped record %d landed at local LSN %d", lsn, got)
	}
	return cube.ApplyOp(op) != nil, nil
}
