package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"histcube/internal/core"
)

// quarantineCheckpoint renames a checkpoint that core.Load proved
// corrupt aside (suffix ".corrupt"): the next boot will not trip over
// it again, and its bytes stay on disk for inspection. The rename is
// best-effort — when it fails the file is merely skipped, as before.
// Only proven corruption earns the rename; callers must not quarantine
// on open errors, which say nothing about the bytes.
func quarantineCheckpoint(path string, res *RecoverResult, m *Metrics) {
	res.CheckpointsSkipped++
	if err := os.Rename(path, path+".corrupt"); err == nil {
		res.QuarantinedCheckpoints = append(res.QuarantinedCheckpoints, path+".corrupt")
		if m != nil {
			m.QuarantinedCkpts.Inc()
		}
	}
}

// RecoverResult reports what recovery found and did.
type RecoverResult struct {
	// CheckpointLSN is the LSN covered by the checkpoint that seeded
	// the cube (0 when recovery started from an empty cube).
	CheckpointLSN uint64
	// CheckpointsSkipped counts unreadable checkpoint files passed
	// over before a loadable one (or none) was found.
	CheckpointsSkipped int
	// QuarantinedCheckpoints lists the new paths of proven-corrupt
	// checkpoint files renamed aside (suffix ".corrupt") so they leave
	// the checkpoint namespace but stay on disk for inspection.
	QuarantinedCheckpoints []string
	// Replayed counts log records re-applied on top of the checkpoint.
	Replayed int
	// SkippedOps counts replayed records whose re-apply failed; they
	// failed identically when first logged, so skipping them
	// reproduces the pre-crash state.
	SkippedOps int
	// TornTail reports that a torn final record (an append interrupted
	// by the crash) was truncated away.
	TornTail bool
}

// Recover opens the durable directory (creating it when absent),
// loads the newest readable checkpoint, replays the log tail on top
// of it, truncates a torn final record, and returns the recovered
// cube together with a Log positioned for further appends.
//
// newCube constructs the empty cube used when no checkpoint exists
// (first boot, or every checkpoint unreadable but the log intact from
// LSN 1). Replay applies the log's ops with core.Cube.ApplyOp, so it
// never re-logs them; the caller sends further mutations through
// log.Apply.
func Recover(dir string, opts Options, newCube func() (*core.Cube, error)) (*core.Cube, *Log, RecoverResult, error) {
	opts = opts.withDefaults()
	var res RecoverResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, res, err
	}

	// 1. Seed from the newest checkpoint that loads.
	ckpts, err := listCheckpoints(dir)
	if err != nil {
		return nil, nil, res, err
	}
	var cube *core.Cube
	var ckptAt int64
	for i := len(ckpts) - 1; i >= 0; i-- {
		f, err := os.Open(ckpts[i].path)
		if err != nil {
			// An open failure can be transient (EMFILE, EACCES, momentary
			// I/O) and proves nothing about the content: skip the file for
			// this boot but leave it in place — renaming it away would
			// permanently drop the newest checkpoint and, once older
			// segments are pruned past it, turn a transient fault into a
			// permanent log-gap failure on every later boot.
			res.CheckpointsSkipped++
			continue
		}
		c, lerr := core.Load(f)
		_ = f.Close() // read-only; core.Load already validated what was read
		if lerr != nil {
			quarantineCheckpoint(ckpts[i].path, &res, opts.Metrics)
			continue
		}
		cube = c
		res.CheckpointLSN = ckpts[i].seq
		if fi, err := os.Stat(ckpts[i].path); err == nil {
			ckptAt = fi.ModTime().UnixNano()
		}
		break
	}
	if cube == nil {
		if cube, err = newCube(); err != nil {
			return nil, nil, res, err
		}
	}

	// 2. Replay the log tail. Records carry implicit LSNs (segment
	// firstLSN + index); everything at or below the checkpoint is
	// already in the snapshot and is skipped.
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, res, err
	}
	lastLSN := res.CheckpointLSN
	if len(segs) > 0 && res.CheckpointLSN != 0 && segs[0].seq > res.CheckpointLSN+1 {
		return nil, nil, res, fmt.Errorf("wal: log gap after checkpoint %d: oldest segment starts at LSN %d",
			res.CheckpointLSN, segs[0].seq)
	}
	for i, sg := range segs {
		last := i == len(segs)-1
		first, ops, goodLen, torn, err := readSegment(sg.path)
		if err != nil {
			// Mid-log corruption is fatal wherever it sits — even in the
			// final segment, valid records after the damage prove that
			// acknowledged history would be lost by truncating.
			var ce *CorruptError
			if errors.As(err, &ce) {
				return nil, nil, res, err
			}
			if !last {
				return nil, nil, res, fmt.Errorf("wal: unreadable mid-log segment: %w", err)
			}
			// A final segment without even a valid header is the
			// remains of an interrupted rotation: nothing in it was
			// ever acknowledged, so discard it.
			if rerr := os.Remove(sg.path); rerr != nil {
				return nil, nil, res, rerr
			}
			res.TornTail = true
			segs = segs[:i]
			break
		}
		if torn {
			if !last {
				return nil, nil, res, fmt.Errorf("wal: segment %s corrupt before the log tail", sg.path)
			}
			if terr := os.Truncate(sg.path, goodLen); terr != nil {
				return nil, nil, res, terr
			}
			res.TornTail = true
			if m := opts.Metrics; m != nil {
				m.TornTruncations.Inc()
			}
		}
		if first != sg.seq {
			return nil, nil, res, fmt.Errorf("wal: segment %s header LSN %d does not match its name", sg.path, first)
		}
		for j, op := range ops {
			lsn := first + uint64(j)
			if lsn <= res.CheckpointLSN {
				continue
			}
			if aerr := cube.ApplyOp(context.Background(), op); aerr != nil {
				res.SkippedOps++
			} else {
				res.Replayed++
			}
		}
		if end := first + uint64(len(ops)) - 1; len(ops) > 0 && end > lastLSN {
			lastLSN = end
		} else if len(ops) == 0 && first > 0 && first-1 > lastLSN {
			// An empty segment still proves every LSN below its first
			// was allocated.
			lastLSN = first - 1
		}
	}

	// 3. Position the log for appends: continue the last segment, or
	// start a fresh one.
	// Everything recovery just read and validated is on disk by
	// definition, so the opening position doubles as the written and
	// durable baseline.
	l := &Log{dir: dir, opts: opts, nextLSN: lastLSN + 1, durableLSN: lastLSN,
		shippedLSN: lastLSN, ckptLSN: res.CheckpointLSN, segCount: len(segs)}
	l.syncIdle = sync.NewCond(&l.mu)
	if ckptAt != 0 {
		l.ckptNano.Store(ckptAt)
	}
	if len(segs) > 0 {
		sg := segs[len(segs)-1]
		fi, err := os.Stat(sg.path)
		if err != nil {
			return nil, nil, res, err
		}
		f, err := os.OpenFile(sg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, res, err
		}
		l.f = l.wrapSeg(f)
		l.segFirst = sg.seq
		l.segBytes = fi.Size()
		l.durableBytes, l.writtenBytes = fi.Size(), fi.Size()
	} else if err := l.startSegmentLocked(l.nextLSN); err != nil {
		return nil, nil, res, err
	}
	return cube, l, res, nil
}
