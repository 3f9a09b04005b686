package wal

import (
	"io"
	"os"
	"path/filepath"
	"time"

	"histcube/internal/obs"
)

// Checkpoint writes a snapshot of the current state through save
// (typically core.Cube.Save), records the LSN it covers, rotates the
// active segment, and removes log segments and checkpoint files made
// obsolete. It returns the covered LSN. The caller must guarantee that
// save observes a state that includes every appended record up to the
// returned LSN and nothing beyond — in practice: call Checkpoint under
// the same lock that serialises mutations. The checkpoint fsyncs the log
// through its tail first, so it also satisfies every parked Commit.
func (l *Log) Checkpoint(save func(io.Writer) error) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncIdleLocked()
	return l.checkpointLocked(save)
}

// MaybeCheckpoint checkpoints when at least every records were
// appended since the last checkpoint; every <= 0 disables automatic
// checkpoints. It reports whether a checkpoint ran.
func (l *Log) MaybeCheckpoint(every int64, save func(io.Writer) error) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if every <= 0 || l.sinceCkpt < every {
		return false, nil
	}
	l.awaitSyncIdleLocked()
	_, err := l.checkpointLocked(save)
	return true, err
}

// checkpointLocked runs one checkpoint; the caller holds mu and waited
// out any group fsync in flight (rotation replaces the descriptor).
func (l *Log) checkpointLocked(save func(io.Writer) error) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	timer := obs.NewTimer(nil)
	if m := l.opts.Metrics; m != nil {
		timer = obs.NewTimer(m.CheckpointDuration)
	}
	lsn := l.nextLSN - 1
	// Make the log consistent through lsn first: the snapshot must
	// never be newer than the durable log it truncates.
	if err := l.syncLocked(); err != nil {
		return 0, l.ckptFailed(err)
	}
	tmp := filepath.Join(l.dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, l.ckptFailed(err)
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, l.ckptFailed(err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, ckptName(lsn))); err != nil {
		os.Remove(tmp)
		return 0, l.ckptFailed(err)
	}
	if err := syncDir(l.dir); err != nil {
		return 0, l.ckptFailed(err)
	}
	l.ckptLSN = lsn
	l.sinceCkpt = 0
	l.ckptNano.Store(time.Now().UnixNano())
	// Rotate so the entire pre-checkpoint tail lives in sealed
	// segments and can be truncated; then prune. Both are best-effort:
	// the checkpoint itself is already durable.
	if l.segBytes > segHeaderSize {
		if err := l.rotateLocked(); err != nil {
			return 0, l.ckptFailed(err)
		}
	}
	l.pruneLocked()
	if m := l.opts.Metrics; m != nil {
		m.Checkpoints.Inc()
	}
	timer.ObserveDuration()
	return lsn, nil
}

func (l *Log) ckptFailed(err error) error {
	if m := l.opts.Metrics; m != nil {
		m.CheckpointErrors.Inc()
	}
	return err
}

// pruneLocked removes checkpoints beyond KeepCheckpoints and every
// sealed segment that lies entirely below the oldest retained
// checkpoint (keeping segments back that far lets recovery fall back
// past a corrupt newest checkpoint without hitting a gap in the log).
func (l *Log) pruneLocked() {
	ckpts, err := listCheckpoints(l.dir)
	if err != nil {
		return
	}
	for len(ckpts) > l.opts.KeepCheckpoints {
		os.Remove(ckpts[0].path) // sorted ascending: oldest first
		ckpts = ckpts[1:]
	}
	if len(ckpts) == 0 {
		return
	}
	oldest := ckpts[0].seq
	segs, err := listSegments(l.dir)
	if err != nil {
		return
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].seq == l.segFirst {
			break // never the active segment
		}
		// Removable iff every record in it (LSNs [segs[i].seq,
		// segs[i+1].seq)) is covered by the oldest kept checkpoint;
		// segments are sorted, so the first survivor ends the scan.
		if segs[i+1].seq > oldest+1 {
			break
		}
		if os.Remove(segs[i].path) == nil {
			l.segCount--
		}
	}
}
