package wal

import (
	"io"
	"os"
	"path/filepath"
	"time"
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
	start := time.Now()
	lsn := l.nextLSN - 1
	// Make the log consistent through lsn first: the snapshot must
	// never be newer than the durable log it truncates.
	if err := l.syncLocked(); err != nil {
		return 0, l.ckptFailed(err)
	}
	if err := writeCheckpoint(l.dir, lsn, save); err != nil {
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
		m.CheckpointDuration.Observe(time.Since(start).Seconds())
	}
	return lsn, nil
}

// writeCheckpoint makes save's snapshot the checkpoint covering lsn:
// tmp file, fsync, rename, directory fsync, so the name never points at
// a partial snapshot.
func writeCheckpoint(dir string, lsn uint64, save func(io.Writer) error) error {
	tmp := filepath.Join(dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, ckptName(lsn)))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// OpenCheckpoint opens the newest checkpoint file, for the caller to
// close, and returns the LSN it covers. A checkpoint syncs the log
// first, so every record it covers is durable, and the segments after it
// are retained, so a stream resumes at its LSN+1. It is opened under mu,
// where no checkpoint can prune it first.
func (l *Log) OpenCheckpoint() (*os.File, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Open(filepath.Join(l.dir, ckptName(l.ckptLSN)))
	return f, l.ckptLSN, err
}

// Rebase replaces the log's whole history with save's snapshot as the
// one checkpoint, covering lsn, and positions the log to append lsn+1:
// how a follower adopts its primary's snapshot. Every crash point
// recovers — with the segments gone to the old checkpoint's LSN, with
// the checkpoints gone too to LSN 0 — and the segment after lsn is
// created only once the new checkpoint exists, or the directory would
// recover an empty cube at lsn. A Rebase that fails part-way leaves the
// log closed at its old end (staging and Commit fail, Sync is a no-op)
// until a later one succeeds. Older Streams end with ErrClosed.
func (l *Log) Rebase(lsn uint64, save func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncIdleLocked()
	if !l.closed {
		_ = l.f.Close() // the history on it is being discarded, durable or not
		l.closed = true
	}
	l.rebases++
	l.notifyWaitersLocked()
	// Newest first, durably, so a crash part-way leaves a prefix.
	for _, list := range []func(string) ([]dirEntry, error){listSegments, listCheckpoints} {
		ents, err := list(l.dir)
		for i := len(ents) - 1; i >= 0 && err == nil; i-- {
			err = os.Remove(ents[i].path)
		}
		if err == nil {
			err = syncDir(l.dir)
		}
		if err != nil {
			return err
		}
	}
	if err := writeCheckpoint(l.dir, lsn, save); err != nil {
		return err
	}
	if err := l.startSegmentLocked(lsn + 1); err != nil {
		return err
	}
	l.nextLSN, l.durableLSN, l.shippedLSN, l.ckptLSN, l.sinceCkpt = lsn+1, lsn, lsn, lsn, 0
	l.unsynced, l.syncFailed, l.ring, l.segCount, l.closed = l.unsynced[:0], nil, nil, 1, false
	l.ckptNano.Store(time.Now().UnixNano())
	return nil
}

func (l *Log) ckptFailed(err error) error {
	if m := l.opts.Metrics; m != nil {
		m.CheckpointErrors.Inc()
	}
	return err
}

// keepCheckpoints is how many of the newest checkpoint files prune
// retains.
const keepCheckpoints = 2

// pruneLocked removes checkpoints beyond keepCheckpoints and every
// sealed segment that lies entirely below the oldest retained
// checkpoint (keeping segments back that far lets recovery fall back
// past a corrupt newest checkpoint without hitting a gap in the log).
func (l *Log) pruneLocked() {
	ckpts, err := listCheckpoints(l.dir)
	if err != nil {
		return
	}
	for len(ckpts) > keepCheckpoints {
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
