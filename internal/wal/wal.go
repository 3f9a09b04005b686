// Package wal is histcube's durability subsystem: a segmented,
// CRC32-checksummed, binary write-ahead log of the core facade's
// mutation stream, plus checkpointing and crash recovery.
//
// The paper's framework (Section 2.2) is deliberately append-only —
// updates only ever touch the latest instance R_{d-1}(t), and out-of-
// order corrections go to a side buffer — so the whole cube state is a
// deterministic function of a linear op stream. That is exactly the
// access pattern a WAL serialises for free: the log *is* the update
// stream, and replaying it against an empty (or checkpointed) cube
// reproduces the state, including the out-of-order buffer.
//
// Layout of a durable directory:
//
//	wal-<firstLSN>.seg      log segments (16-byte header + records)
//	checkpoint-<lsn>.ckpt   core.Save snapshots covering LSNs <= lsn
//
// LSNs start at 1 and increase by one per appended record. A
// checkpoint file named for LSN n makes every record with LSN <= n
// redundant; checkpointing rotates the active segment and deletes
// segments that lie entirely below the oldest retained checkpoint, so
// the directory stays bounded by the checkpoint cadence. Recovery
// (see Recover) loads the newest readable checkpoint, replays the log
// tail, and truncates — rather than fails on — a torn final record.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histcube/internal/core"
	"histcube/internal/obs"
	"histcube/internal/retry"
)

// SegmentFile is the slice of *os.File the log needs from its active
// segment. It exists so tests (and the fault injector) can interpose
// on segment I/O via Options.WrapSegment without touching real files.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
}

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways makes a record durable before it is acknowledged:
	// Append returns, and Commit(lsn) returns, only once an fsync covers
	// the record. Concurrent commits share one fsync (group commit).
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS (and to rotation, checkpoint
	// and Close): fastest, weakest.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always" and "never" to a
// policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
	}
}

// String names the policy as ParseSyncPolicy spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// Options configures a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes; 0 selects 4 MiB.
	SegmentSize int64
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// KeepCheckpoints retains the newest N checkpoint files (log
	// segments are kept back to the oldest retained one, so recovery
	// can fall back past a corrupt checkpoint); 0 selects 2.
	KeepCheckpoints int
	// Metrics, when non-nil, receives append/fsync/checkpoint/replay
	// counters (see NewMetrics).
	Metrics *Metrics
	// Retry bounds the retry loop around segment writes; a zero value
	// selects retry.Default(). Transient write errors are absorbed
	// (after rolling back any torn partial write); permanent ones —
	// ENOSPC, retry.Permanent — surface immediately. fsync is never
	// retried: a failed fsync latches the log until the segment is
	// reopened on a fresh descriptor (see latchSyncFailureLocked).
	Retry retry.Policy
	// WrapSegment, when non-nil, wraps every active segment file the
	// log opens. Fault-injection tests use it to interpose torn writes
	// and I/O errors between the log and the filesystem.
	WrapSegment func(SegmentFile) SegmentFile
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	if o.Retry.Attempts == 0 {
		d := retry.Default()
		d.Sleep, d.Rand, d.OnRetry = o.Retry.Sleep, o.Retry.Rand, o.Retry.OnRetry
		o.Retry = d
	}
	if o.Retry.OnRetry == nil && o.Metrics != nil {
		m := o.Metrics
		o.Retry.OnRetry = func(string, int, error) { m.Retries.Inc() }
	}
	return o
}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an open write-ahead log positioned for appends. Construct one
// through Recover; all methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// syncMu elects the group-commit leader: Commit holds it across the
	// one fsync it runs outside mu, and every committer queued on it
	// behind the leader finds its LSN covered when its turn comes. Only
	// Commit takes it, always before mu (order syncMu -> mu), so a caller
	// that stages under its own lock never waits here while holding it.
	syncMu sync.Mutex

	mu        sync.Mutex
	f         SegmentFile // active segment; guarded by mu
	segFirst  uint64      // first LSN of the active segment; guarded by mu
	segBytes  int64       // bytes written to the active segment; guarded by mu
	segCount  int         // segment files on disk, including the active one; guarded by mu
	nextLSN   uint64      // guarded by mu
	sinceCkpt int64       // guarded by mu
	ckptLSN   uint64      // guarded by mu
	closed    bool        // guarded by mu
	buf       []byte      // encode scratch; guarded by mu

	// durableBytes/durableLSN record the active-segment length and last
	// LSN covered by a successful fsync. unsynced holds the framed bytes
	// written past durableBytes (len == segBytes-durableBytes): a
	// successful fsync drops what it covered, and the fsync-failure
	// repair rewrites the rest from here instead of trusting the page
	// cache. syncFailed latches an fsync error until
	// reopenAfterSyncFailureLocked re-establishes a durable baseline.
	// All guarded by mu.
	durableBytes int64
	durableLSN   uint64
	unsynced     []byte
	syncFailed   error

	// syncing is true while Commit's leader runs its fsync outside mu.
	// Everything that fsyncs or replaces the active descriptor under mu
	// (rotation, checkpoint, Sync, Close) first waits on syncIdle for it
	// to finish, so the leader's descriptor and segment stay put and at
	// most one fsync is ever in flight. Guarded by mu; syncIdle is a
	// condition on mu.
	syncing  bool
	syncIdle *sync.Cond

	// Replication state (see stream.go). shippedLSN is the shipping
	// frontier, the last LSN a Stream may deliver: the durable LSN under
	// SyncAlways, the last staged LSN otherwise. ring caches recently
	// staged records for catch-up reads; waiters holds channels closed
	// when the frontier advances to wake blocked Streams. All guarded by
	// mu.
	shippedLSN uint64
	ring       []streamRec
	waiters    []chan struct{}

	ckptNano atomic.Int64 // wall time of the last checkpoint, 0 before

	// bytesAppended counts record bytes appended since the log was
	// opened, unconditionally (unlike the optional Metrics counter).
	// Atomic so per-request tracing can delta it without taking mu.
	bytesAppended atomic.Int64
}

// AppendedBytes returns the record bytes appended since the log was
// opened. Request tracing reads it before and after a mutation to
// attribute WAL bytes to one op.
func (l *Log) AppendedBytes() int64 { return l.bytesAppended.Load() }

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }
func ckptName(lsn uint64) string  { return fmt.Sprintf("checkpoint-%016x.ckpt", lsn) }

// parseSeq extracts the hex sequence number from a segment or
// checkpoint file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	if _, err := fmt.Sscanf(mid, "%x", &v); err != nil || len(mid) == 0 {
		return 0, false
	}
	return v, true
}

type dirEntry struct {
	path string
	seq  uint64 // firstLSN for segments, covered LSN for checkpoints
}

func listDir(dir, prefix, suffix string) ([]dirEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []dirEntry
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, dirEntry{path: filepath.Join(dir, e.Name()), seq: seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

func listSegments(dir string) ([]dirEntry, error)    { return listDir(dir, "wal-", ".seg") }
func listCheckpoints(dir string) ([]dirEntry, error) { return listDir(dir, "checkpoint-", ".ckpt") }

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// wrapSeg applies Options.WrapSegment to a freshly opened segment.
func (l *Log) wrapSeg(f *os.File) SegmentFile {
	if l.opts.WrapSegment != nil {
		return l.opts.WrapSegment(f)
	}
	return f
}

// createSegment writes a fresh segment file whose records start at
// first, and makes its creation durable. Segments are opened with
// O_APPEND so that a write retried after a torn-write rollback
// (Truncate back to the last good length) lands at the truncated end
// rather than at a stale file offset, which would leave a zero hole.
func createSegment(dir string, first uint64) (*os.File, error) {
	path := filepath.Join(dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeSegHeader(first)); err != nil {
		_ = f.Close() // the write error is primary; the file is discarded
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// Append stages one op and commits it: under SyncAlways the record is
// durable when Append returns. It is Stage followed by Commit — when
// Commit fails the record stays staged at its LSN (it becomes durable
// with the next successful sync), so a caller that applies what it
// logs should call Stage, apply, then Commit, as histserve does.
func (l *Log) Append(op core.Op) (uint64, error) {
	lsn, err := l.Stage(op)
	if err != nil {
		return 0, err
	}
	if err := l.Commit(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// Stage writes one op to the active segment and returns its LSN,
// without fsyncing: the record is in the log's order but not yet
// durable, and under SyncAlways must not be acknowledged before
// Commit(lsn) returns nil. A failed Stage wrote nothing and assigned no
// LSN.
func (l *Log) Stage(op core.Op) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := int64(recordSize(op))
	// Repair and rotation replace the active descriptor. Rotation must
	// not pull it from under a group fsync in flight; waiting for that
	// releases mu, so every condition is re-evaluated afterwards.
	for {
		if l.closed {
			return 0, ErrClosed
		}
		if l.syncFailed != nil {
			if err := l.reopenAfterSyncFailureLocked(); err != nil {
				return 0, err
			}
		}
		if l.segBytes+size <= l.opts.SegmentSize || l.segBytes == segHeaderSize {
			break
		}
		if l.syncing {
			l.awaitSyncIdleLocked()
			continue
		}
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	rec, err := appendRecord(l.buf[:0], op)
	if err != nil {
		return 0, err
	}
	l.buf = rec
	if err := l.writeRecordLocked(rec); err != nil {
		return 0, err
	}
	l.segBytes += int64(len(rec))
	l.unsynced = append(l.unsynced, rec...)
	l.bytesAppended.Add(int64(len(rec)))
	lsn := l.nextLSN
	l.nextLSN++
	l.sinceCkpt++
	if m := l.opts.Metrics; m != nil {
		m.Appends.Inc()
		m.AppendedBytes.Add(int64(len(rec)))
	}
	l.ringPutLocked(lsn, op)
	if l.opts.Sync != SyncAlways {
		// No fsync stands between this record and its acknowledgement,
		// so it is shippable now; under SyncAlways the frontier follows
		// the durable LSN instead (publishDurableLocked).
		l.shippedLSN = lsn
		l.notifyWaitersLocked()
	}
	return lsn, nil
}

// Commit returns once the record staged at lsn is durable: the commit
// barrier behind every acknowledgement under SyncAlways (under
// SyncNever it returns nil at once — that policy acknowledges without
// an fsync). It is a group commit: the first committer in becomes the
// leader, fsyncs everything staged so far with mu released — other
// callers keep staging while the disk works — and publishes the new
// durable LSN; the committers queued on syncMu behind it then find
// themselves covered and return without a syscall. Rotation, checkpoint,
// Sync and Close make the log durable through its tail and so satisfy
// parked committers too. A failed fsync fails every committer it did
// not cover, until the repair in Stage succeeds.
func (l *Log) Commit(lsn uint64) error {
	if l.opts.Sync != SyncAlways || lsn == 0 {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	f, tail, bytes, err := l.beginGroupSync(lsn)
	if f == nil {
		return err
	}
	return l.endGroupSync(tail, bytes, f.Sync())
}

// beginGroupSync decides, under mu, whether the committer of lsn must
// lead an fsync. A nil file means no: err is then the commit's outcome
// (nil when lsn is already durable). Otherwise it marks the fsync as in
// flight and returns the descriptor to sync and the tail that sync will
// cover, for the caller to run with mu released.
func (l *Log) beginGroupSync(lsn uint64) (f SegmentFile, tail uint64, bytes int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.durableLSN >= lsn:
		return nil, 0, 0, nil
	case l.syncFailed != nil:
		return nil, 0, 0, l.latchedSyncErrLocked()
	case l.closed:
		return nil, 0, 0, ErrClosed
	case lsn >= l.nextLSN:
		return nil, 0, 0, fmt.Errorf("wal: commit of LSN %d, but the log ends at %d", lsn, l.nextLSN-1)
	}
	l.syncing = true
	return l.f, l.nextLSN - 1, l.segBytes, nil
}

// endGroupSync publishes the outcome of the leader's fsync and wakes
// whoever waited for the descriptor to fall idle.
func (l *Log) endGroupSync(tail uint64, bytes int64, syncErr error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	l.syncIdle.Broadcast()
	if syncErr != nil {
		return l.latchSyncFailureLocked(syncErr)
	}
	l.publishDurableLocked(tail, bytes)
	return nil
}

// writeRecordLocked writes one framed record to the active segment
// under the retry policy. A failed or short write leaves an
// unacknowledged partial frame at the segment tail; before every
// retry that tail is rolled back with Truncate to the last good
// length, so a retried append can never produce a duplicated or
// interleaved partial frame. A rollback that itself fails is marked
// permanent — the segment tail is in an unknown state and further
// blind writes would corrupt acknowledged history.
func (l *Log) writeRecordLocked(rec []byte) error {
	return l.opts.Retry.Do("wal.append", func() error {
		n, err := l.f.Write(rec)
		if err == nil && n < len(rec) {
			err = io.ErrShortWrite
		}
		if err == nil {
			return nil
		}
		if terr := l.f.Truncate(l.segBytes); terr != nil {
			return retry.Permanent(fmt.Errorf(
				"wal: truncating torn append failed: %w (after write error: %w)", terr, err))
		}
		return fmt.Errorf("wal: segment write: %w", err)
	})
}

// rotateLocked seals the active segment (sync + close) and opens a new
// one starting at the next LSN. The caller made sure no group fsync is
// in flight on the descriptor being closed.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := createSegment(l.dir, l.nextLSN)
	if err != nil {
		return err
	}
	l.f = l.wrapSeg(f)
	l.segFirst = l.nextLSN
	l.segBytes = segHeaderSize
	// The sync above covered the old segment's tail and createSegment
	// fsyncs the header, so the whole new baseline is durable.
	l.durableBytes = segHeaderSize
	l.segCount++
	if m := l.opts.Metrics; m != nil {
		m.Rotations.Inc()
	}
	return nil
}

// awaitSyncIdleLocked waits until no group fsync is in flight. The
// wait releases mu, so callers run it before reading the state they
// act on.
func (l *Log) awaitSyncIdleLocked() {
	for l.syncing {
		l.syncIdle.Wait()
	}
}

// syncLocked makes the log durable through its tail while holding mu —
// the fsync of rotation, checkpoint, Sync and Close, whose callers
// first waited out any group fsync in flight (awaitSyncIdleLocked).
// fsync runs exactly once and is never retried; see
// latchSyncFailureLocked.
func (l *Log) syncLocked() error {
	if l.syncFailed != nil {
		return l.latchedSyncErrLocked()
	}
	if l.segBytes == l.durableBytes {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.latchSyncFailureLocked(err)
	}
	l.publishDurableLocked(l.nextLSN-1, l.segBytes)
	return nil
}

// publishDurableLocked records a successful fsync that covered the
// active segment up to bytes, i.e. every record through lsn. Under
// SyncAlways this is also the moment those records become shippable:
// the frontier follows the durable LSN, so a follower can never hold a
// record this log could still lose.
func (l *Log) publishDurableLocked(lsn uint64, bytes int64) {
	covered := lsn - l.durableLSN
	l.unsynced = l.unsynced[:copy(l.unsynced, l.unsynced[bytes-l.durableBytes:])]
	l.durableLSN, l.durableBytes = lsn, bytes
	if m := l.opts.Metrics; m != nil {
		m.Fsyncs.Inc()
		m.CommitRecords.Observe(float64(covered))
	}
	if l.opts.Sync == SyncAlways && lsn > l.shippedLSN {
		l.shippedLSN = lsn
		l.notifyWaitersLocked()
	}
}

// latchSyncFailureLocked latches a failed fsync and returns it as a
// permanent error. After fsync reports an error, Linux marks the dirty
// pages clean without writing them, so a retried fsync on the same
// descriptor can return success for data that never reached disk;
// treating that success as durable would silently lose an acknowledged
// record on crash. The failure is instead latched: every commit, sync
// and stage fails fast (flipping the server read-only) until
// reopenAfterSyncFailureLocked re-establishes a durable baseline on a
// fresh descriptor.
func (l *Log) latchSyncFailureLocked(err error) error {
	l.syncFailed = err
	if m := l.opts.Metrics; m != nil {
		m.SyncFailures.Inc()
	}
	return l.latchedSyncErrLocked()
}

// latchedSyncErrLocked wraps the latched fsync failure as permanent so
// no retry layer above spends attempts on it.
func (l *Log) latchedSyncErrLocked() error {
	return retry.Permanent(fmt.Errorf(
		"wal: fsync failed, segment tail not durable until the segment is reopened: %w", l.syncFailed))
}

// reopenAfterSyncFailureLocked re-establishes a durable baseline after
// a latched fsync failure. The failed fsync left the unsynced tail's
// pages clean-but-unwritten, so neither a later fsync on the old
// descriptor nor the tail's bytes in the page cache can be trusted. The
// records of that tail may already be applied in memory (they were
// staged, then applied, and only their commit failed), so they are
// never rolled back and their LSNs are never reused: the segment is
// reopened on a fresh descriptor, cut back to the last known-durable
// offset, the staged records are rewritten from memory at their
// original LSNs, and one fsync proves the device accepts writes again.
// Their clients were told ERR, so they resolve as "applied" — the
// outcome an unacknowledged write is always allowed to have. A crash
// mid-repair loses at most those never-acknowledged records (under
// SyncNever: the window that policy accepts).
// Any failure here keeps the latch, so callers stay degraded until a
// later Stage retries the repair from the top. No group fsync can be in
// flight: one that fails sets the latch only after it finished, and
// none starts while the latch is set.
func (l *Log) reopenAfterSyncFailureLocked() error {
	// The old descriptor may re-report the writeback error on close;
	// the fresh descriptor's fsync below is the arbiter.
	_ = l.f.Close()
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.segFirst)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return retry.Permanent(fmt.Errorf("wal: reopening segment after fsync failure: %w", err))
	}
	nf := l.wrapSeg(f)
	err = nf.Truncate(l.durableBytes)
	if err == nil && len(l.unsynced) > 0 {
		_, err = nf.Write(l.unsynced)
	}
	if err == nil {
		err = nf.Sync()
	}
	if err != nil {
		_ = nf.Close()
		return retry.Permanent(fmt.Errorf("wal: rewriting the unsynced tail after fsync failure: %w", err))
	}
	l.f = nf
	l.syncFailed = nil
	l.publishDurableLocked(l.nextLSN-1, l.segBytes)
	return nil
}

// Sync forces staged records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncIdleLocked()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// Close flushes, fsyncs and closes the log. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncIdleLocked()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	l.notifyWaitersLocked() // blocked Streams wake and observe closed
	return err
}

// Dir returns the durable directory.
func (l *Log) Dir() string { return l.dir }

// LastLSN returns the LSN of the most recently staged record (0 before
// the first), durable or not.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SinceCheckpoint returns the number of records appended since the
// last checkpoint (or since recovery).
func (l *Log) SinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// Segments returns the number of segment files, including the active
// one.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segCount
}

// RegisterStateMetricsFunc registers gauges derived from the log's
// state: segment count, last LSN, records since the last checkpoint,
// and the age of the last checkpoint (-1 before the first). The gauge
// callbacks take the log's mutex at scrape time. The log is read
// through get at every scrape, so a caller that replaces its log at
// runtime (a replica re-recovering after installing a shipped
// snapshot) has the gauges follow the swap instead of pinning the
// first log. get may return nil; the gauges then report zeros (and -1
// for the checkpoint age).
func RegisterStateMetricsFunc(reg *obs.Registry, get func() *Log) {
	reg.NewGaugeFunc("histcube_wal_segments",
		"WAL segment files on disk, including the active one.",
		func() float64 {
			if l := get(); l != nil {
				return float64(l.Segments())
			}
			return 0
		})
	reg.NewGaugeFunc("histcube_wal_last_lsn",
		"LSN of the most recently appended WAL record.",
		func() float64 {
			if l := get(); l != nil {
				return float64(l.LastLSN())
			}
			return 0
		})
	reg.NewGaugeFunc("histcube_wal_records_since_checkpoint",
		"Records appended since the last checkpoint.",
		func() float64 {
			if l := get(); l != nil {
				return float64(l.SinceCheckpoint())
			}
			return 0
		})
	reg.NewGaugeFunc("histcube_wal_checkpoint_age_seconds",
		"Seconds since the last checkpoint completed; -1 before the first.",
		func() float64 {
			l := get()
			if l == nil {
				return -1
			}
			ns := l.ckptNano.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}
