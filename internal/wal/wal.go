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
// A segment is created at its full Options.SegmentSize as a sparse file
// and written in place, so a commit never grows the file and its fsync
// carries only the record bytes. Its records therefore end at the first
// all-zero frame, not at the file's size. Rotation cuts a sealed
// segment back to its records; only the active one stays sparse.
//
// An op enters the log in one of two ways. Apply is log-then-apply:
// it stages the op's record — frames it in memory in log order and
// assigns its LSN — then folds the op into the cube, so the cube never
// holds an op the log lacks. Append stages a record without a cube.
// Either way Commit then writes everything staged with one write(2)
// and, under SyncAlways, one fsync, outside every lock its callers
// stage under. A failed write or fsync is not retried: it latches the
// log, and the next staging or Sync repairs it by rewriting the staged
// tail on a fresh descriptor.
//
// LSNs start at 1 and increase by one per appended record. A
// checkpoint file named for LSN n makes every record with LSN <= n
// redundant; checkpointing rotates the active segment and deletes
// segments that lie entirely below the oldest retained checkpoint, so
// the directory stays bounded by the checkpoint cadence. Recovery
// (see Recover) loads the newest readable checkpoint, replays the log
// tail, and truncates — rather than fails on — a torn final record.
// The newest checkpoint is also what a replication subscriber behind
// the retention horizon is sent (OpenCheckpoint), and Rebase is how a
// follower's open log adopts such a snapshot as its whole history.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histcube/internal/core"
	"histcube/internal/obs"
)

// SegmentFile is the slice of *os.File the log needs from its active
// segment. It exists so tests (and the fault injector) can interpose
// on segment I/O via Options.WrapSegment without touching real files.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
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
	// SegmentSize is the rotation threshold in bytes, and the size every
	// segment is created at (a sparse file); 0 selects 4 MiB.
	SegmentSize int64
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// Metrics, when non-nil, receives append/fsync/checkpoint/replay
	// counters (see NewMetrics).
	Metrics *Metrics
	// WrapSegment, when non-nil, wraps every active segment file the
	// log opens. Fault-injection tests use it to interpose torn writes
	// and I/O errors between the log and the filesystem.
	WrapSegment func(SegmentFile) SegmentFile
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
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
	// write and fsync it runs outside mu, and every committer queued on it
	// behind the leader finds its LSN covered when its turn comes. Only
	// Commit takes it, always before mu (order syncMu -> mu), so a caller
	// that stages under its own lock never waits here while holding it.
	syncMu sync.Mutex

	mu        sync.Mutex
	f         SegmentFile // active segment; guarded by mu
	segFirst  uint64      // first LSN of the active segment; guarded by mu
	segBytes  int64       // bytes framed into the active segment, staged ones included; guarded by mu
	segCount  int         // segment files on disk, including the active one; guarded by mu
	nextLSN   uint64      // guarded by mu
	sinceCkpt int64       // guarded by mu
	ckptLSN   uint64      // guarded by mu
	closed    bool        // guarded by mu
	rebases   uint64      // Rebase calls so far, so a Stream can tell its history was replaced; guarded by mu

	// The active segment's offsets ascend durableBytes <= writtenBytes <=
	// segBytes: fsynced, written, staged. durableLSN is the last LSN an
	// fsync covered. unsynced holds the framed bytes past durableBytes
	// (len == segBytes-durableBytes): stage appends to it, the commit
	// leader writes its unwritten suffix, a successful fsync drops what it
	// covered, and the repair after a failed write or fsync rewrites the
	// rest from here instead of trusting the page cache. syncFailed
	// latches that failure until reopenAfterSyncFailureLocked
	// re-establishes a durable baseline. All guarded by mu.
	durableBytes int64
	writtenBytes int64
	durableLSN   uint64
	unsynced     []byte
	syncFailed   error

	// syncing is true while Commit's leader writes and fsyncs outside mu.
	// Everything that fsyncs or replaces the active descriptor under mu
	// (rotation, checkpoint, Sync, Close) first waits on syncIdle for it
	// to finish, so the leader's descriptor and segment stay put and at
	// most one fsync is ever in flight. Guarded by mu; syncIdle is a
	// condition on mu.
	syncing  bool
	syncIdle *sync.Cond

	// Replication state (see stream.go). shippedLSN is the shipping
	// frontier, the last LSN a Stream may deliver: the durable LSN under
	// SyncAlways, the last written LSN otherwise, and so also the commit
	// frontier Commit waits for. ring caches recently staged records for
	// catch-up reads; waiters holds channels closed when the frontier
	// advances to wake blocked Streams. All guarded by mu.
	shippedLSN uint64
	ring       []streamRec
	waiters    []chan struct{}

	ckptNano atomic.Int64 // wall time of the last checkpoint, 0 before

	// bytesAppended counts record bytes appended since the log was
	// opened. Atomic so /metrics can scrape it without taking mu.
	bytesAppended atomic.Int64
}

// AppendedBytes returns the record bytes appended since the log was
// opened.
func (l *Log) AppendedBytes() int64 { return l.bytesAppended.Load() }

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }
func ckptName(lsn uint64) string  { return fmt.Sprintf("checkpoint-%016x.ckpt", lsn) }

// parseSeq extracts the hex sequence number from a segment or
// checkpoint file name. Only the exact name segName or ckptName writes
// for that number is accepted: a copy such as "wal-<seq> (copy).seg"
// or a short form such as "wal-1.seg" is not the log's own file.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil && name == fmt.Sprintf("%s%016x%s", prefix, v, suffix)
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
// first, extends it to size, and makes its creation durable. The file
// is created at its full size so that a commit, which writes at the
// descriptor's offset, never grows it: its fsync then carries the record
// bytes and no new file size. The extension is sparse (ftruncate, not
// fallocate): it reserves no blocks, and a reader finds the records' end
// at the first all-zero frame.
func createSegment(dir string, first uint64, size int64) (*os.File, error) {
	path := filepath.Join(dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeSegHeader(first)); err != nil {
		_ = f.Close() // the write error is primary; the file is discarded
		return nil, err
	}
	if err := f.Truncate(max(size, segHeaderSize)); err != nil {
		_ = f.Close()
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

// openSegment opens an existing segment file for writes at off: every
// write goes through the descriptor's offset, which the log keeps equal
// to writtenBytes.
func openSegment(path string, off int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// Append stages one op and commits it: under SyncAlways the record is
// durable when Append returns. When Commit fails the record stays
// staged at its LSN (the repair after the failure makes it durable), so
// a caller that applies what it logs calls Apply, then Commit, as
// histserve does.
func (l *Log) Append(op core.Op) (uint64, error) {
	lsn, err := l.stage(op)
	if err != nil {
		return 0, err
	}
	if err := l.Commit(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// stage frames one op into the log's in-memory tail and returns its
// LSN, without writing it: the record must not be acknowledged before
// Commit(lsn) returns nil. A failed stage assigned no LSN, so its op must
// not be applied. Only its repair of a latched log and rotation touch
// the disk.
func (l *Log) stage(op core.Op) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := int64(recordSize(op))
	// Repair and rotation replace the active descriptor. Rotation must
	// not pull it from under a group commit in flight; waiting for that
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
	framed := len(l.unsynced)
	var err error
	if l.unsynced, err = appendRecord(l.unsynced, op); err != nil {
		return 0, err
	}
	n := int64(len(l.unsynced) - framed)
	l.segBytes += n
	l.bytesAppended.Add(n)
	lsn := l.nextLSN
	l.nextLSN++
	l.sinceCkpt++
	if m := l.opts.Metrics; m != nil {
		m.Appends.Inc()
	}
	l.ringPutLocked(lsn, op)
	return lsn, nil
}

// errLeaderPanicked is what a commit leader that panicked latches.
var errLeaderPanicked = errors.New("wal: commit leader panicked")

// Commit returns once the record staged at lsn is written and, under
// SyncAlways, durable: the barrier behind every acknowledgement. A
// covered record returns at once, queueing behind no leader. Otherwise
// it is a group commit: the first committer in leads, writing everything
// staged so far with one write(2) (and one fsync under SyncAlways) with
// mu released, then publishes the new frontier; committers queued on
// syncMu behind it find themselves covered. Rotation, checkpoint, Sync
// and Close write and fsync the tail too, satisfying parked committers.
// A failed or panicking write or fsync latches the log and fails every
// committer it did not cover until a repair (staging, Sync) succeeds;
// the records it did not cover keep their LSNs.
func (l *Log) Commit(lsn uint64) (err error) {
	if lsn == 0 || l.ShippedLSN() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	g, err := l.beginGroupCommit(lsn)
	if g.f == nil {
		return err
	}
	// However the leader's turn ends, it ends under mu: syncing is
	// cleared and anything but success latches the log.
	err = errLeaderPanicked
	defer func() { err = l.endGroupCommit(g, err) }()
	err = flush(g.f, g.pending, l.opts.Sync == SyncAlways)
	return err
}

// groupCommit is one leader's turn: the staged bytes it writes to f,
// and the segment length and last LSN they end at.
type groupCommit struct {
	f       SegmentFile
	pending []byte
	bytes   int64
	tail    uint64
}

// beginGroupCommit decides, under mu, whether the committer of lsn must
// lead a commit. A nil file means no: err is then the commit's outcome.
// Otherwise it marks the commit in flight and returns what the caller
// writes with mu released; staging only appends past pending's end
// meanwhile, so pending needs no copy.
func (l *Log) beginGroupCommit(lsn uint64) (g groupCommit, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.shippedLSN >= lsn:
		return g, nil
	case l.syncFailed != nil:
		return g, l.latchedSyncErrLocked()
	case l.closed:
		return g, ErrClosed
	case lsn >= l.nextLSN:
		return g, fmt.Errorf("wal: commit of LSN %d, but the log ends at %d", lsn, l.nextLSN-1)
	}
	l.syncing = true
	return groupCommit{l.f, l.unsynced[l.writtenBytes-l.durableBytes:], l.segBytes, l.nextLSN - 1}, nil
}

// endGroupCommit publishes the outcome of the leader's write and fsync
// and wakes whoever waited for the descriptor to fall idle.
func (l *Log) endGroupCommit(g groupCommit, err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	l.syncIdle.Broadcast()
	if err != nil {
		return l.latchSyncFailureLocked(err)
	}
	l.publishLocked(g.tail, g.bytes, l.opts.Sync == SyncAlways)
	return nil
}

// flush writes pending, the staged bytes not yet written to segment f,
// with one write, then fsyncs f when sync is set. Neither is retried:
// os.File.Write already resumes after EINTR and short counts, so what
// reaches here is an I/O or out-of-space error, and the descriptor that
// reported it is not trusted again. The caller latches any error, and
// the repair rewrites the whole unsynced tail on a fresh descriptor, a
// torn partial frame included.
func flush(f SegmentFile, pending []byte, sync bool) error {
	if len(pending) > 0 {
		n, err := f.Write(pending)
		if err == nil && n < len(pending) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return fmt.Errorf("wal: segment write: %w", err)
		}
	}
	if sync {
		return f.Sync()
	}
	return nil
}

// rotateLocked seals the active segment (sync + close + cut to its
// records) and opens a new one starting at the next LSN. The caller made
// sure no group fsync is in flight on the descriptor being closed.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	// Cut the sealed segment back to its records, so history on disk is
	// no larger than its records. Best effort: a zero tail left behind
	// reads as the same end.
	_ = os.Truncate(filepath.Join(l.dir, segName(l.segFirst)), l.segBytes)
	// The sync above covered the old segment's tail.
	if err := l.startSegmentLocked(l.nextLSN); err != nil {
		return err
	}
	if m := l.opts.Metrics; m != nil {
		m.Rotations.Inc()
	}
	return nil
}

// startSegmentLocked creates the segment whose records start at first
// and makes it the active one. createSegment fsyncs its header, so the
// new segment's whole baseline is durable.
func (l *Log) startSegmentLocked(first uint64) error {
	f, err := createSegment(l.dir, first, l.opts.SegmentSize)
	if err != nil {
		return err
	}
	l.f = l.wrapSeg(f)
	l.segFirst = first
	l.segBytes, l.durableBytes, l.writtenBytes = segHeaderSize, segHeaderSize, segHeaderSize
	l.segCount++
	return nil
}

// awaitSyncIdleLocked waits until no group commit is in flight. The
// wait releases mu, so callers run it before reading the state they
// act on.
func (l *Log) awaitSyncIdleLocked() {
	for l.syncing {
		l.syncIdle.Wait()
	}
}

// syncLocked writes and fsyncs the log through its tail while holding
// mu — the commit of rotation, checkpoint, Sync and Close, whose callers
// first waited out any group commit in flight (awaitSyncIdleLocked).
func (l *Log) syncLocked() error {
	if l.syncFailed != nil {
		return l.latchedSyncErrLocked()
	}
	if l.segBytes == l.durableBytes {
		return nil
	}
	if err := flush(l.f, l.unsynced[l.writtenBytes-l.durableBytes:], true); err != nil {
		return l.latchSyncFailureLocked(err)
	}
	l.publishLocked(l.nextLSN-1, l.segBytes, true)
	return nil
}

// publishLocked records a successful write of the active segment up to
// bytes, i.e. of every record through lsn, and when synced its fsync.
// The shipping frontier follows: under SyncAlways the durable LSN, so a
// follower can never hold a record this log could still lose; under
// SyncNever the written LSN, so a Stream never reads past what the
// segment holds.
func (l *Log) publishLocked(lsn uint64, bytes int64, synced bool) {
	l.writtenBytes = bytes
	if synced {
		covered := lsn - l.durableLSN
		l.unsynced = l.unsynced[:copy(l.unsynced, l.unsynced[bytes-l.durableBytes:])]
		l.durableLSN, l.durableBytes = lsn, bytes
		if m := l.opts.Metrics; m != nil {
			m.Fsyncs.Inc()
			m.CommitRecords.Observe(float64(covered))
		}
	}
	if (synced || l.opts.Sync != SyncAlways) && lsn > l.shippedLSN {
		l.shippedLSN = lsn
		l.notifyWaitersLocked()
	}
}

// latchSyncFailureLocked latches a failed write or fsync and returns it.
// A failed write left the segment tail short of what was staged and
// possibly applied, perhaps with a torn partial frame. After fsync
// reports an error, Linux marks the dirty pages clean without writing
// them, so a retried fsync on the same descriptor can return success
// for data that never reached disk;
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

// latchedSyncErrLocked wraps the latched failure, which stays
// reachable through errors.Is.
func (l *Log) latchedSyncErrLocked() error {
	return fmt.Errorf("wal: write or fsync failed, segment tail not durable until the segment is reopened: %w", l.syncFailed)
}

// reopenAfterSyncFailureLocked re-establishes a durable baseline after
// a latched write or fsync failure. A failed fsync left the unsynced
// tail's pages clean-but-unwritten, and a failed write left the tail
// short, so neither a later fsync on the old descriptor nor the tail's
// bytes in the page cache can be trusted. The records of that tail may
// already be applied in memory (they were staged, then applied, and
// only their commit failed), so they are
// never rolled back and their LSNs are never reused: the segment is
// reopened on a fresh descriptor positioned at the last known-durable
// offset, the staged records are rewritten from memory at their
// original LSNs, and one fsync proves the device accepts writes again.
// Nothing needs cutting first: a failed write never wrote past segBytes,
// and the rewrite covers everything up to it.
// Their clients were told ERR, so they resolve as "applied" — the
// outcome an unacknowledged write is always allowed to have. A crash
// mid-repair loses at most those never-acknowledged records (under
// SyncNever: the window that policy accepts).
// Any failure here keeps the latch, so callers stay degraded until a
// later staging or Sync retries the repair from the top. No group commit can be
// in flight: one that fails sets the latch only after it finished, and
// none starts while the latch is set.
func (l *Log) reopenAfterSyncFailureLocked() error {
	// The old descriptor may re-report the writeback error on close;
	// the fresh descriptor's fsync below is the arbiter.
	_ = l.f.Close()
	f, err := openSegment(filepath.Join(l.dir, segName(l.segFirst)), l.durableBytes)
	if err != nil {
		return fmt.Errorf("wal: reopening segment after a failed write or fsync: %w", err)
	}
	nf := l.wrapSeg(f)
	if len(l.unsynced) > 0 {
		_, err = nf.Write(l.unsynced)
	}
	if err == nil {
		err = nf.Sync()
	}
	if err != nil {
		_ = nf.Close()
		return fmt.Errorf("wal: rewriting the unsynced tail after a failed write or fsync: %w", err)
	}
	l.f = nf
	l.syncFailed = nil
	l.publishLocked(l.nextLSN-1, l.segBytes, true)
	return nil
}

// Sync writes and fsyncs every staged record, first repairing a log
// that a failed or panicked write or fsync latched. A follower runs it
// before it re-subscribes past records it applied but could not commit.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncIdleLocked()
	if l.closed {
		return nil
	}
	if l.syncFailed != nil {
		if err := l.reopenAfterSyncFailureLocked(); err != nil {
			return err
		}
	}
	return l.syncLocked()
}

// Close writes, fsyncs and closes the log. Further appends fail with
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

// RegisterStateMetrics registers series read from l's state: the bytes
// appended, and gauges of the segment count, records since the last
// checkpoint, and the age of the last checkpoint (-1 before the first).
// The gauge callbacks take the log's mutex at scrape time.
func RegisterStateMetrics(reg *obs.Registry, l *Log) {
	reg.NewCounterFunc("histcube_wal_appended_bytes_total",
		"Bytes appended to the write-ahead log.", l.AppendedBytes)
	reg.NewGaugeFunc("histcube_wal_segments",
		"WAL segment files on disk, including the active one.",
		func() float64 { return float64(l.Segments()) })
	reg.NewGaugeFunc("histcube_wal_records_since_checkpoint",
		"Records appended since the last checkpoint.",
		func() float64 { return float64(l.SinceCheckpoint()) })
	reg.NewGaugeFunc("histcube_wal_checkpoint_age_seconds",
		"Seconds since the last checkpoint completed; -1 before the first.",
		func() float64 {
			ns := l.ckptNano.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}
