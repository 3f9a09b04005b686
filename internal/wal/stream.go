package wal

// Streaming reader for replication (the primary side of WAL shipping).
//
// A Stream is a cursor over the log's record sequence: catch-up reads
// come from an in-memory ring of recently appended records or, when
// the follower is further behind, from the on-disk segments; once the
// cursor reaches the shipping frontier it blocks on an append-signalled
// channel, so a caught-up follower receives each record with no
// polling. The paper's append-only contract (Sec. 2.2 — cube state is
// a deterministic function of the linear op stream) is what makes this
// sufficient: shipping the op stream IS shipping the state.
//
// Shipping frontier: a Stream never delivers a record beyond
// shippedLSN. Under SyncAlways the frontier is the durable LSN — it
// advances when an fsync completes (publishLocked), not when a record
// is staged — so a follower can never hold a record this log could
// still lose in a crash. A staged record is never rolled back either:
// the fsync-failure repair (reopenAfterSyncFailureLocked) rewrites the
// unsynced tail at its original LSNs, so an LSN is never reused for a
// different op, shipped or not. Under SyncNever no fsync stands between
// a record and its acknowledgement, and the frontier is the last written
// LSN: a record staged but not yet written by Commit is not in its
// segment, and a disk catch-up read must not miss it. Either way an
// acknowledged write is shippable, and a shipped write is as durable as
// an acknowledged one.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"histcube/internal/core"
)

// ErrTruncated reports that the requested position precedes the oldest
// record still on disk: checkpointing pruned the segments behind it,
// so the subscriber must bootstrap from a snapshot instead.
var ErrTruncated = errors.New("wal: requested LSN precedes the oldest retained record (bootstrap from a snapshot)")

// ErrFutureLSN reports a subscription beyond the log's end — the
// subscriber claims to hold records this log never appended, which on
// a replication link means the follower diverged from this primary.
var ErrFutureLSN = errors.New("wal: requested LSN is beyond the end of the log (follower ahead of primary)")

// ringSize is the capacity of the recent-record ring serving catch-up
// reads without touching disk; a power of two so lsn%ringSize is cheap.
const ringSize = 1024

// streamRec is one ring slot; lsn disambiguates stale slots after the
// ring wraps.
type streamRec struct {
	lsn uint64
	op  core.Op
}

// StreamRecord is one shipped record with its LSN.
type StreamRecord struct {
	LSN uint64
	Op  core.Op
}

// ringPutLocked records a freshly staged record in the ring (Next
// serves it only once the frontier reaches it). The caller holds mu. Coords are copied: the ring outlives the request
// that owned the slice.
func (l *Log) ringPutLocked(lsn uint64, op core.Op) {
	if l.ring == nil {
		l.ring = make([]streamRec, ringSize)
	}
	cp := op
	cp.Coords = append([]int(nil), op.Coords...)
	l.ring[lsn%ringSize] = streamRec{lsn: lsn, op: cp}
}

// ringGetLocked serves one record from the ring, if it still holds the
// requested LSN. The caller holds mu.
func (l *Log) ringGetLocked(lsn uint64) (core.Op, bool) {
	if l.ring == nil {
		return core.Op{}, false
	}
	e := l.ring[lsn%ringSize]
	if e.lsn != lsn {
		return core.Op{}, false
	}
	return e.op, true
}

// notifyWaitersLocked wakes every blocked Stream. The caller holds mu.
func (l *Log) notifyWaitersLocked() {
	for _, ch := range l.waiters {
		close(ch)
	}
	l.waiters = nil
}

// ShippedLSN returns the shipping frontier: the newest LSN a Stream
// may deliver (durable under SyncAlways, written otherwise).
func (l *Log) ShippedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shippedLSN
}

// OldestLSN returns the LSN of the oldest record still readable from
// the retained segments (nextLSN when the log holds no records — a
// fresh directory, or everything checkpointed and pruned). A follower
// must subscribe at or above it, or bootstrap from a snapshot.
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestLSNLocked()
}

func (l *Log) oldestLSNLocked() uint64 {
	segs, err := listSegments(l.dir)
	if err != nil || len(segs) == 0 {
		return l.nextLSN
	}
	return segs[0].seq
}

// Stream is a subscription cursor positioned before one LSN. Not safe
// for concurrent use; one replication connection owns one Stream.
type Stream struct {
	log     *Log
	next    uint64
	rebases uint64         // the log's Rebase count at subscription
	buf     []StreamRecord // disk catch-up read-ahead
}

// SubscribeFrom opens a Stream whose first record will be LSN from.
// It fails with ErrTruncated when from precedes the oldest retained
// record (the subscriber needs a snapshot first) and with ErrFutureLSN
// when from is beyond the next LSN this log will assign.
func (l *Log) SubscribeFrom(from uint64) (*Stream, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if from == 0 {
		from = 1
	}
	if oldest := l.oldestLSNLocked(); from < oldest {
		return nil, fmt.Errorf("%w: want LSN %d, oldest retained is %d", ErrTruncated, from, oldest)
	}
	if from > l.shippedLSN+1 {
		return nil, fmt.Errorf("%w: want LSN %d, log ends at %d", ErrFutureLSN, from, l.shippedLSN)
	}
	return &Stream{log: l, next: from, rebases: l.rebases}, nil
}

// Next returns the record at the cursor, blocking until one is
// shippable, the ctx ends, or the log closes. Callers that need a
// keepalive cadence drain with TryNext and wrap ctx with a timeout only
// for the call that has to block.
func (s *Stream) Next(ctx context.Context) (StreamRecord, error) {
	for {
		rec, ok, wake, err := s.poll(true)
		if ok || err != nil {
			return rec, err
		}
		select {
		case <-ctx.Done():
			l := s.log
			l.mu.Lock()
			for i, w := range l.waiters {
				if w == wake {
					l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
					break
				}
			}
			l.mu.Unlock()
			return StreamRecord{}, ctx.Err()
		case <-wake:
		}
	}
}

// TryNext returns the record at the cursor when one is shippable now,
// and ok=false instead of blocking when the cursor is at the frontier —
// the point at which a shipping loop flushes what it has written.
func (s *Stream) TryNext() (rec StreamRecord, ok bool, err error) {
	rec, ok, _, err = s.poll(false)
	return rec, ok, err
}

// poll advances the cursor by one record if it can. At the frontier it
// returns ok=false and, when wait is set, a channel registered under
// the same lock hold as the frontier check (so no advance is missed)
// that the next advance closes.
func (s *Stream) poll(wait bool) (rec StreamRecord, ok bool, wake chan struct{}, err error) {
	emptyFills := 0
	for {
		if len(s.buf) > 0 {
			rec := s.buf[0]
			s.buf = s.buf[1:]
			s.next = rec.LSN + 1
			return rec, true, nil, nil
		}
		l := s.log
		l.mu.Lock()
		// A Rebase replaced the history this cursor was reading.
		if rebased := s.rebases != l.rebases; rebased || s.next > l.shippedLSN {
			if l.closed || rebased {
				err = ErrClosed
			} else if wait {
				wake = make(chan struct{})
				l.waiters = append(l.waiters, wake)
			}
			l.mu.Unlock()
			return StreamRecord{}, false, wake, err
		}
		if op, ok := l.ringGetLocked(s.next); ok {
			rec := StreamRecord{LSN: s.next, Op: op}
			s.next++
			l.mu.Unlock()
			return rec, true, nil, nil
		}
		shipped := l.shippedLSN
		l.mu.Unlock()
		n, err := s.fillFromDisk(shipped)
		if err != nil {
			return StreamRecord{}, false, nil, err
		}
		if n == 0 {
			// A checkpoint pruning segments under the read; re-resolve.
			if emptyFills++; emptyFills > 5 {
				return StreamRecord{}, false, nil, fmt.Errorf("wal: stream stuck reading LSN %d", s.next)
			}
		}
	}
}

// fillFromDisk reads the segment containing the cursor and buffers
// every record in [s.next, shipped] it holds. Reads run without mu,
// while a commit may be writing the active segment past shipped: in a
// segment created at its full size such a read can see zeros with newer
// bytes after them, so it parses through shipped and never classifies
// what lies past it. Records through shipped are written and never
// change, so the only race is pruning, which surfaces as ENOENT and is
// retried by the caller (or reported as ErrTruncated when the cursor
// really fell behind the retention horizon).
func (s *Stream) fillFromDisk(shipped uint64) (int, error) {
	segs, err := listSegments(s.log.dir)
	if err != nil {
		return 0, err
	}
	idx := -1
	for i, sg := range segs {
		if sg.seq <= s.next {
			idx = i
		} else {
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("%w: want LSN %d", ErrTruncated, s.next)
	}
	first, ops, _, _, err := readSegment(segs[idx].path, shipped)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if oldest := s.log.OldestLSN(); s.next < oldest {
				return 0, fmt.Errorf("%w: want LSN %d, oldest retained is %d", ErrTruncated, s.next, oldest)
			}
			return 0, nil // pruned mid-read but the cursor is still covered; retry
		}
		return 0, err
	}
	for j, op := range ops {
		lsn := first + uint64(j)
		if lsn < s.next || lsn > shipped {
			continue
		}
		s.buf = append(s.buf, StreamRecord{LSN: lsn, Op: op})
	}
	return len(s.buf), nil
}
