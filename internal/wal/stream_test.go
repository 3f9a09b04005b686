package wal

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"histcube/internal/core"
)

// streamAll drains a stream up to lsn hi, with a deadline so a stuck
// stream fails instead of hanging the test.
func streamAll(t *testing.T, s *Stream, hi uint64) []StreamRecord {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var recs []StreamRecord
	for uint64(len(recs)) == 0 || recs[len(recs)-1].LSN < hi {
		rec, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v (got %d records)", err, len(recs))
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestStreamCatchUpFromDiskAndRing(t *testing.T) {
	dir := t.TempDir()
	cube := newTestCube(t)
	_, l, _, err := Recover(dir, Options{Sync: SyncNever, SegmentSize: 256}, func() (*core.Cube, error) { return cube, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ops := randomOps(rand.New(rand.NewSource(7)), 200)
	run(t, cube, l, ops)

	s, err := l.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	recs := streamAll(t, s, uint64(len(ops)))
	if len(recs) != len(ops) {
		t.Fatalf("streamed %d records, appended %d", len(recs), len(ops))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
		want := ops[i]
		got := rec.Op
		if got.Kind != want.Kind || got.Time != want.Time || got.Value != want.Value {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		for d := range want.Coords {
			if got.Coords[d] != want.Coords[d] {
				t.Fatalf("record %d coords: got %v want %v", i, got.Coords, want.Coords)
			}
		}
	}
}

func TestStreamBlocksUntilAppend(t *testing.T) {
	dir := t.TempDir()
	cube := newTestCube(t)
	_, l, _, err := Recover(dir, Options{Sync: SyncNever}, func() (*core.Cube, error) { return cube, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	s, err := l.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}

	// Nothing appended yet: Next must respect the ctx deadline...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, nerr := s.Next(ctx)
	cancel()
	if !errors.Is(nerr, context.DeadlineExceeded) {
		t.Fatalf("Next on empty log: %v, want deadline exceeded", nerr)
	}

	// ...and a concurrent append must wake a blocked Next.
	go func() {
		time.Sleep(30 * time.Millisecond)
		if _, err := l.Append(core.Op{Kind: core.OpInsert, Time: 1, Coords: []int{1, 1}, Value: 2}); err != nil {
			t.Error(err)
		}
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rec, err := s.Next(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 1 || rec.Op.Value != 2 {
		t.Fatalf("got %+v", rec)
	}

	// A timed-out waiter must be removed from the wait list, or idle
	// keepalive polling would grow it without bound.
	ctx3, cancel3 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, _ = s.Next(ctx3)
	cancel3()
	l.mu.Lock()
	waiters := len(l.waiters)
	l.mu.Unlock()
	if waiters != 0 {
		t.Fatalf("%d waiters left registered after ctx timeout", waiters)
	}
}

// TestStreamTryNextDrainsWithoutBlocking pins the shipping loop's
// drain: TryNext hands out what is shippable and at the frontier
// reports ok=false, without registering a waiter, instead of blocking; under SyncAlways the frontier is the
// durable LSN, so a group commit publishes its whole batch at once.
func TestStreamTryNextDrainsWithoutBlocking(t *testing.T) {
	cube := newTestCube(t)
	_, l, _, err := Recover(t.TempDir(), Options{Sync: SyncAlways}, func() (*core.Cube, error) { return cube, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := l.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 40
	var last uint64
	for i := 0; i < k; i++ {
		if last, err = l.stage(core.Op{Kind: core.OpInsert, Time: int64(i), Coords: []int{1, 1}, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.TryNext(); ok || err != nil {
		t.Fatalf("TryNext over staged, not yet durable records = %v, %v; want nothing shippable", ok, err)
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= k; want++ {
		rec, ok, err := s.TryNext()
		if !ok || err != nil || rec.LSN != want {
			t.Fatalf("TryNext = LSN %d, %v, %v; want LSN %d", rec.LSN, ok, err, want)
		}
	}
	if _, ok, err := s.TryNext(); ok || err != nil {
		t.Fatalf("TryNext at the frontier = %v, %v; want ok=false", ok, err)
	}
	l.mu.Lock()
	waiters := len(l.waiters)
	l.mu.Unlock()
	if waiters != 0 {
		t.Fatalf("TryNext registered %d waiters", waiters)
	}
}

// TestSyncNeverFrontierFollowsTheWrite stages more records than the
// ring holds and commits them once under SyncNever. Until that Commit
// nothing is written, so nothing is shippable; after it a Stream from
// LSN 1 must read the records that fell out of the ring from disk.
func TestSyncNeverFrontierFollowsTheWrite(t *testing.T) {
	cube := newTestCube(t)
	_, l, _, err := Recover(t.TempDir(), Options{Sync: SyncNever}, func() (*core.Cube, error) { return cube, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const k = ringSize + 100
	var last uint64
	for i := 0; i < k; i++ {
		if last, err = l.stage(core.Op{Kind: core.OpInsert, Time: int64(i), Coords: []int{1, 1}, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if got := l.ShippedLSN(); got != 0 {
			t.Fatalf("shipping frontier = %d after staging LSN %d, want 0: nothing is written yet", got, last)
		}
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if got := l.ShippedLSN(); got != k {
		t.Fatalf("shipping frontier = %d after the commit, want %d", got, k)
	}
	s, err := l.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	recs := streamAll(t, s, k)
	if len(recs) != k {
		t.Fatalf("streamed %d records, want %d", len(recs), k)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || rec.Op.Value != float64(i) {
			t.Fatalf("record %d = LSN %d value %v", i, rec.LSN, rec.Op.Value)
		}
	}
}

func TestSubscribeBoundsErrors(t *testing.T) {
	dir := t.TempDir()
	cube := newTestCube(t)
	_, l, _, err := Recover(dir, Options{Sync: SyncNever, SegmentSize: 128}, func() (*core.Cube, error) { return cube, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	run(t, cube, l, randomOps(rand.New(rand.NewSource(3)), 100))
	// Two checkpoints so pruning advances the retention horizon past
	// LSN 1 (keepCheckpoints is 2).
	if _, err := l.Checkpoint(cube.Save); err != nil {
		t.Fatal(err)
	}
	run(t, cube, l, randomOps(rand.New(rand.NewSource(4)), 100))
	if _, err := l.Checkpoint(cube.Save); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestLSN()
	if oldest <= 1 {
		t.Fatalf("pruning did not advance the horizon: oldest=%d", oldest)
	}

	if _, err := l.SubscribeFrom(1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("SubscribeFrom(1) after pruning: %v, want ErrTruncated", err)
	}
	if _, err := l.SubscribeFrom(l.LastLSN() + 2); !errors.Is(err, ErrFutureLSN) {
		t.Fatalf("SubscribeFrom beyond end: %v, want ErrFutureLSN", err)
	}
	if _, err := l.SubscribeFrom(oldest); err != nil {
		t.Fatalf("SubscribeFrom(oldest): %v", err)
	}
}

func TestStreamSurvivesRotationAndCheckpointPruning(t *testing.T) {
	dir := t.TempDir()
	cube := newTestCube(t)
	_, l, _, err := Recover(dir, Options{Sync: SyncNever, SegmentSize: 128}, func() (*core.Cube, error) { return cube, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Interleave appends and checkpoints while a subscriber tails from
	// the current position; it must see every record exactly once even
	// as segments rotate and old ones are pruned.
	s, err := l.SubscribeFrom(l.LastLSN() + 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	total := 0
	for round := 0; round < 5; round++ {
		ops := randomOps(r, 50)
		run(t, cube, l, ops)
		total += len(ops)
		if _, err := l.Checkpoint(cube.Save); err != nil {
			t.Fatal(err)
		}
	}
	recs := streamAll(t, s, uint64(total))
	if len(recs) != total {
		t.Fatalf("streamed %d records, want %d", len(recs), total)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

func TestApplyReplicatedProducesIdenticalCube(t *testing.T) {
	primaryDir, replicaDir := t.TempDir(), t.TempDir()
	pc := newTestCube(t)
	_, pl, _, err := Recover(primaryDir, Options{Sync: SyncNever}, func() (*core.Cube, error) { return pc, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	rc := newTestCube(t)
	_, rl, _, err := Recover(replicaDir, Options{Sync: SyncNever}, func() (*core.Cube, error) { return rc, nil })
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(21))
	ops := randomOps(r, 300)
	run(t, pc, pl, ops)

	s, err := pl.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range streamAll(t, s, pl.LastLSN()) {
		if _, err := rl.ApplyReplicated(rc, rec.LSN, rec.Op); err != nil {
			t.Fatal(err)
		}
	}
	if rl.LastLSN() != pl.LastLSN() {
		t.Fatalf("replica at LSN %d, primary at %d", rl.LastLSN(), pl.LastLSN())
	}
	assertEquivalent(t, pc, rc, r)

	// A gap (skipped LSN) and an overlap (replayed LSN) both mean
	// divergence and must be refused.
	op := core.Op{Kind: core.OpInsert, Time: 5, Coords: []int{1, 1}, Value: 1}
	if _, err := rl.ApplyReplicated(rc, rl.LastLSN()+2, op); err == nil {
		t.Fatal("gap LSN accepted")
	}
	if _, err := rl.ApplyReplicated(rc, rl.LastLSN(), op); err == nil {
		t.Fatal("duplicate LSN accepted")
	}

	// The replica's own log must recover to the same state: its WAL is
	// a faithful copy of the primary's stream.
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	rc2, rl2, _, err := Recover(replicaDir, Options{Sync: SyncNever}, func() (*core.Cube, error) { return newTestCube(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer rl2.Close()
	assertEquivalent(t, pc, rc2, r)
}

// TestStreamCatchUpBesideALiveCommit reads the active segment from disk
// while another goroutine keeps committing into it. The segment was
// created at its full size, so a read can see zeros with a newer record
// after them; each stream, subscribed behind the ring, must still
// deliver every LSN through the frontier it started at, in order, with
// no error.
func TestStreamCatchUpBesideALiveCommit(t *testing.T) {
	dir := t.TempDir()
	_, l, _, err := Recover(dir, Options{Sync: SyncNever}, func() (*core.Cube, error) { return newTestCube(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	op := func(lsn uint64) core.Op {
		return core.Op{Kind: core.OpInsert, Time: int64(lsn), Coords: []int{int(lsn % 8), int(lsn % 4)}, Value: 1}
	}
	const prefill, total = 2 * ringSize, 40000
	for lsn := uint64(1); lsn <= prefill; lsn++ {
		if _, err := l.Append(op(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	writer := make(chan error, 1)
	go func() {
		for lsn := uint64(prefill + 1); lsn <= total; lsn++ {
			if _, err := l.Append(op(lsn)); err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for rounds := 0; ; rounds++ {
		select {
		case err := <-writer:
			if err != nil {
				t.Fatal(err)
			}
			if segs := l.Segments(); segs != 1 {
				t.Fatalf("the log rotated into %d segments; the reads must share the writer's", segs)
			}
			t.Logf("%d catch-up reads beside the writer", rounds)
			return
		default:
		}
		s, err := l.SubscribeFrom(1)
		if err != nil {
			t.Fatal(err)
		}
		shipped := l.ShippedLSN()
		for want := uint64(1); want <= shipped; want++ {
			rec, err := s.Next(ctx)
			if err != nil {
				t.Fatalf("round %d: Next at LSN %d of %d: %v", rounds, want, shipped, err)
			}
			if rec.LSN != want || rec.Op.Time != int64(want) {
				t.Fatalf("round %d: got LSN %d (time %d), want LSN %d", rounds, rec.LSN, rec.Op.Time, want)
			}
		}
	}
}
