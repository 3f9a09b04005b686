// Fault-injection tests for the WAL: they live in an external test
// package so they exercise the log exactly as histserve does, through
// the exported surface (Options.WrapSegment + the fault injector).
package wal_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/fault"
	"histcube/internal/obs"
	"histcube/internal/wal"
)

func newCube(t *testing.T) func() (*core.Cube, error) {
	t.Helper()
	return func() (*core.Cube, error) {
		return core.New(core.Config{
			Dims:             []core.Dim{{Name: "x", Size: 8}, {Name: "y", Size: 4}},
			Operator:         agg.Sum,
			BufferOutOfOrder: true,
		})
	}
}

func faultOptions(inj *fault.Injector, opts wal.Options) wal.Options {
	opts.WrapSegment = func(f wal.SegmentFile) wal.SegmentFile {
		return inj.WrapFile("wal", f)
	}
	return opts
}

// metricValue reads one series off reg, as /metrics renders it.
func metricValue(t *testing.T, reg *obs.Registry, series string) int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

func testOp(i int) core.Op {
	return core.Op{Kind: core.OpInsert, Time: int64(i + 1), Coords: []int{i % 8, i % 4}, Value: 1}
}

// TestFailedWriteIsRepairedNotRetried: a segment write that fails, or
// is torn part-way, reaches the file exactly once. Its commit is nacked
// with the injected cause and latches the log; the record keeps its LSN
// and is not shipped. The next Append repairs the log, rewriting the
// torn frame from memory, and recovery finds every record intact.
func TestFailedWriteIsRepairedNotRetried(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"err", "wal.write:err@2"},
		{"short", "wal.write:short@2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.MustParse(tc.spec, 1)
			_, l, _, err := wal.Recover(dir, faultOptions(inj, wal.Options{Sync: wal.SyncNever}), newCube(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(testOp(0)); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			if _, err := l.Append(testOp(1)); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("append 2 = %v, want the injected write error", err)
			}
			if got := inj.Ops("wal.write"); got != 2 {
				t.Fatalf("write ops = %d, want 2 (a failed write is not retried)", got)
			}
			if got := l.LastLSN(); got != 2 {
				t.Fatalf("LastLSN = %d, want 2 (the nacked record keeps its LSN)", got)
			}
			if got := l.ShippedLSN(); got != 1 {
				t.Fatalf("shipping frontier = %d, want 1 (LSN 2 was never written whole)", got)
			}
			for i := 2; i < 4; i++ {
				if _, err := l.Append(testOp(i)); err != nil {
					t.Fatalf("append %d after the fault: %v", i+1, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			cube, l2, res, err := wal.Recover(dir, wal.Options{}, newCube(t))
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if res.Replayed != 4 || res.TornTail {
				t.Fatalf("recovery = %+v, want all 4 records and no torn tail", res)
			}
			got, err := cube.Query(core.Range{TimeLo: 0, TimeHi: 100, Lo: []int{0, 0}, Hi: []int{7, 3}})
			if err != nil {
				t.Fatal(err)
			}
			if got != 4 {
				t.Fatalf("recovered total = %v, want 4", got)
			}
		})
	}
}

// TestAppendFailsFastOnNoSpace pins where a failed write surfaces: at
// the Commit that writes the record, not where it is staged. The commit fails
// after exactly one write attempt and latches the log; the record keeps
// its LSN, and once the fault clears the repair writes it where it was.
func TestAppendFailsFastOnNoSpace(t *testing.T) {
	dir := t.TempDir()
	inj := fault.MustParse("wal.write:nospace@2+", 1)
	_, l, _, err := wal.Recover(dir, faultOptions(inj, wal.Options{Sync: wal.SyncNever}), newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testOp(0)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	_, err = l.Append(testOp(1))
	if !errors.Is(err, fault.ErrNoSpace) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append 2 = %v, want the injected ENOSPC from its commit", err)
	}
	if got := inj.Ops("wal.write"); got != 2 {
		t.Fatalf("write ops = %d, want 2 (a failed write is not retried)", got)
	}
	if got := l.LastLSN(); got != 2 {
		t.Fatalf("LastLSN = %d, want 2 (the nacked record keeps its LSN)", got)
	}
	if got := l.ShippedLSN(); got != 1 {
		t.Fatalf("shipping frontier = %d, want 1 (LSN 2 was never written)", got)
	}

	inj.Heal()
	if lsn, err := l.Append(testOp(2)); err != nil || lsn != 3 {
		t.Fatalf("append after the fault cleared = %d, %v; want LSN 3", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, l2, res, err := wal.Recover(dir, wal.Options{}, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res.Replayed != 3 || res.TornTail {
		t.Fatalf("recovery = %+v, want all 3 records and no torn tail", res)
	}
}

// TestCommitLeaderPanicDoesNotWedgeTheLog panics inside the commit
// leader's write and then its fsync. The leader must leave the log
// idle and latched on its way out: a Checkpoint and a Close after it
// return instead of waiting forever for the group commit to end.
func TestCommitLeaderPanicDoesNotWedgeTheLog(t *testing.T) {
	for _, spec := range []string{"wal.write:panic@1", "wal.sync:panic@1"} {
		t.Run(spec, func(t *testing.T) {
			inj := fault.MustParse(spec, 1)
			reg := obs.NewRegistry()
			cube, l, _, err := wal.Recover(t.TempDir(), faultOptions(inj, wal.Options{Sync: wal.SyncAlways, Metrics: wal.NewMetrics(reg)}), newCube(t))
			if err != nil {
				t.Fatal(err)
			}
			lsn, err := l.Apply(context.Background(), cube, testOp(0))
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the injected panic did not fire")
					}
				}()
				_ = l.Commit(lsn)
			}()
			if err := l.Commit(lsn); err == nil || !strings.Contains(err.Error(), "commit leader panicked") {
				t.Fatalf("Commit after the leader panicked = %v, want the latched panic", err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Checkpoint(cube.Save)
				if cerr := l.Close(); err == nil {
					err = cerr
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "commit leader panicked") {
					t.Fatalf("Checkpoint/Close on the latched log = %v, want the latched panic", err)
				}
				if got := metricValue(t, reg, "histcube_wal_checkpoint_errors_total"); got != 1 {
					t.Errorf("checkpoint-errors metric = %d, want 1", got)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Checkpoint/Close hung: the panicking leader left the log syncing")
			}
		})
	}
}

// TestCheckpointDurationCoversTheLogSync pins where
// histcube_wal_checkpoint_duration_seconds starts: before the fsync
// that makes the log durable through the checkpoint's LSN, so a 20ms
// stall of that fsync puts the one sample above the 10ms bucket.
func TestCheckpointDurationCoversTheLogSync(t *testing.T) {
	inj := fault.MustParse("wal.sync:slow=20ms", 1)
	reg := obs.NewRegistry()
	cube, l, _, err := wal.Recover(t.TempDir(), faultOptions(inj, wal.Options{Sync: wal.SyncNever, Metrics: wal.NewMetrics(reg)}), newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Apply(context.Background(), cube, testOp(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(cube.Save); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, reg, "histcube_wal_checkpoint_duration_seconds_count"); got != 1 {
		t.Fatalf("checkpoint durations = %d, want 1", got)
	}
	if got := metricValue(t, reg, `histcube_wal_checkpoint_duration_seconds_bucket{le="0.01"}`); got != 0 {
		t.Errorf("a checkpoint behind a 20ms fsync took under 10ms: the duration starts after the sync")
	}
}

// stalledSync parks every fsync of its segment, once armed, until
// release is closed, and says so on entered first.
type stalledSync struct {
	wal.SegmentFile
	armed   *atomic.Bool
	entered chan<- struct{}
	release <-chan struct{}
}

func (f stalledSync) Sync() error {
	if f.armed.Load() {
		f.entered <- struct{}{}
		<-f.release
	}
	return f.SegmentFile.Sync()
}

// TestCommitOfADurableRecordDoesNotQueue pins Commit's fast path: a
// record that is already durable is committed at once, even while a
// leader sits in the fsync of records staged after it. A reader that
// waits for the commit of what it read must not wait for writes it
// never saw.
func TestCommitOfADurableRecordDoesNotQueue(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	opts := wal.Options{Sync: wal.SyncAlways, WrapSegment: func(f wal.SegmentFile) wal.SegmentFile {
		return stalledSync{f, &armed, entered, release}
	}}
	cube, l, _, err := wal.Recover(t.TempDir(), opts, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	durable, err := l.Append(testOp(0))
	if err != nil {
		t.Fatal(err)
	}
	staged, err := l.Apply(context.Background(), cube, testOp(1))
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	leader := make(chan error, 1)
	go func() { leader <- l.Commit(staged) }()
	<-entered
	done := make(chan error, 1)
	go func() { done <- l.Commit(durable) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit(%d) of a durable record = %v", durable, err)
		}
	case <-time.After(2 * time.Second):
		t.Errorf("Commit(%d) of a durable record queued behind the fsync of record %d", durable, staged)
	}
	armed.Store(false)
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitWritesOnce is the group-commit cost guard: records staged
// together and committed once cost exactly one write(2) and, under
// SyncAlways, one fsync, and leave the active segment's size as it was,
// so that fsync journals no new file size.
func TestCommitWritesOnce(t *testing.T) {
	dir := t.TempDir()
	inj := fault.MustParse("wal.write:err@99", 1) // only counts: this test never reaches op 99
	cube, l, _, err := wal.Recover(dir, faultOptions(inj, wal.Options{Sync: wal.SyncAlways}), newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "wal-0000000000000001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := segSize()
	var last uint64
	for i := 0; i < 16; i++ {
		if last, err = l.Apply(context.Background(), cube, testOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Ops("wal.write"); got != 0 {
		t.Fatalf("Apply issued %d writes, want 0", got)
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if w, s := inj.Ops("wal.write"), inj.Ops("wal.sync"); w != 1 || s != 1 {
		t.Fatalf("committing 16 staged records cost %d writes and %d fsyncs, want 1 and 1", w, s)
	}
	if after := segSize(); after != before {
		t.Fatalf("the commit grew the active segment from %d to %d bytes", before, after)
	}
}

// TestSyncFailureFailsFastThenRepairs pins the no-ack-loss contract
// around fsync and the one repair rule. A failed fsync must never be
// retried on the same descriptor (after EIO the kernel marks the dirty
// pages clean, so a retried fsync can succeed without the data reaching
// disk) and the commit must be nacked with the fsync's error. By then
// the record is staged AND applied, so the repair — run by the next
// Apply — must not roll it back: it rewrites the unsynced tail at its
// original LSN on a fresh descriptor. Replaying the directory then
// yields a cube bit-identical to the live one, and no LSN was ever
// handed to a second op.
func TestSyncFailureFailsFastThenRepairs(t *testing.T) {
	dir := t.TempDir()
	inj := fault.MustParse("wal.sync:err@1", 1)
	reg := obs.NewRegistry()
	opts := faultOptions(inj, wal.Options{Sync: wal.SyncAlways, Metrics: wal.NewMetrics(reg)})
	live, l, _, err := wal.Recover(dir, opts, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	// The server's order: stage, apply, then commit at the reply.
	insert := func(i int) uint64 {
		t.Helper()
		lsn, err := l.Apply(context.Background(), live, testOp(i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		return lsn
	}

	first := insert(0)
	err = l.Commit(first)
	if err == nil {
		t.Fatal("commit succeeded although its fsync failed")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("fsync failure = %v, want the injected error", err)
	}
	if got := inj.Ops("wal.sync"); got != 1 {
		t.Fatalf("sync ops = %d, want 1 (a failed fsync must not be retried)", got)
	}
	if got := metricValue(t, reg, "histcube_wal_sync_failures_total"); got != 1 {
		t.Fatalf("sync-failures metric = %v, want 1", got)
	}
	// While latched, commits fail fast without touching the descriptor
	// again, and nothing past the durable LSN is shippable.
	if err := l.Commit(first); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Commit while latched = %v, want the latched injected error", err)
	}
	if got := inj.Ops("wal.sync"); got != 1 {
		t.Fatalf("sync ops while latched = %d, want still 1", got)
	}
	if got := l.ShippedLSN(); got != 0 {
		t.Fatalf("shipping frontier = %d while nothing is durable, want 0", got)
	}

	// The @1 fault is spent: the next Apply reopens the segment and
	// rewrites the nacked record where it was — its LSN is not reused.
	second := insert(1)
	if first != 1 || second != 2 {
		t.Fatalf("LSNs = %d, %d; want 1, 2 (the nacked record keeps its LSN)", first, second)
	}
	if err := l.Commit(first); err != nil {
		t.Fatalf("the repair made LSN 1 durable, yet Commit(1) = %v", err)
	}
	if err := l.Commit(second); err != nil {
		t.Fatalf("commit after repair: %v", err)
	}
	if got := l.ShippedLSN(); got != 2 {
		t.Fatalf("shipping frontier = %d after repair, want 2", got)
	}
	var liveBytes bytes.Buffer
	if err := live.Save(&liveBytes); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cube, l2, res, err := wal.Recover(dir, wal.Options{}, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res.Replayed != 2 || res.TornTail {
		t.Fatalf("recovery = %+v, want both records and no torn tail", res)
	}
	var replayed bytes.Buffer
	if err := cube.Save(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed.Bytes(), liveBytes.Bytes()) {
		t.Fatal("cube replayed from the repaired directory differs from the live cube")
	}
	sub, err := l2.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		rec, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := testOp(i); rec.LSN != uint64(i+1) || rec.Op.Time != want.Time {
			t.Fatalf("log record %d = LSN %d %+v, want LSN %d %+v", i, rec.LSN, rec.Op, i+1, want)
		}
	}
}

// TestGroupCommitSharesFsyncs drives Append from many goroutines
// (run under -race): concurrent committers must share fsyncs, the
// durable LSN and the shipping frontier must only move forward and
// never pass what was staged, a rotation mid-stream must not pull the
// descriptor from under a group fsync, and every committed record must
// be on disk.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const workers, perWorker = 8, 200
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := wal.NewMetrics(reg)
	// The slowed fsync is what parks committers behind a leader, as a
	// real disk does; 2 KiB segments force rotations under load.
	inj := fault.MustParse("wal.sync:slow=200us", 1)
	opts := faultOptions(inj, wal.Options{Sync: wal.SyncAlways, SegmentSize: 2 << 10})
	opts.Metrics = m
	_, l, _, err := wal.Recover(dir, opts, newCube(t))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		var last uint64
		for {
			shipped, tail := l.ShippedLSN(), l.LastLSN()
			if shipped < last || shipped > tail {
				watched <- fmt.Errorf("durable frontier moved %d -> %d with the log at %d", last, shipped, tail)
				return
			}
			last = shipped
			select {
			case <-stop:
				watched <- nil
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsn, err := l.Append(testOp(w*perWorker + i))
				if err == nil && l.ShippedLSN() < lsn {
					err = fmt.Errorf("Commit(%d) returned with the durable frontier at %d", lsn, l.ShippedLSN())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-watched; err != nil {
		t.Fatal(err)
	}

	appends, fsyncs := m.Appends.Value(), m.Fsyncs.Value()
	if appends != workers*perWorker {
		t.Fatalf("appends = %d, want %d", appends, workers*perWorker)
	}
	if fsyncs >= appends {
		t.Fatalf("fsyncs = %d for %d appends: concurrent commits did not share any", fsyncs, appends)
	}
	if got := m.CommitRecords.Sum(); got != float64(appends) {
		t.Fatalf("histcube_wal_commit_records sums to %v records, want %d", got, appends)
	}
	if metricValue(t, reg, "histcube_wal_segment_rotations_total") == 0 {
		t.Fatal("the run never rotated a segment; shrink SegmentSize")
	}
	if got := metricValue(t, reg, "histcube_wal_sync_failures_total"); got != 0 {
		t.Fatalf("sync failures = %d, want 0 (a rotation closed a descriptor under an fsync?)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, l2, res, err := wal.Recover(dir, wal.Options{}, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := res.Replayed + res.SkippedOps; got != workers*perWorker || res.TornTail {
		t.Fatalf("recovery = %+v, want %d records and no torn tail", res, workers*perWorker)
	}
}

func TestMidLogCorruptionRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	_, l, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncNever}, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte inside the SECOND record (segment header is
	// 16 bytes, each frame is 8 bytes of header + 27 bytes of payload
	// for a 2-coordinate op). Valid records follow, so this is mid-log
	// corruption, not a torn tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	flipByte(t, segs[0], 16+(8+27)+8+3)

	_, _, _, err = wal.Recover(dir, wal.Options{}, newCube(t))
	if err == nil {
		t.Fatal("recovery accepted a log with mid-log corruption")
	}
	var ce *wal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T %v, want *wal.CorruptError", err, err)
	}
	if ce.LSN != 2 {
		t.Fatalf("corrupt LSN = %d, want 2", ce.LSN)
	}
	if !strings.Contains(err.Error(), "log corrupt at LSN 2") ||
		!strings.Contains(err.Error(), ".corrupt") {
		t.Fatalf("error %q should name the LSN and the quarantine step", err)
	}
	// The damaged segment must be left exactly as found.
	if _, err := os.Stat(segs[0]); err != nil {
		t.Fatalf("segment should be untouched: %v", err)
	}
}

// TestStrayNamesAreNotLogFiles puts copies and look-alikes of the log's
// files beside a real log. Only the exact names the log writes are its
// own: recovery must neither replay a stray nor remove or quarantine it.
func TestStrayNamesAreNotLogFiles(t *testing.T) {
	junk := []byte("not a log file")
	for _, tc := range []struct {
		stray   string
		copySeg bool // the stray is a byte copy of the real segment
	}{
		{"wal-0000000000000001 (copy).seg", true},
		{"wal-1.seg", true},
		{"wal-0x10.seg", true},
		{"wal-ffffffffffffffffx.seg", false},
		{"checkpoint-0000000000000002 (copy).ckpt", false},
		{"checkpoint-2.ckpt", false},
	} {
		t.Run(tc.stray, func(t *testing.T) {
			dir := t.TempDir()
			_, l, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncNever}, newCube(t))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := l.Append(testOp(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			content := junk
			if tc.copySeg {
				if content, err = os.ReadFile(filepath.Join(dir, "wal-0000000000000001.seg")); err != nil {
					t.Fatal(err)
				}
			}
			stray := filepath.Join(dir, tc.stray)
			if err := os.WriteFile(stray, content, 0o644); err != nil {
				t.Fatal(err)
			}

			cube, l2, res, err := wal.Recover(dir, wal.Options{}, newCube(t))
			if err != nil {
				t.Fatal(err)
			}
			if want := (wal.RecoverResult{Replayed: 3}); !reflect.DeepEqual(res, want) {
				t.Fatalf("recovery = %+v, want %+v", res, want)
			}
			got, err := cube.Query(core.Range{TimeLo: 0, TimeHi: 100, Lo: []int{0, 0}, Hi: []int{7, 3}})
			if err != nil {
				t.Fatal(err)
			}
			if got != 3 {
				t.Fatalf("recovered total = %v, want 3", got)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			if b, err := os.ReadFile(stray); err != nil || !bytes.Equal(b, content) {
				t.Fatalf("stray %s changed by recovery: %v", tc.stray, err)
			}
		})
	}
}

func TestCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	cube, l, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncNever}, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn, err := l.Apply(context.Background(), cube, testOp(i))
		if err == nil {
			err = l.Commit(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if _, err := l.Checkpoint(cube.Save); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := l.Checkpoint(cube.Save); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("checkpoints: %v %v", ckpts, err)
	}
	newest := ckpts[len(ckpts)-1]
	if err := os.WriteFile(newest, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	back, l2, res, err := wal.Recover(dir, wal.Options{Metrics: wal.NewMetrics(reg)}, newCube(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := metricValue(t, reg, "histcube_wal_quarantined_checkpoints_total"); got != 1 {
		t.Errorf("quarantined-checkpoints metric = %d, want 1", got)
	}
	if res.CheckpointsSkipped != 1 || res.CheckpointLSN != 5 {
		t.Fatalf("recovery = %+v, want fallback to checkpoint 5", res)
	}
	if len(res.QuarantinedCheckpoints) != 1 || res.QuarantinedCheckpoints[0] != newest+".corrupt" {
		t.Fatalf("quarantined = %v, want [%s.corrupt]", res.QuarantinedCheckpoints, newest)
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("quarantined bytes should stay on disk: %v", err)
	}
	if _, err := os.Stat(newest); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("original corrupt checkpoint should be gone, stat = %v", err)
	}
	got, err := back.Query(core.Range{TimeLo: 0, TimeHi: 100, Lo: []int{0, 0}, Hi: []int{7, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("recovered total = %v, want 10", got)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
