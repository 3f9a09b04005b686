package wal

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/obs"
)

func newTestCube(t *testing.T) *core.Cube {
	t.Helper()
	c, err := core.New(core.Config{
		Dims:             []core.Dim{{Name: "x", Size: 8}, {Name: "y", Size: 4}},
		Operator:         agg.Sum,
		BufferOutOfOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomOps generates a replayable mix of in-order inserts, deletes
// and out-of-order corrections.
func randomOps(r *rand.Rand, n int) []core.Op {
	ops := make([]core.Op, 0, n)
	now := int64(1)
	for i := 0; i < n; i++ {
		var tv int64
		if r.Intn(6) == 0 && now > 1 {
			tv = int64(r.Intn(int(now))) // out of order
		} else {
			if r.Intn(3) == 0 {
				now++
			}
			tv = now
		}
		kind := core.OpInsert
		if r.Intn(5) == 0 {
			kind = core.OpDelete
		}
		ops = append(ops, core.Op{
			Kind:   kind,
			Time:   tv,
			Coords: []int{r.Intn(8), r.Intn(4)},
			Value:  float64(r.Intn(9) + 1),
		})
	}
	return ops
}

// run applies ops to the cube through the log and commits each.
func run(t *testing.T, c *core.Cube, l *Log, ops []core.Op) {
	t.Helper()
	for _, op := range ops {
		lsn, err := l.Apply(context.Background(), c, op)
		if err == nil {
			err = l.Commit(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// assertEquivalent compares the two cubes on a spread of range
// queries.
func assertEquivalent(t *testing.T, want, got *core.Cube, r *rand.Rand) {
	t.Helper()
	for q := 0; q < 60; q++ {
		lo := []int{r.Intn(8), r.Intn(4)}
		hi := []int{lo[0] + r.Intn(8-lo[0]), lo[1] + r.Intn(4-lo[1])}
		tLo := int64(r.Intn(40))
		rng := core.Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(40)), Lo: lo, Hi: hi}
		w, err := want.Query(rng)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Query(rng)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Fatalf("query %+v: recovered %v, want %v", rng, g, w)
		}
	}
	ws, gs := want.Stats(), got.Stats()
	if ws.AppendedUpdates != gs.AppendedUpdates || ws.OutOfOrderUpdates != gs.OutOfOrderUpdates ||
		ws.PendingOutOfOrder != gs.PendingOutOfOrder || ws.Slices != gs.Slices {
		t.Fatalf("stats diverge: recovered %+v, want %+v", gs, ws)
	}
}

func recoverCube(t *testing.T, dir string, opts Options) (*core.Cube, *Log, RecoverResult) {
	t.Helper()
	c, l, res, err := Recover(dir, opts, func() (*core.Cube, error) { return newTestCube(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	return c, l, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(1))
	ops := randomOps(r, 500)

	live, l, res := recoverCube(t, dir, Options{Sync: SyncNever})
	if res.Replayed != 0 || res.CheckpointLSN != 0 {
		t.Fatalf("fresh dir recovered %+v", res)
	}
	run(t, live, l, ops)
	if got := l.LastLSN(); got != uint64(len(ops)) {
		t.Fatalf("LastLSN = %d, want %d", got, len(ops))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	back, l2, res2 := recoverCube(t, dir, Options{})
	defer l2.Close()
	if res2.Replayed != len(ops) || res2.TornTail || res2.SkippedOps != 0 {
		t.Fatalf("recovery = %+v, want %d replayed", res2, len(ops))
	}
	assertEquivalent(t, live, back, rand.New(rand.NewSource(2)))
}

func TestRecoveryWithoutCleanClose(t *testing.T) {
	// Simulate a crash: the log is abandoned (no Close) and the
	// directory re-opened. Under SyncAlways everything appended must
	// come back.
	dir := t.TempDir()
	r := rand.New(rand.NewSource(3))
	ops := randomOps(r, 120)
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncAlways})
	run(t, live, l, ops)
	// no l.Close(): crash

	back, l2, res := recoverCube(t, dir, Options{})
	defer l2.Close()
	if res.Replayed != len(ops) {
		t.Fatalf("replayed %d, want %d", res.Replayed, len(ops))
	}
	assertEquivalent(t, live, back, rand.New(rand.NewSource(4)))
}

func TestSegmentRotationAndContinuation(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(5))
	ops := randomOps(r, 400)
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever, SegmentSize: 512})
	run(t, live, l, ops)
	if l.Segments() < 3 {
		t.Fatalf("expected several segments at 512-byte rotation, got %d", l.Segments())
	}
	l.Close()

	// Recover and keep appending: LSNs continue, state matches.
	back, l2, _ := recoverCube(t, dir, Options{Sync: SyncNever, SegmentSize: 512})
	if got := l2.LastLSN(); got != uint64(len(ops)) {
		t.Fatalf("LastLSN after recovery = %d, want %d", got, len(ops))
	}
	more := randomOps(rand.New(rand.NewSource(6)), 100)
	run(t, live, mustDiscard(t, t.TempDir()), more) // mirror into live via throwaway log
	run(t, back, l2, more)
	l2.Close()
	assertEquivalent(t, live, back, rand.New(rand.NewSource(7)))
}

// mustDiscard returns a log in a scratch dir, so the "want" cube can
// run through the same code path without polluting the dir under test.
func mustDiscard(t *testing.T, dir string) *Log {
	t.Helper()
	_, l, _, err := Recover(dir, Options{Sync: SyncNever}, func() (*core.Cube, error) {
		return newTestCube(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(8))
	ops := randomOps(r, 50)
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	run(t, live, l, ops)
	l.Close()

	// Tear the final record in place, as a crash that persisted only its
	// first part leaves it: its last bytes are the segment's zeros.
	path, end := lastSegment(t, dir)
	writeAt(t, path, end-5, make([]byte, 5))

	reg := obs.NewRegistry()
	back, l2, res := recoverCube(t, dir, Options{Metrics: NewMetrics(reg)})
	if !res.TornTail {
		t.Fatal("torn tail not reported")
	}
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exposition.String(), "\nhistcube_wal_torn_truncations_total 1\n") {
		t.Errorf("/metrics does not count the truncation:\n%s", exposition.String())
	}
	if res.Replayed != len(ops)-1 {
		t.Fatalf("replayed %d, want %d (one torn)", res.Replayed, len(ops)-1)
	}
	// The torn record is gone for good: appending continues from the
	// truncated position and a further recovery sees a clean log.
	if got := l2.LastLSN(); got != uint64(len(ops)-1) {
		t.Fatalf("LastLSN = %d, want %d", got, len(ops)-1)
	}
	if _, err := l2.Append(core.Op{Kind: core.OpInsert, Time: 1000, Coords: []int{0, 0}, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := back.ApplyOp(context.Background(), core.Op{Kind: core.OpInsert, Time: 1000, Coords: []int{0, 0}, Value: 1}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	again, l3, res3 := recoverCube(t, dir, Options{})
	defer l3.Close()
	if res3.TornTail {
		t.Fatal("second recovery still sees a torn tail")
	}
	assertEquivalent(t, back, again, rand.New(rand.NewSource(9)))
}

// lastSegment returns the path of dir's last segment and the offset
// where its records end, as readSegment finds it.
func lastSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatal("no segments", err)
	}
	path := segs[len(segs)-1].path
	_, _, end, torn, err := readSegment(path, math.MaxUint64)
	if err != nil || torn {
		t.Fatalf("reading %s: torn=%v, %v", path, torn, err)
	}
	return path, end
}

// writeAt overwrites the bytes of path at off with b.
func writeAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFindsTheSegmentEnd pins the end-of-segment rule. A
// segment is created at its full size, so its records are followed by
// zeros, and they end at the first all-zero frame. After a clean Close
// and after a crash that zero tail is the clean end, not a torn one; a
// directory whose active segment ends at its records, as logs were
// written before segments were created at their full size, recovers and
// is extended in place; and a zero run with a valid frame after it is
// mid-log damage, never cut away.
func TestRecoveryFindsTheSegmentEnd(t *testing.T) {
	const segSize = 1 << 20
	ops := randomOps(rand.New(rand.NewSource(20)), 40)
	frame := int64(recordSize(ops[0]))
	for _, tc := range []struct {
		name   string
		kill   bool // abandon the log instead of closing it
		damage func(t *testing.T, path string, end int64)
		lost   uint64 // the first lost LSN a *CorruptError names; 0: recovery succeeds
	}{
		{name: "clean close"},
		{name: "kill", kill: true},
		{name: "cut to its records", damage: func(t *testing.T, path string, end int64) {
			if err := os.Truncate(path, end); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "zero run before a valid frame", lost: 3, damage: func(t *testing.T, path string, end int64) {
			writeAt(t, path, segHeaderSize+2*frame, make([]byte, frame))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Sync: SyncAlways, SegmentSize: segSize}
			live, l, _ := recoverCube(t, dir, opts)
			run(t, live, l, ops)
			if !tc.kill {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			path, end := lastSegment(t, dir)
			if end != segHeaderSize+int64(len(ops))*frame {
				t.Fatalf("records end at %d, want %d", end, segHeaderSize+int64(len(ops))*frame)
			}
			if tc.damage != nil {
				tc.damage(t, path, end)
			}

			m := NewMetrics(obs.NewRegistry())
			opts.Metrics = m
			_, l2, res, err := Recover(dir, opts, func() (*core.Cube, error) { return newTestCube(t), nil })
			if tc.lost != 0 {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.LSN != tc.lost || ce.Offset != segHeaderSize+int64(tc.lost-1)*frame {
					t.Fatalf("recovery = %v, want a *CorruptError at LSN %d, offset %d", err, tc.lost, segHeaderSize+int64(tc.lost-1)*frame)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.TornTail || res.Replayed != len(ops) || m.TornTruncations.Value() != 0 {
				t.Fatalf("recovery = %+v with %d torn truncations, want %d replayed and no torn tail",
					res, m.TornTruncations.Value(), len(ops))
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != segSize {
				t.Fatalf("recovered segment stat = %v, %v; want it at its full size %d", fi, err, segSize)
			}

			// Appends continue at the records' end, and the directory
			// recovers again to the live cube, bit for bit (compared before
			// any query converts cells of either).
			run(t, live, l2, randomOps(rand.New(rand.NewSource(22)), 20))
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			again, l3, res3 := recoverCube(t, dir, Options{SegmentSize: segSize})
			defer l3.Close()
			if res3.TornTail || res3.Replayed != len(ops)+20 {
				t.Fatalf("second recovery = %+v, want %d replayed and no torn tail", res3, len(ops)+20)
			}
			var want, got bytes.Buffer
			if err := live.Save(&want); err != nil {
				t.Fatal(err)
			}
			if err := again.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatal("the second recovery differs from the live cube")
			}
		})
	}
}

// TestReadSegmentAllocatesByRecords guards the reader's cost: reading a
// segment created at its full size allocates for its records, not for
// the zeros after them, however large the file.
func TestReadSegmentAllocatesByRecords(t *testing.T) {
	const segSize = 64 << 20
	dir := t.TempDir()
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever, SegmentSize: segSize})
	run(t, live, l, randomOps(rand.New(rand.NewSource(23)), 1000))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	if fi, err := os.Stat(path); err != nil || fi.Size() != segSize {
		t.Fatalf("segment stat = %v, %v; want %d bytes", fi, err, segSize)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ops, _, torn, err := readSegment(path, math.MaxUint64)
	runtime.ReadMemStats(&after)
	if err != nil || torn || len(ops) != 1000 {
		t.Fatalf("readSegment = %d ops, torn=%v, %v; want 1000 and a clean end", len(ops), torn, err)
	}
	// 1000 ops with their coordinates, the op slice's growth and two
	// read buffers come to about 250 KiB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading 1000 records of a %d MiB segment allocated %d KiB, want < 1 MiB", segSize>>20, got>>10)
	}
}

func TestGarbageTailTruncated(t *testing.T) {
	// Garbage after the last good record (a torn write that made it
	// partially to disk) is cut off, not fatal.
	dir := t.TempDir()
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	run(t, live, l, randomOps(rand.New(rand.NewSource(10)), 20))
	l.Close()
	path, end := lastSegment(t, dir)
	writeAt(t, path, end, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03})

	back, l2, res := recoverCube(t, dir, Options{})
	defer l2.Close()
	if !res.TornTail {
		t.Fatal("garbage tail not reported as torn")
	}
	if res.Replayed != 20 {
		t.Fatalf("replayed %d, want 20", res.Replayed)
	}
	assertEquivalent(t, live, back, rand.New(rand.NewSource(11)))
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(12))
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever, SegmentSize: 256})
	run(t, live, l, randomOps(r, 300))
	before := l.Segments()
	lsn, err := l.Checkpoint(live.Save)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 300 {
		t.Fatalf("checkpoint LSN = %d, want 300", lsn)
	}
	if after := l.Segments(); after >= before {
		t.Fatalf("checkpoint kept %d segments (was %d)", after, before)
	}
	if l.SinceCheckpoint() != 0 {
		t.Fatal("SinceCheckpoint not reset")
	}

	// More appends after the checkpoint; recovery = checkpoint + tail.
	run(t, live, l, randomOps(rand.New(rand.NewSource(13)), 40))
	l.Close()
	back, l2, res := recoverCube(t, dir, Options{})
	defer l2.Close()
	if res.CheckpointLSN != 300 || res.Replayed != 40 {
		t.Fatalf("recovery = %+v, want checkpoint 300 + 40 replayed", res)
	}
	assertEquivalent(t, live, back, rand.New(rand.NewSource(14)))
}

func TestMaybeCheckpointEveryN(t *testing.T) {
	dir := t.TempDir()
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	ops := randomOps(rand.New(rand.NewSource(15)), 25)
	ckpts := 0
	for _, op := range ops {
		run(t, live, l, []core.Op{op})
		ran, err := l.MaybeCheckpoint(10, live.Save)
		if err != nil {
			t.Fatal(err)
		}
		if ran {
			ckpts++
		}
	}
	if ckpts != 2 {
		t.Fatalf("25 appends at every=10 ran %d checkpoints, want 2", ckpts)
	}
	if ran, _ := l.MaybeCheckpoint(0, live.Save); ran {
		t.Fatal("every=0 must disable automatic checkpoints")
	}
	l.Close()
}

func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(16))
	live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	run(t, live, l, randomOps(r, 100))
	if _, err := l.Checkpoint(live.Save); err != nil {
		t.Fatal(err)
	}
	run(t, live, l, randomOps(r, 100))
	if _, err := l.Checkpoint(live.Save); err != nil {
		t.Fatal(err)
	}
	run(t, live, l, randomOps(r, 30))
	l.Close()

	ckpts, _ := listCheckpoints(dir)
	if len(ckpts) != 2 {
		t.Fatalf("have %d checkpoints, want 2", len(ckpts))
	}
	corruptFile(t, ckpts[1].path) // newest

	back, l2, res := recoverCube(t, dir, Options{})
	defer l2.Close()
	if res.CheckpointsSkipped != 1 || res.CheckpointLSN != 100 {
		t.Fatalf("recovery = %+v, want fallback to checkpoint 100", res)
	}
	if res.Replayed != 130 {
		t.Fatalf("replayed %d, want 130 (everything after the old checkpoint)", res.Replayed)
	}
	assertEquivalent(t, live, back, rand.New(rand.NewSource(17)))
}

// TestPanickyNewestCheckpointQuarantined: checkpoints that decode as
// gob but carry corruptions core.Load used to panic on (and so crash
// every boot) are quarantined, and recovery falls back to the previous
// checkpoint. The structs mirror the snapshot's gob field names.
func TestPanickyNewestCheckpointQuarantined(t *testing.T) {
	type header struct {
		Version, Operator int
		DimNames          []string
		DimSizes          []int
		HasCount, HasGd   bool
		GdTimes           []int64
		GdCoords          [][]int
		GdSum             []float64
	}
	type inner struct {
		Version   int
		Shape     []int
		Times     []int64
		CacheVals []float64
		CacheTS   []int32
	}
	dims := []int{8, 4}
	good := header{Version: 1, Operator: int(agg.Sum), DimNames: []string{"x", "y"}, DimSizes: dims, HasGd: true}
	for _, tc := range []struct {
		name string
		msgs []any
	}{
		{"dim names short", []any{header{Version: 1, Operator: int(agg.Sum), DimNames: []string{"x"}, DimSizes: dims}}},
		{"gd coords short", []any{header{Version: 1, Operator: int(agg.Sum), DimNames: []string{"x", "y"}, DimSizes: dims,
			HasGd: true, GdTimes: []int64{1, 2}, GdCoords: [][]int{{0, 0}}, GdSum: []float64{1, 1}},
			inner{Version: 1, Shape: dims, CacheVals: make([]float64, 32), CacheTS: make([]int32, 32)}}},
		{"negative cache timestamp", []any{good, inner{Version: 1, Shape: dims, CacheVals: make([]float64, 32),
			CacheTS: append(make([]int32, 31), -1)}}},
		{"cache timestamp past an empty history", []any{good, inner{Version: 1, Shape: dims, CacheVals: make([]float64, 32),
			CacheTS: append(make([]int32, 31), 5)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := rand.New(rand.NewSource(18))
			live, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
			run(t, live, l, randomOps(r, 100))
			if _, err := l.Checkpoint(live.Save); err != nil {
				t.Fatal(err)
			}
			run(t, live, l, randomOps(r, 50))
			if _, err := l.Checkpoint(func(w io.Writer) error {
				enc := gob.NewEncoder(w)
				for _, m := range tc.msgs {
					if err := enc.Encode(m); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			l.Close()

			back, l2, res := recoverCube(t, dir, Options{})
			defer l2.Close()
			if res.CheckpointLSN != 100 || res.Replayed != 50 || len(res.QuarantinedCheckpoints) != 1 {
				t.Fatalf("recovery = %+v, want the newest quarantined and a fallback to checkpoint 100", res)
			}
			assertEquivalent(t, live, back, rand.New(rand.NewSource(19)))
		})
	}
}

// corruptFile stomps the head of path so decoding it fails.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("corrupted checkpoint!!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Errorf("bad policy %q accepted", bad)
		}
	}
}

func TestAppendOnClosedLog(t *testing.T) {
	dir := t.TempDir()
	_, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	l.Close()
	if _, err := l.Append(core.Op{Kind: core.OpInsert, Coords: []int{0, 0}}); err != ErrClosed {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []core.Op{
		{Kind: core.OpInsert, Time: 42, Coords: []int{1, 2, 3}, Value: 3.25},
		{Kind: core.OpDelete, Time: -7, Coords: []int{0}, Value: -1e300},
		{Kind: core.OpDelete, Time: 1 << 60, Coords: nil, Value: 0},
	}
	for _, op := range ops {
		rec, err := appendRecord(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodePayload(rec[recHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != op.Kind || got.Time != op.Time || got.Value != op.Value ||
			len(got.Coords) != len(op.Coords) {
			t.Fatalf("round trip %+v -> %+v", op, got)
		}
		for i := range op.Coords {
			if got.Coords[i] != op.Coords[i] {
				t.Fatalf("coords %v -> %v", op.Coords, got.Coords)
			}
		}
	}
}
