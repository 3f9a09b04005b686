package wal

import (
	"context"
	"errors"
	"testing"
	"time"

	"histcube/internal/agg"
	"histcube/internal/appendcube"
	"histcube/internal/core"
	"histcube/internal/trace"
)

// failingSync is a segment whose every fsync fails, so a log over it
// latches on its first commit and its repair never succeeds.
type failingSync struct{ SegmentFile }

var errSyncFailed = errors.New("fsync failed")

func (failingSync) Sync() error { return errSyncFailed }

func applyTestCube(t *testing.T, ooo bool) *core.Cube {
	t.Helper()
	c, err := core.New(core.Config{
		Dims:             []core.Dim{{Name: "x", Size: 8}, {Name: "y", Size: 4}},
		Operator:         agg.Sum,
		BufferOutOfOrder: ooo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestApplyKeepsFailuresApart pins Apply's two failures: a staging
// failure (or a done context) logs and applies nothing, and the cube's
// rejection leaves the op logged at its LSN but out of the cube, where
// recovery replay leaves it too.
func TestApplyKeepsFailuresApart(t *testing.T) {
	at := func(tm int64) core.Op { return core.Op{Kind: core.OpInsert, Time: tm, Coords: []int{1, 2}, Value: 3} }
	for _, tc := range []struct {
		name    string
		noLog   bool
		ooo     bool // the cube buffers out-of-order ops
		opts    Options
		setup   func(t *testing.T, l *Log, c *core.Cube)
		expired bool // the request's deadline passed before Apply
		op      core.Op
		wantErr error // nil: success
		logged  bool
		applied bool
	}{
		{name: "success", ooo: true, op: at(5), logged: true, applied: true},
		{name: "no log", noLog: true, op: at(5), applied: true},
		{name: "closed log", op: at(5), wantErr: ErrClosed,
			setup: func(t *testing.T, l *Log, _ *core.Cube) {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "latched log", op: at(5), wantErr: errSyncFailed,
			opts: Options{Sync: SyncAlways, WrapSegment: func(f SegmentFile) SegmentFile { return failingSync{f} }},
			setup: func(t *testing.T, l *Log, _ *core.Cube) {
				if _, err := l.Append(at(1)); !errors.Is(err, errSyncFailed) {
					t.Fatalf("Append on a failing disk = %v, want the fsync failure", err)
				}
			}},
		{name: "deadline passed", op: at(5), expired: true, wantErr: context.DeadlineExceeded},
		{name: "rejected out of order", op: at(2), wantErr: appendcube.ErrOutOfOrder, logged: true,
			setup: func(t *testing.T, l *Log, c *core.Cube) {
				if _, err := l.Apply(context.Background(), c, at(5)); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			newCube := func() (*core.Cube, error) { return applyTestCube(t, tc.ooo), nil }
			c, l, _, err := Recover(dir, tc.opts, newCube)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if tc.setup != nil {
				tc.setup(t, l, c)
			}
			if tc.noLog {
				l = nil
			}
			end := func() uint64 {
				if l == nil {
					return 0
				}
				return l.LastLSN()
			}
			lastBefore, appliedBefore := end(), c.Stats().AppendedUpdates
			root := trace.New("histserve.insert")
			ctx, cancel := context.WithTimeout(trace.NewContext(context.Background(), root), time.Minute)
			defer cancel()
			if tc.expired {
				ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
				defer cancel()
			}

			lsn, err := l.Apply(ctx, c, tc.op)
			root.End()
			if (tc.wantErr == nil) != (err == nil) || !errors.Is(err, tc.wantErr) {
				t.Fatalf("Apply = %d, %v; want error %v", lsn, err, tc.wantErr)
			}
			if last := end(); tc.logged && (lsn != lastBefore+1 || last != lsn) {
				t.Fatalf("Apply = LSN %d with the log ending at %d (was %d), want the next LSN", lsn, last, lastBefore)
			} else if !tc.logged && (lsn != 0 || last != lastBefore) {
				t.Fatalf("Apply = LSN %d with the log ending at %d (was %d), want nothing logged", lsn, last, lastBefore)
			}
			wantApplied := int64(0)
			if tc.applied {
				wantApplied = 1
			}
			if got := c.Stats().AppendedUpdates - appliedBefore; got != wantApplied {
				t.Fatalf("cube applied %d ops, want %d", got, wantApplied)
			}
			wantBytes := int64(0)
			if tc.logged {
				framed, err := appendRecord(nil, tc.op)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes = int64(len(framed))
			}
			if got := root.Total(trace.WALBytes); got != wantBytes {
				t.Fatalf("span wal_bytes = %d, want %d (the framed record)", got, wantBytes)
			}
			if !tc.logged || l == nil {
				return
			}
			// Recovery replays the log onto a fresh cube exactly as Apply
			// left this one: a rejected op is skipped there too.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			back, l2, res, err := Recover(dir, Options{}, newCube)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if res.SkippedOps != int(1-wantApplied) || res.Replayed+res.SkippedOps != int(lsn) {
				t.Fatalf("recovery = %+v, want %d records with %d skipped", res, lsn, 1-wantApplied)
			}
			if got, want := back.Stats().AppendedUpdates, c.Stats().AppendedUpdates; got != want {
				t.Fatalf("recovered cube holds %d ops, the live one %d", got, want)
			}
		})
	}
}

// TestApplyLogsEveryMutation: inserts, deletes and buffered
// out-of-order inserts all reach the log, in order, as the ops the
// caller passed — and the log keeps its own copy of the coordinates.
func TestApplyLogsEveryMutation(t *testing.T) {
	c, l, _, err := Recover(t.TempDir(), Options{}, func() (*core.Cube, error) { return applyTestCube(t, true), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []core.Op{
		{Kind: core.OpInsert, Time: 2, Coords: []int{2, 1}, Value: 5},
		{Kind: core.OpDelete, Time: 2, Coords: []int{2, 1}, Value: 3},
		{Kind: core.OpInsert, Time: 1, Coords: []int{0, 3}, Value: 7}, // out of order: buffered, still logged
	}
	var last uint64
	for _, op := range want {
		coords := append([]int(nil), op.Coords...)
		op.Coords = coords
		if last, err = l.Apply(context.Background(), c, op); err != nil {
			t.Fatal(err)
		}
		coords[0] = 99 // the caller reuses its buffer
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.AppendedUpdates != 2 || st.OutOfOrderUpdates != 1 {
		t.Fatalf("cube stats = %+v, want 2 appended and 1 buffered", st)
	}
	s, err := l.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		rec, ok, err := s.TryNext()
		if !ok || err != nil {
			t.Fatalf("record %d: ok=%v err=%v", i+1, ok, err)
		}
		if rec.LSN != uint64(i+1) || rec.Op.Kind != w.Kind || rec.Op.Time != w.Time || rec.Op.Value != w.Value ||
			rec.Op.Coords[0] != w.Coords[0] || rec.Op.Coords[1] != w.Coords[1] {
			t.Fatalf("record %d = %d %+v, want %+v", i+1, rec.LSN, rec.Op, w)
		}
	}
}
