package wal

// Rebase: a follower adopts a shipped snapshot without replacing its
// Log. These tests pin where it leaves the directory and the log, at
// the end and at every point a crash or a failure can stop it.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"histcube/internal/core"
)

// TestInstallCheckpointResetsSegments rebases a replica with an
// unrelated, shorter history onto a primary's state: only the new
// checkpoint and a fresh segment at lsn+1 remain, a stream open on the
// old history ends, appends continue the primary's numbering, and the
// directory recovers to the primary's cube.
func TestInstallCheckpointResetsSegments(t *testing.T) {
	pc, pl, _ := recoverCube(t, t.TempDir(), Options{Sync: SyncNever})
	defer pl.Close()
	r := rand.New(rand.NewSource(31))
	run(t, pc, pl, randomOps(r, 120))
	snapLSN := pl.LastLSN()

	replicaDir := t.TempDir()
	rc, rl, _ := recoverCube(t, replicaDir, Options{Sync: SyncNever, SegmentSize: 256})
	run(t, rc, rl, randomOps(rand.New(rand.NewSource(32)), 10))
	if _, err := rl.Checkpoint(rc.Save); err != nil {
		t.Fatal(err)
	}
	run(t, rc, rl, randomOps(rand.New(rand.NewSource(33)), 10))
	old, err := rl.SubscribeFrom(rl.OldestLSN())
	if err != nil {
		t.Fatal(err)
	}

	if err := rl.Rebase(snapLSN, pc.Save); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(replicaDir)
	ckpts, _ := listCheckpoints(replicaDir)
	if len(segs) != 1 || segs[0].seq != snapLSN+1 || len(ckpts) != 1 || ckpts[0].seq != snapLSN {
		t.Fatalf("after Rebase(%d): segments %v, checkpoints %v; want one of each, at %d and %d",
			snapLSN, segs, ckpts, snapLSN+1, snapLSN)
	}
	if rl.LastLSN() != snapLSN || rl.ShippedLSN() != snapLSN || rl.Segments() != 1 || rl.SinceCheckpoint() != 0 {
		t.Fatalf("rebased log: last %d shipped %d segments %d since checkpoint %d",
			rl.LastLSN(), rl.ShippedLSN(), rl.Segments(), rl.SinceCheckpoint())
	}
	if _, _, err := old.TryNext(); !errors.Is(err, ErrClosed) {
		t.Fatalf("a stream over the replaced history read on: %v", err)
	}

	op := core.Op{Kind: core.OpInsert, Time: 90, Coords: []int{1, 1}, Value: 3}
	if lsn, err := rl.Append(op); err != nil || lsn != snapLSN+1 {
		t.Fatalf("first append after Rebase: LSN %d, %v; want %d", lsn, err, snapLSN+1)
	}
	run(t, pc, pl, []core.Op{op})
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	cube, rl2, res := recoverCube(t, replicaDir, Options{Sync: SyncNever})
	defer rl2.Close()
	if res.CheckpointLSN != snapLSN || res.Replayed != 1 || rl2.LastLSN() != snapLSN+1 {
		t.Fatalf("recovered %+v at LSN %d, want checkpoint %d plus one record", res, rl2.LastLSN(), snapLSN)
	}
	assertEquivalent(t, pc, cube, r)
}

// TestRebaseRetriesAfterFailure: a Rebase whose snapshot cannot be
// written leaves the log closed at its old end — Stage refuses, Sync is
// a no-op — over a directory that recovers to an empty cube at LSN 0,
// and a retried Rebase then appends at lsn+1.
func TestRebaseRetriesAfterFailure(t *testing.T) {
	dir := t.TempDir()
	c, l, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	r := rand.New(rand.NewSource(41))
	run(t, c, l, randomOps(r, 30))
	if _, err := l.Checkpoint(c.Save); err != nil {
		t.Fatal(err)
	}
	run(t, c, l, randomOps(r, 10))

	boom := errors.New("snapshot source failed")
	if err := l.Rebase(500, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Rebase with a failing save = %v", err)
	}
	if got := l.LastLSN(); got != 40 {
		t.Fatalf("failed Rebase moved the log's end to %d, want it left at 40", got)
	}
	op := core.Op{Kind: core.OpInsert, Time: 90, Coords: []int{2, 3}, Value: 4}
	if _, err := l.stage(op); !errors.Is(err, ErrClosed) {
		t.Fatalf("stage after a failed Rebase = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after a failed Rebase = %v, want nil", err)
	}
	empty, el, res := recoverCube(t, dir, Options{Sync: SyncNever})
	if res.CheckpointLSN != 0 || el.LastLSN() != 0 || empty.Stats().AppendedUpdates != 0 {
		t.Fatalf("failed Rebase left %+v at LSN %d with %d updates, want an empty cube at LSN 0",
			res, el.LastLSN(), empty.Stats().AppendedUpdates)
	}
	if err := el.Close(); err != nil {
		t.Fatal(err)
	}

	if err := l.Rebase(500, c.Save); err != nil {
		t.Fatal(err)
	}
	run(t, c, l, []core.Op{op})
	if got := l.LastLSN(); got != 501 {
		t.Fatalf("first append after the retried Rebase landed at %d, want 501", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cube, l2, _ := recoverCube(t, dir, Options{Sync: SyncNever})
	defer l2.Close()
	assertEquivalent(t, c, cube, r)
}

// TestRebaseCrashPointsRecover recovers the directory as each step of
// Rebase leaves it: with the segments gone, to the old checkpoint's own
// LSN; with the checkpoints gone too, to an empty cube at LSN 0; with
// the new checkpoint written but its segment not yet created, to the
// new state at lsn, continuing at lsn+1.
func TestRebaseCrashPointsRecover(t *testing.T) {
	dir := t.TempDir()
	c, l, _ := recoverCube(t, dir, Options{Sync: SyncNever, SegmentSize: 256})
	defer l.Close()
	r := rand.New(rand.NewSource(51))
	run(t, c, l, randomOps(r, 40))
	ckptLSN, err := l.Checkpoint(c.Save)
	if err != nil {
		t.Fatal(err)
	}
	var atCkpt bytes.Buffer
	if err := c.Save(&atCkpt); err != nil {
		t.Fatal(err)
	}
	run(t, c, l, randomOps(r, 20))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	segsGone := copyDir(t, dir)
	segs, _ := listSegments(segsGone)
	for _, sg := range segs {
		if err := os.Remove(sg.path); err != nil {
			t.Fatal(err)
		}
	}
	got, gl, res := recoverCube(t, segsGone, Options{Sync: SyncNever})
	if res.CheckpointLSN != ckptLSN || gl.LastLSN() != ckptLSN {
		t.Fatalf("segments gone: recovered %+v at LSN %d, want checkpoint %d", res, gl.LastLSN(), ckptLSN)
	}
	want, err := core.Load(&atCkpt)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, want, got, r)
	gl.Close()

	src := newTestCube(t)
	run(t, src, mustDiscard(t, t.TempDir()), randomOps(rand.New(rand.NewSource(52)), 50))
	const lsn = 1000
	save := func(w io.Writer) error {
		// Both removals are behind Rebase by the time it writes.
		got, gl, res := recoverCube(t, copyDir(t, dir), Options{Sync: SyncNever})
		defer gl.Close()
		if res.CheckpointLSN != 0 || gl.LastLSN() != 0 || got.Stats().AppendedUpdates != 0 {
			t.Errorf("checkpoints gone: recovered %+v at LSN %d, want an empty cube at LSN 0", res, gl.LastLSN())
		}
		return src.Save(w)
	}
	if err := l.Rebase(lsn, save); err != nil {
		t.Fatal(err)
	}

	noSeg := copyDir(t, dir)
	if err := os.Remove(filepath.Join(noSeg, segName(lsn+1))); err != nil {
		t.Fatal(err)
	}
	got, gl, res = recoverCube(t, noSeg, Options{Sync: SyncNever})
	defer gl.Close()
	if res.CheckpointLSN != lsn || gl.LastLSN() != lsn {
		t.Fatalf("checkpoint written, no segment: recovered %+v at LSN %d, want %d", res, gl.LastLSN(), lsn)
	}
	assertEquivalent(t, src, got, r)
	if next, err := gl.Append(core.Op{Kind: core.OpInsert, Time: 90, Coords: []int{0, 0}, Value: 1}); err != nil || next != lsn+1 {
		t.Fatalf("append after recovery at %d: LSN %d, %v", lsn, next, err)
	}
}

// copyDir copies the regular files of dir into a fresh temporary
// directory — a crash image of dir as it stands.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
