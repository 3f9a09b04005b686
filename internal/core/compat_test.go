package core_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/wal"
)

// v1Fixture is a version-1 snapshot (historic slices inline in the gob
// header, the format every checkpoint, SAVE file and SNAP payload had
// before slices were streamed) of v1FixtureCube. It was written by
// Save at commit 5f6bbe6, the last commit whose encoder wrote version
// 1: check that commit out, paste v1FixtureCube and v1Queries into a
// test of internal/core there, and write v1FixtureCube(t).Save to the
// file.
const v1Fixture = "testdata/snapshot_v1_avg.gob"

// v1FixtureCube builds the cube behind v1Fixture: AVERAGE, so the
// snapshot holds a count cube, with a non-empty G_d buffer, and with
// part of its history converted to PS, so flags of both kinds load.
func v1FixtureCube(t testing.TB) *core.Cube {
	t.Helper()
	c, err := core.New(core.Config{
		Dims:             []core.Dim{{Name: "a", Size: 4}, {Name: "b", Size: 3}},
		Operator:         agg.Average,
		BufferOutOfOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(29))
	now := int64(1)
	for i := 0; i < 80; i++ {
		tv := now
		if i > 10 && r.Intn(5) == 0 {
			tv = int64(r.Intn(int(now))) // historic: lands in G_d
		} else if r.Intn(3) == 0 {
			now++
			tv = now
		}
		if err := c.Insert(tv, []int{r.Intn(4), r.Intn(3)}, float64(r.Intn(9)+1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rng := range v1Queries(7, 12) {
		if _, err := c.Query(rng); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// v1Queries is a seeded pool of ranges over v1FixtureCube's history.
func v1Queries(seed int64, n int) []core.Range {
	r := rand.New(rand.NewSource(seed))
	out := make([]core.Range, n)
	for i := range out {
		lo := []int{r.Intn(4), r.Intn(3)}
		hi := []int{lo[0] + r.Intn(4-lo[0]), lo[1] + r.Intn(3-lo[1])}
		tLo := int64(r.Intn(50))
		out[i] = core.Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(50)), Lo: lo, Hi: hi}
	}
	return out
}

// sameAnswers demands bit-identical answers from two cubes over a
// seeded pool (the queries convert cells on both alike).
func sameAnswers(t *testing.T, want, got *core.Cube, seed int64) {
	t.Helper()
	for _, rng := range v1Queries(seed, 300) {
		w, werr := want.Query(rng)
		g, gerr := got.Query(rng)
		if (werr == nil) != (gerr == nil) || math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("query %+v = %v (%v), want %v (%v)", rng, g, gerr, w, werr)
		}
	}
	ws, gs := want.Stats(), got.Stats()
	if ws.Slices != gs.Slices || ws.PendingOutOfOrder != gs.PendingOutOfOrder ||
		ws.AppendedUpdates != gs.AppendedUpdates || ws.OutOfOrderUpdates != gs.OutOfOrderUpdates {
		t.Fatalf("stats %+v, want %+v", gs, ws)
	}
}

func TestLoadV1Fixture(t *testing.T) {
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	live := v1FixtureCube(t)
	if live.Stats().PendingOutOfOrder == 0 {
		t.Fatal("fixture cube has an empty G_d buffer")
	}
	sameAnswers(t, live, back, 8)
}

// TestRecoverV1CheckpointWithLogTail: a data directory whose checkpoint
// is a version-1 file recovers, and the log tail replays on top of it.
func TestRecoverV1CheckpointWithLogTail(t *testing.T) {
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, l, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncNever}, func() (*core.Cube, error) {
		return core.Load(bytes.NewReader(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	// The log is empty, so the checkpoint covers LSN 0: the fixture's
	// own bytes are exactly that state.
	if _, err := l.Checkpoint(func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
		t.Fatal(err)
	}
	live := v1FixtureCube(t)
	r := rand.New(rand.NewSource(30))
	var tail []core.Op
	for tv := int64(40); len(tail) < 60; {
		op := core.Op{Kind: core.OpInsert, Time: tv, Coords: []int{r.Intn(4), r.Intn(3)}, Value: float64(r.Intn(9) + 1)}
		switch r.Intn(6) {
		case 0:
			op.Time = int64(r.Intn(30)) // out of order: into G_d
		case 1:
			op.Kind = core.OpDelete
		case 2:
			tv++
		}
		tail = append(tail, op)
	}
	for _, op := range tail {
		if _, err := l.Apply(context.Background(), live, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	back, l2, res, err := wal.Recover(dir, wal.Options{}, func() (*core.Cube, error) {
		t.Fatal("recovery ignored the version-1 checkpoint")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res.CheckpointsSkipped != 0 || res.Replayed != len(tail) || res.SkippedOps != 0 {
		t.Fatalf("recovery = %+v, want the checkpoint and %d replayed", res, len(tail))
	}
	sameAnswers(t, live, back, 9)
}
