package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"histcube/internal/agg"
)

func TestOpSinkSeesEveryMutation(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{Name: "x", Size: 8}}, Operator: agg.Sum, BufferOutOfOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []Op
	c.SetOpSink(func(op Op) error {
		// The sink must be able to keep the op without aliasing the
		// caller's coords slice.
		op.Coords = append([]int(nil), op.Coords...)
		got = append(got, op)
		return nil
	})
	if err := c.Insert(1, []int{2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteCtx(context.Background(), 1, []int{2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(1, []int{0}, 7); err != nil { // out of order: buffered, still logged
		t.Fatal(err)
	}
	want := []Op{
		{Kind: OpInsert, Time: 1, Coords: []int{2}, Value: 5},
		{Kind: OpDelete, Time: 1, Coords: []int{2}, Value: 3},
		{Kind: OpInsert, Time: 1, Coords: []int{0}, Value: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Time != want[i].Time ||
			got[i].Value != want[i].Value || got[i].Coords[0] != want[i].Coords[0] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOpSinkErrorAborts(t *testing.T) {
	c, _ := New(Config{Dims: []Dim{{Name: "x", Size: 8}}, Operator: agg.Sum})
	sinkErr := errors.New("disk full")
	c.SetOpSink(func(Op) error { return sinkErr })
	if err := c.Insert(1, []int{0}, 1); !errors.Is(err, sinkErr) {
		t.Fatalf("Insert error = %v, want sink error", err)
	}
	// The mutation must not have been applied: detach the sink and
	// check the cube is still empty.
	c.SetOpSink(nil)
	if st := c.Stats(); st.AppendedUpdates != 0 || st.Slices != 0 {
		t.Fatalf("aborted insert mutated the cube: %+v", st)
	}
}

func TestApplyOpReplayEquivalence(t *testing.T) {
	mk := func() *Cube {
		c, err := New(Config{
			Dims:             []Dim{{Name: "x", Size: 6}, {Name: "y", Size: 5}},
			Operator:         agg.Average,
			BufferOutOfOrder: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	live, replayed := mk(), mk()
	var stream []Op
	live.SetOpSink(func(op Op) error {
		op.Coords = append([]int(nil), op.Coords...)
		stream = append(stream, op)
		return nil
	})
	r := rand.New(rand.NewSource(21))
	now := int64(1)
	for i := 0; i < 300; i++ {
		var tv int64
		if r.Intn(7) == 0 && now > 1 {
			tv = int64(r.Intn(int(now)))
		} else {
			if r.Intn(3) == 0 {
				now++
			}
			tv = now
		}
		coords := []int{r.Intn(6), r.Intn(5)}
		v := float64(r.Intn(9) + 1)
		var err error
		if r.Intn(6) == 0 {
			err = live.DeleteCtx(context.Background(), tv, coords, v)
		} else {
			err = live.Insert(tv, coords, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// ApplyOp must bypass the sink: attach a tripwire to the replay
	// target.
	replayed.SetOpSink(func(Op) error {
		t.Fatal("replay re-entered the sink")
		return nil
	})
	for _, op := range stream {
		if err := replayed.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 80; q++ {
		lo := []int{r.Intn(6), r.Intn(5)}
		hi := []int{lo[0] + r.Intn(6-lo[0]), lo[1] + r.Intn(5-lo[1])}
		tLo := int64(r.Intn(int(now) + 2))
		rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
		a, e1 := live.Query(rng)
		b, e2 := replayed.Query(rng)
		if e1 != nil || e2 != nil || a != b {
			t.Fatalf("query %+v: live %v (%v), replayed %v (%v)", rng, a, e1, b, e2)
		}
	}
}

func TestApplyOpUnknownKind(t *testing.T) {
	c, _ := New(Config{Dims: []Dim{{Name: "x", Size: 4}}, Operator: agg.Sum})
	if err := c.ApplyOp(Op{Kind: 99, Time: 1, Coords: []int{0}}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if OpKind(99).String() == "" || OpInsert.String() != "insert" {
		t.Fatal("OpKind.String misbehaves")
	}
}
