package core

import (
	"context"
	"math/rand"
	"testing"

	"histcube/internal/agg"
)

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
			op := Op{Kind: OpDelete, Time: tv, Coords: coords, Value: v}
			stream = append(stream, op)
			err = live.ApplyOp(context.Background(), op)
		} else {
			stream = append(stream, Op{Kind: OpInsert, Time: tv, Coords: coords, Value: v})
			err = live.Insert(tv, coords, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range stream {
		if err := replayed.ApplyOp(context.Background(), op); err != nil {
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
	if err := c.ApplyOp(context.Background(), Op{Kind: 99, Time: 1, Coords: []int{0}}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if OpKind(99).String() == "" || OpInsert.String() != "insert" {
		t.Fatal("OpKind.String misbehaves")
	}
}
