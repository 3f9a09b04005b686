package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"histcube/internal/agg"
	"histcube/internal/core"
	"histcube/internal/oracle"
)

// The merge property the proxy's correctness rests on (Sec. 2.2
// invertible operators): for any range query, merging the per-shard
// answers over Route's clamped legs equals the oracle's scan of all
// the data — bit-identically, in any arrival order, including empty
// shards and boundary-straddling ranges. Deltas are integers so float
// addition is exact and the equality check can be strict (histlint's
// nofloateq does not run on _test.go files, and approximate comparison
// would hide real merge bugs here).

func newCube(t *testing.T, sizes []int, op agg.Operator) *core.Cube {
	t.Helper()
	ds := make([]core.Dim, len(sizes))
	for i, n := range sizes {
		ds[i] = core.Dim{Name: fmt.Sprintf("d%d", i), Size: n}
	}
	c, err := core.New(core.Config{Dims: ds, Operator: op, BufferOutOfOrder: true})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return c
}

func TestMergeEqualsSingleCubeProperty(t *testing.T) {
	for _, op := range []agg.Operator{agg.Sum, agg.Count, agg.Average} {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			sizes := []int{8, 8}
			const (
				tMax   = 400
				facts  = 600
				trials = 150
			)
			// Four shards with uneven boundaries; the first is left
			// deliberately empty (no facts land in 0-49) to cover the
			// empty-shard case.
			m := mustParse(t, "s0=0-49,s1=50-119,s2=120-299,s3=300-")
			shardCubes := make([]*core.Cube, m.Len())
			for i := range shardCubes {
				shardCubes[i] = newCube(t, sizes, op)
			}
			var ref oracle.Points

			for i := 0; i < facts; i++ {
				ts := int64(50 + rng.Intn(tMax-50)) // skip shard 0's range
				coords := []int{rng.Intn(sizes[0]), rng.Intn(sizes[1])}
				v := float64(rng.Intn(201) - 100)
				idx, ok := m.Locate(ts)
				if !ok {
					t.Fatalf("Locate(%d) found no shard", ts)
				}
				if err := shardCubes[idx].Insert(ts, coords, v); err != nil {
					t.Fatalf("shard insert: %v", err)
				}
				ref.Insert(ts, coords, v)
			}

			for trial := 0; trial < trials; trial++ {
				var tlo, thi int64
				switch trial % 4 {
				case 0: // arbitrary range
					tlo = int64(rng.Intn(tMax))
					thi = tlo + int64(rng.Intn(tMax-int(tlo)))
				case 1: // exactly boundary-straddling: ends near a shard edge
					edges := []int64{49, 50, 119, 120, 299, 300}
					e := edges[rng.Intn(len(edges))]
					tlo = e - int64(rng.Intn(30))
					if tlo < 0 {
						tlo = 0
					}
					thi = e + int64(rng.Intn(30))
				case 2: // whole history
					tlo, thi = 0, tMax
				case 3: // entirely within one shard
					tlo = int64(120 + rng.Intn(100))
					thi = tlo + int64(rng.Intn(int(300-tlo)))
				}
				lo := []int{rng.Intn(sizes[0]), rng.Intn(sizes[1])}
				hi := []int{lo[0] + rng.Intn(sizes[0]-lo[0]), lo[1] + rng.Intn(sizes[1]-lo[1])}

				legs := m.Route(tlo, thi)
				parts := make([]Partial, len(legs))
				for i, leg := range legs {
					// An AVG leg carries its (sum, count) pair, as the
					// proxy asks for it; the others their final value.
					v, err := shardCubes[leg.Index].QueryPairCtx(context.Background(), core.Range{
						TimeLo: leg.TimeLo, TimeHi: leg.TimeHi, Lo: lo, Hi: hi,
					})
					if err != nil {
						t.Fatalf("shard %s query: %v", leg.Addr, err)
					}
					parts[i] = Partial{Leg: leg, Value: agg.Finalize(op, v)}
					if op == agg.Average {
						parts[i] = Partial{Leg: leg, Value: v.Sum, Count: v.Count, Pair: true}
					}
				}
				// Shuffle arrival order; the merged total must not care.
				rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

				got := Merge(parts)
				if !got.Complete {
					t.Fatalf("trial %d: all shards answered but merge is not Complete", trial)
				}
				want := ref.Query(tlo, thi, lo, hi).Of(op.String())
				if got.Value != want {
					t.Fatalf("trial %d: merge(t=[%d,%d] box=%v..%v) = %v, oracle = %v",
						trial, tlo, thi, lo, hi, got.Value, want)
				}
			}
		})
	}
}

// A failed leg must subtract exactly that leg's contribution and mark
// the answer incomplete — never a wrong total presented as complete.
func TestMergeFailedLegMatchesReferenceHole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{6, 6}
	m := mustParse(t, "s0=0-99,s1=100-199,s2=200-")
	shardCubes := []*core.Cube{newCube(t, sizes, agg.Sum), newCube(t, sizes, agg.Sum), newCube(t, sizes, agg.Sum)}
	var ref oracle.Points
	for i := 0; i < 300; i++ {
		ts := int64(rng.Intn(300))
		coords := []int{rng.Intn(6), rng.Intn(6)}
		v := float64(rng.Intn(41) - 20)
		idx, _ := m.Locate(ts)
		if err := shardCubes[idx].Insert(ts, coords, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(ts, coords, v)
	}

	lo, hi := []int{0, 0}, []int{5, 5}
	legs := m.Route(0, 299)
	parts := make([]Partial, len(legs))
	for i, leg := range legs {
		if leg.Addr == "s1" {
			parts[i] = Partial{Leg: leg, Err: fmt.Errorf("injected: shard down")}
			continue
		}
		v, err := shardCubes[leg.Index].Query(core.Range{TimeLo: leg.TimeLo, TimeHi: leg.TimeHi, Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = Partial{Leg: leg, Value: v}
	}
	res := Merge(parts)
	if res.Complete {
		t.Fatal("merge with a dead shard claims Complete")
	}
	// The partial value must equal the reference answer with the dead
	// shard's time range carved out.
	left, right := ref.Query(0, 99, lo, hi).Sum, ref.Query(200, 299, lo, hi).Sum
	if res.Value != left+right {
		t.Fatalf("partial value %v != reference-with-hole %v", res.Value, left+right)
	}
	if FormatMissing(res.Missing) != "s1=100-199" {
		t.Fatalf("Missing = %q", FormatMissing(res.Missing))
	}
	if FormatRanges(res.Covered) != "0-99,200-299" {
		t.Fatalf("Covered = %q", FormatRanges(res.Covered))
	}
}
