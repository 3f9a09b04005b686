package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"testing/quick"

	"histcube/internal/agg"
	"histcube/internal/oracle"
)

func TestSaveLoadRoundTripSum(t *testing.T) {
	c, err := New(Config{
		Dims:             []Dim{{Name: "a", Size: 6}, {Name: "b", Size: 5}},
		Operator:         agg.Sum,
		BufferOutOfOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(71))
	var ref oracle.Points
	now := int64(1)
	for i := 0; i < 300; i++ {
		var tv int64
		if r.Intn(8) == 0 {
			tv = int64(r.Intn(int(now)))
		} else {
			if r.Intn(3) == 0 {
				now++
			}
			tv = now
		}
		x, v := []int{r.Intn(6), r.Intn(5)}, float64(r.Intn(9)+1)
		if err := c.Insert(tv, x, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(tv, x, v)
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Restored cube answers identically, including buffered
	// out-of-order updates.
	for q := 0; q < 100; q++ {
		lo := []int{r.Intn(6), r.Intn(5)}
		hi := []int{lo[0] + r.Intn(6-lo[0]), lo[1] + r.Intn(5-lo[1])}
		tLo := int64(r.Intn(int(now) + 2))
		rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
		want, err := c.Query(rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Query(rng)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("restored query %+v = %v, want %v", rng, got, want)
		}
		if naive := oracleAt(ref, agg.Sum, rng); got != naive {
			t.Fatalf("restored query %+v = %v, oracle %v", rng, got, naive)
		}
	}
	st, bst := c.Stats(), back.Stats()
	if bst.Slices != st.Slices || bst.PendingOutOfOrder != st.PendingOutOfOrder ||
		bst.AppendedUpdates != st.AppendedUpdates || bst.OutOfOrderUpdates != st.OutOfOrderUpdates {
		t.Errorf("stats differ: %+v vs %+v", bst, st)
	}
}

func TestSaveLoadContinuesIngest(t *testing.T) {
	// A restored cube must accept further appends seamlessly (the
	// copy-ahead state survives the round trip).
	c, _ := New(Config{Dims: []Dim{{Name: "x", Size: 8}}, Operator: agg.Sum})
	for i := 0; i < 200; i++ {
		if err := c.Insert(int64(i/20), []int{i % 8}, 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 400; i++ {
		if err := back.Insert(int64(i/20), []int{i % 8}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(int64(i/20), []int{i % 8}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for q := int64(0); q < 20; q++ {
		rng := Range{TimeLo: q, TimeHi: q + 3, Lo: []int{0}, Hi: []int{7}}
		a, _ := c.Query(rng)
		b, _ := back.Query(rng)
		if a != b {
			t.Fatalf("diverged after restore at window %d: %v vs %v", q, a, b)
		}
	}
}

func TestSaveLoadAverage(t *testing.T) {
	c, _ := New(Config{Dims: []Dim{{Name: "x", Size: 8}}, Operator: agg.Average, BufferOutOfOrder: true})
	for _, p := range []struct {
		t int64
		x int
		v float64
	}{{10, 1, 4}, {20, 1, 8}, {15, 2, 6}} {
		if err := c.Insert(p.t, []int{p.x}, p.v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := Range{TimeLo: 0, TimeHi: 30, Lo: []int{0}, Hi: []int{7}}
	want, _ := c.Query(rng)
	got, err := back.Query(rng)
	if err != nil || got != want || got != 6 {
		t.Fatalf("restored avg = %v (%v), want %v", got, err, want)
	}
}

// TestSaveLoadOutOfOrderBuffers pins the snapshot round trip for
// cubes with non-empty G_d buffers: an AVERAGE cube keeps *two*
// R*-trees (sum and count), and both must survive Save/Load with
// query equivalence across windows that do and do not overlap the
// buffered points.
func TestSaveLoadOutOfOrderBuffers(t *testing.T) {
	for _, op := range []agg.Operator{agg.Sum, agg.Count, agg.Average} {
		t.Run(op.String(), func(t *testing.T) {
			c, err := New(Config{
				Dims:             []Dim{{Name: "a", Size: 5}, {Name: "b", Size: 4}},
				Operator:         op,
				BufferOutOfOrder: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(op) + 100))
			now := int64(1)
			buffered := 0
			for i := 0; i < 250; i++ {
				var tv int64
				if i > 10 && r.Intn(3) == 0 {
					tv = int64(r.Intn(int(now))) // historic: lands in G_d
					buffered++
				} else {
					if r.Intn(3) == 0 {
						now++
					}
					tv = now
				}
				if err := c.Insert(tv, []int{r.Intn(5), r.Intn(4)}, float64(r.Intn(7)+1)); err != nil {
					t.Fatal(err)
				}
			}
			if n := c.Stats().PendingOutOfOrder; n == 0 || n != buffered {
				t.Fatalf("pending out-of-order = %d, want %d (test must exercise G_d)", n, buffered)
			}

			first := saved(t, c)
			back, err := Load(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			if got := back.Stats().PendingOutOfOrder; got != buffered {
				t.Fatalf("restored pending out-of-order = %d, want %d", got, buffered)
			}
			// G_d is saved in a canonical order, so the restored cube,
			// whose R*-trees grew in another order, saves to the same
			// bytes.
			if !bytes.Equal(saved(t, back), first) {
				t.Fatal("the restored cube saves to different bytes")
			}
			for q := 0; q < 120; q++ {
				lo := []int{r.Intn(5), r.Intn(4)}
				hi := []int{lo[0] + r.Intn(5-lo[0]), lo[1] + r.Intn(4-lo[1])}
				tLo := int64(r.Intn(int(now) + 2))
				rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
				want, err := c.Query(rng)
				if err != nil {
					t.Fatal(err)
				}
				got, err := back.Query(rng)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("restored %s query %+v = %v, want %v", op, rng, got, want)
				}
			}
			// The restored buffers must also absorb further
			// out-of-order updates identically.
			for i := 0; i < 40; i++ {
				tv := int64(r.Intn(int(now)))
				coords := []int{r.Intn(5), r.Intn(4)}
				v := float64(r.Intn(7) + 1)
				if err := c.Insert(tv, coords, v); err != nil {
					t.Fatal(err)
				}
				if err := back.Insert(tv, coords, v); err != nil {
					t.Fatal(err)
				}
			}
			rng := Range{TimeLo: 0, TimeHi: now + 1, Lo: []int{0, 0}, Hi: []int{4, 3}}
			want, _ := c.Query(rng)
			got, _ := back.Query(rng)
			if want != got {
				t.Fatalf("post-restore ingest diverged: %v vs %v", got, want)
			}
		})
	}
}

func TestSaveRejectsDiskCube(t *testing.T) {
	c, _ := New(Config{Dims: []Dim{{Name: "x", Size: 8}}, Operator: agg.Sum, Storage: Storage{Kind: Disk}})
	if err := c.Insert(1, []int{0}, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err == nil {
		t.Error("disk-backed cube snapshot accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewBuffer(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// Property: save/load is lossless for random cubes and operators.
func TestSnapshotLosslessProperty(t *testing.T) {
	ops := []agg.Operator{agg.Sum, agg.Count, agg.Average}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(Config{
			Dims:     []Dim{{Name: "x", Size: r.Intn(6) + 2}, {Name: "y", Size: r.Intn(6) + 2}},
			Operator: ops[r.Intn(len(ops))],
		})
		if err != nil {
			return false
		}
		shape := c.Shape()
		now := int64(0)
		for i := 0; i < 120; i++ {
			if r.Intn(3) == 0 {
				now++
			}
			if c.Insert(now, []int{r.Intn(shape[0]), r.Intn(shape[1])}, float64(r.Intn(20)+1)) != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if c.Save(&buf) != nil {
			return false
		}
		back, err := Load(&buf)
		if err != nil {
			return false
		}
		for q := 0; q < 25; q++ {
			lo := []int{r.Intn(shape[0]), r.Intn(shape[1])}
			hi := []int{lo[0] + r.Intn(shape[0]-lo[0]), lo[1] + r.Intn(shape[1]-lo[1])}
			tLo := int64(r.Intn(int(now) + 2))
			rng := Range{TimeLo: tLo, TimeHi: tLo + int64(r.Intn(int(now)+2)), Lo: lo, Hi: hi}
			a, e1 := c.Query(rng)
			b, e2 := back.Query(rng)
			if e1 != nil || e2 != nil || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// oooCube is a small AVERAGE cube with both G_d buffers non-empty and
// part of its history converted to PS: every section of a snapshot.
func oooCube(t testing.TB) *Cube {
	t.Helper()
	c, err := New(Config{Dims: []Dim{{Name: "a", Size: 4}, {Name: "b", Size: 3}}, Operator: agg.Average, BufferOutOfOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	now := int64(1)
	for i := 0; i < 60; i++ {
		tv := now
		if i > 5 && r.Intn(4) == 0 {
			tv = int64(r.Intn(int(now)))
		} else if r.Intn(3) == 0 {
			now++
			tv = now
		}
		if err := c.Insert(tv, []int{r.Intn(4), r.Intn(3)}, float64(r.Intn(9)+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(Range{TimeLo: 2, TimeHi: now, Lo: []int{0, 0}, Hi: []int{3, 2}}); err != nil {
		t.Fatal(err)
	}
	return c
}

func saved(t testing.TB, c *Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRefusesCorruptHeader: header inconsistencies that used to
// index past a slice inside Load are errors.
func TestLoadRefusesCorruptHeader(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*header)
	}{
		{"dim names short", func(h *header) { h.DimNames = h.DimNames[:1] }},
		{"dim sizes differ from the cube", func(h *header) { h.DimSizes[1]++ }},
		{"gd coords short", func(h *header) { h.GdCoords = h.GdCoords[:len(h.GdCoords)-1] }},
		{"gd sums short", func(h *header) { h.GdSum = h.GdSum[:0] }},
		{"gd count coords short", func(h *header) { h.GdCntCoords = h.GdCntCoords[1:] }},
		{"gd counts short", func(h *header) { h.GdCount = h.GdCount[1:] }},
		{"gd point with too few coords", func(h *header) { h.GdCoords[0] = h.GdCoords[0][:1] }},
		{"gd point outside the cube", func(h *header) { h.GdCntCoords[0][0] = 4 }},
		{"count cube without AVERAGE", func(h *header) { h.Operator = int(agg.Sum) }},
		{"AVERAGE without count cube", func(h *header) { h.HasCount = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := oooCube(t)
			var h header
			if err := gob.NewDecoder(bytes.NewReader(saved(t, c))).Decode(&h); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&h)
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			if err := enc.Encode(&h); err != nil {
				t.Fatal(err)
			}
			if err := c.sum.EncodeSnapshot(enc); err != nil {
				t.Fatal(err)
			}
			if err := c.cnt.EncodeSnapshot(enc); err != nil {
				t.Fatal(err)
			}
			if back, err := Load(&buf); err == nil || back != nil {
				t.Fatalf("corrupt header loaded (err %v)", err)
			}
		})
	}
}

// TestLoadRefusesEveryTruncation: a snapshot cut short anywhere is an
// error, never a panic and never a cube.
func TestLoadRefusesEveryTruncation(t *testing.T) {
	data := saved(t, oooCube(t))
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for cut := range data {
		if back, err := Load(bytes.NewReader(data[:cut])); err == nil || back != nil {
			t.Fatalf("snapshot cut at %d of %d bytes loaded (err %v)", cut, len(data), err)
		}
	}
}

// FuzzSnapshotLoad: arbitrary bytes never panic Load, and whatever
// loads saves and reloads bit-identically.
func FuzzSnapshotLoad(f *testing.F) {
	f.Add(saved(f, oooCube(f)))
	if v1, err := os.ReadFile("testdata/snapshot_v1_avg.gob"); err == nil {
		f.Add(v1)
	}
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := saved(t, c)
		back, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if twice := saved(t, back); !bytes.Equal(once, twice) {
			t.Fatalf("save/load/save differs: %d vs %d bytes", len(once), len(twice))
		}
	})
}

// saveStreamsLimit bounds what Save may allocate for the 150-slice
// 64x64 cube of TestSaveStreams. Encoding the history as one gob
// message allocates ~13 MB there; streaming it slice by slice ~0.3 MB.
const saveStreamsLimit = 1 << 20

// TestSaveStreams: Save never buffers the snapshot whole, so what it
// allocates is O(one slice), not O(history).
func TestSaveStreams(t *testing.T) {
	c, err := New(Config{Dims: []Dim{{Name: "x", Size: 64}, {Name: "y", Size: 64}}, Operator: agg.Sum, BufferOutOfOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(43))
	for tv := int64(1); tv <= 150; tv++ {
		for i := 0; i < 40; i++ {
			if err := c.Insert(tv, []int{r.Intn(64), r.Intn(64)}, float64(r.Intn(100))+0.25); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Retire(); err != nil { // every slice copied: full-size history
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= saveStreamsLimit {
		t.Fatalf("Save of %d slices allocated %d bytes, want < %d", c.Stats().Slices, got, saveStreamsLimit)
	} else {
		t.Logf("Save of %d slices allocated %d bytes", c.Stats().Slices, got)
	}
}
