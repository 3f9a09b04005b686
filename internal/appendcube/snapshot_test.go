package appendcube

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"histcube/internal/dims"
	"histcube/internal/oracle"
	"histcube/internal/pager"
)

// roundTrip sends c through one gob stream, as core.Save and core.Load
// do.
func roundTrip(c *Cube) (*Cube, error) {
	var buf bytes.Buffer
	if err := c.EncodeSnapshot(gob.NewEncoder(&buf)); err != nil {
		return nil, err
	}
	return DecodeSnapshot(gob.NewDecoder(&buf))
}

func TestSnapshotRoundTripMidStream(t *testing.T) {
	shape := dims.Shape{9, 7}
	c, err := New(Config{SliceShape: shape})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(81))
	var ref oracle.Points
	now := int64(0)
	apply := func(cube *Cube, record bool, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				now++
			}
			x := []int{r.Intn(9), r.Intn(7)}
			v := float64(r.Intn(9) - 4)
			if _, err := cube.Update(now, x, v); err != nil {
				t.Fatal(err)
			}
			if record {
				ref.Insert(now, x, v)
			}
		}
	}
	apply(c, true, 250)
	// Convert some historic cells before snapshotting, so PS flags
	// round-trip too.
	for q := 0; q < 30; q++ {
		b := randBox(r, shape)
		if _, err := c.Query(int64(r.Intn(int(now))), now, b); err != nil {
			t.Fatal(err)
		}
	}

	back, err := roundTrip(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSlices() != c.NumSlices() || back.Incomplete() != c.Incomplete() {
		t.Fatalf("state mismatch: slices %d/%d incomplete %d/%d",
			back.NumSlices(), c.NumSlices(), back.Incomplete(), c.Incomplete())
	}
	// Continue the same stream on both; they must stay identical.
	r2 := rand.New(rand.NewSource(82))
	for i := 0; i < 200; i++ {
		if r2.Intn(3) == 0 {
			now++
		}
		x := []int{r2.Intn(9), r2.Intn(7)}
		v := float64(r2.Intn(9) - 4)
		if _, err := c.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		if _, err := back.Update(now, x, v); err != nil {
			t.Fatal(err)
		}
		ref.Insert(now, x, v)
	}
	for q := 0; q < 120; q++ {
		b := randBox(r, shape)
		tLo := int64(r.Intn(int(now) + 2))
		tHi := tLo + int64(r.Intn(int(now)+2))
		want := ref.Query(tLo, tHi, b.Lo, b.Hi).Sum
		g1, err1 := c.Query(tLo, tHi, b)
		g2, err2 := back.Query(tLo, tHi, b)
		if err1 != nil || err2 != nil || g1 != want || g2 != want {
			t.Fatalf("q%d [%d,%d] %v: orig %v restored %v want %v", q, tLo, tHi, b, g1, g2, want)
		}
	}
}

func TestSnapshotEmptyCube(t *testing.T) {
	c, _ := New(Config{SliceShape: dims.Shape{4}})
	back, err := roundTrip(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSlices() != 0 {
		t.Errorf("restored empty cube has %d slices", back.NumSlices())
	}
	if _, err := back.Update(1, []int{0}, 1); err != nil {
		t.Errorf("restored empty cube rejects updates: %v", err)
	}
}

func TestSnapshotDiskUnsupported(t *testing.T) {
	pg, _ := pager.New(pager.NewMemBackend(64), 64)
	c, _ := New(Config{SliceShape: dims.Shape{4}, Store: NewDiskStore(4, pg)})
	if err := c.EncodeSnapshot(gob.NewEncoder(io.Discard)); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot(gob.NewDecoder(bytes.NewBufferString("junk"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSnapshotCellsRoundTripBitExact pins the slice cell codec: each
// float64 comes back with the same bits, including -0, infinities,
// subnormals, NaN payloads and values of every significant-byte count.
func TestSnapshotCellsRoundTripBitExact(t *testing.T) {
	bitsIn := []uint64{0, 1 << 63, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0x7ff8000000000001, 0xfff0000000000abc, 1, 0x000fffffffffffff, math.Float64bits(1), math.Float64bits(-2.5)}
	r := rand.New(rand.NewSource(29))
	for len(bitsIn) < 4096 {
		bitsIn = append(bitsIn, r.Uint64()>>uint(r.Intn(64)))
	}
	c, err := New(Config{SliceShape: dims.Shape{64, 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(1, []int{0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	ms := c.store.(*MemStore)
	for i, b := range bitsIn {
		ms.vals[0][i] = math.Float64frombits(b)
		ms.flags[0][i] = uint8(i % 3)
	}
	back, err := roundTrip(c)
	if err != nil {
		t.Fatal(err)
	}
	bms := back.store.(*MemStore)
	for i, b := range bitsIn {
		if got := math.Float64bits(bms.vals[0][i]); got != b || bms.flags[0][i] != ms.flags[0][i] {
			t.Fatalf("cell %d: bits %#x flag %d, want %#x flag %d", i, got, bms.flags[0][i], b, ms.flags[0][i])
		}
	}
}

// TestDecodeSnapshotRefusesCorruption: every inconsistency a corrupt
// snapshot can carry is an error, never a panic or a cube. The cases
// start from a valid 2x2 snapshot with one historic slice.
func TestDecodeSnapshotRefusesCorruption(t *testing.T) {
	valid := func() (snapshot, []sliceRecord) {
		return snapshot{Version: 2, Shape: []int{2, 2}, Times: []int64{1}, CacheVals: make([]float64, 4),
				CacheTS: make([]int32, 4), Slices: 1, Adaptive: true, Convert: true},
			[]sliceRecord{{Vals: []byte{0, 0, 0, 0}, Flags: make([]uint8, 4)}}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*snapshot, *[]sliceRecord)
		want   string
	}{
		{"valid", func(*snapshot, *[]sliceRecord) {}, ""},
		{"version 3", func(s *snapshot, _ *[]sliceRecord) { s.Version = 3 }, "version 3"},
		{"negative cache timestamp", func(s *snapshot, _ *[]sliceRecord) { s.CacheTS[2] = -1 }, "timestamp -1"},
		{"cache timestamp past latest", func(s *snapshot, _ *[]sliceRecord) { s.CacheTS[1] = 1 }, "timestamp 1"},
		{"v1 negative cache timestamp, no slices", func(s *snapshot, recs *[]sliceRecord) {
			s.Version, s.Times, s.Slices, *recs = 1, nil, 0, nil
			s.CacheTS[0] = -1
		}, "timestamp -1"},
		{"v1 cache timestamp 5, no slices", func(s *snapshot, recs *[]sliceRecord) {
			s.Version, s.Times, s.Slices, *recs = 1, nil, 0, nil
			s.CacheTS[3] = 5
		}, "timestamp 5"},
		{"v1 missing slice", func(s *snapshot, recs *[]sliceRecord) { s.Version, *recs = 1, nil }, "0 slices for 1 times"},
		{"v2 inline slices", func(s *snapshot, _ *[]sliceRecord) {
			s.SliceVals, s.SliceFlags = [][]float64{make([]float64, 4)}, [][]uint8{make([]uint8, 4)}
		}, "inline"},
		{"slice count", func(s *snapshot, _ *[]sliceRecord) { s.Slices = 2 }, "2 slices for 1 times"},
		{"missing slice message", func(_ *snapshot, recs *[]sliceRecord) { *recs = nil }, "slice 0"},
		{"short slice", func(_ *snapshot, recs *[]sliceRecord) { (*recs)[0].Vals = []byte{0, 0, 0} }, "cell 3"},
		{"truncated cell", func(_ *snapshot, recs *[]sliceRecord) { (*recs)[0].Vals = []byte{0, 0, 0, 2, 7} }, "cell 3"},
		{"cell length 9", func(_ *snapshot, recs *[]sliceRecord) {
			(*recs)[0].Vals = []byte{0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		}, "cell 3"},
		{"trailing bytes", func(_ *snapshot, recs *[]sliceRecord) { (*recs)[0].Vals = []byte{0, 0, 0, 0, 0} }, "after the last cell"},
		{"flags length", func(_ *snapshot, recs *[]sliceRecord) { (*recs)[0].Flags = make([]uint8, 3) }, "3 flags"},
		{"cache length", func(s *snapshot, _ *[]sliceRecord) { s.CacheVals = s.CacheVals[:3] }, "cache length"},
		{"copy cursor", func(s *snapshot, _ *[]sliceRecord) { s.Cursor = 4 }, "cursor"},
		// (2^62+1)*4 wraps to 4, which the cache's length would match.
		{"shape overflow", func(s *snapshot, _ *[]sliceRecord) { s.Shape = []int{1<<62 + 1, 4} }, "int can count"},
		{"times not increasing", func(s *snapshot, recs *[]sliceRecord) {
			s.Times, s.Slices = []int64{2, 2}, 2
			*recs = append(*recs, (*recs)[0])
		}, "times"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, recs := valid()
			tc.mutate(&s, &recs)
			var buf bytes.Buffer
			enc := gob.NewEncoder(&buf)
			if err := enc.Encode(&s); err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if err := enc.Encode(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			c, err := DecodeSnapshot(gob.NewDecoder(&buf))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid snapshot refused: %v", err)
			case tc.want != "" && (err == nil || c != nil):
				t.Fatalf("corrupt snapshot accepted (cube %v, err %v)", c != nil, err)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}
