package core

import (
	"bufio"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"histcube/internal/agg"
	"histcube/internal/appendcube"
	"histcube/internal/dims"
	"histcube/internal/rstar"
)

// header is the serialised facade state around the inner cube
// snapshots.
type header struct {
	Version  int
	Operator int
	DimNames []string
	DimSizes []int
	HasCount bool
	HasGd    bool

	Appended   int64
	OutOfOrder int64

	// Buffered out-of-order updates (flattened from the R*-trees, see
	// gdEntries). The count buffer is serialised with its own
	// coordinates: the two trees hold the same points, but equal points
	// may sort differently by value.
	GdTimes     []int64
	GdCoords    [][]int
	GdSum       []float64
	GdCntTimes  []int64
	GdCntCoords [][]int
	GdCount     []float64
}

const coreSnapshotVersion = 1

// Save serialises the cube so Load can reconstruct it: configuration,
// the inner append-only cubes, and any buffered out-of-order updates.
// The inner cubes stream one historic slice per message through a
// 64 KiB buffer, so Save holds O(one slice) beyond the cube itself.
// Only memory-backed storage is supported (disk-backed cubes persist
// through their page file).
func (c *Cube) Save(w io.Writer) error {
	h := header{
		Version:    coreSnapshotVersion,
		Operator:   int(c.cfg.Operator),
		HasCount:   c.cnt != nil,
		HasGd:      c.gd != nil,
		Appended:   c.appended,
		OutOfOrder: c.outOfOrder,
	}
	for _, d := range c.cfg.Dims {
		h.DimNames = append(h.DimNames, d.Name)
		h.DimSizes = append(h.DimSizes, d.Size)
	}
	if c.gd != nil {
		h.GdTimes, h.GdCoords, h.GdSum = gdEntries(c.gd)
		if c.cgd != nil {
			h.GdCntTimes, h.GdCntCoords, h.GdCount = gdEntries(c.cgd)
		}
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(&h); err != nil {
		return err
	}
	if err := c.sum.EncodeSnapshot(enc); err != nil {
		return err
	}
	if c.cnt != nil {
		if err := c.cnt.EncodeSnapshot(enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// gdEntries flattens an out-of-order buffer in a canonical order (time,
// coordinates, value bits), so equal buffers save to equal bytes
// whatever the shape of their R*-trees.
func gdEntries(g *rstar.Gd) (times []int64, coords [][]int, vals []float64) {
	var es []rstar.Entry
	g.Tree().Walk(func(e rstar.Entry) bool {
		es = append(es, rstar.Entry{Coords: slices.Clone(e.Coords), Value: e.Value})
		return true
	})
	slices.SortFunc(es, func(a, b rstar.Entry) int {
		return cmp.Or(slices.Compare(a.Coords, b.Coords), cmp.Compare(math.Float64bits(a.Value), math.Float64bits(b.Value)))
	})
	for _, e := range es {
		times = append(times, int64(e.Coords[0]))
		coords = append(coords, e.Coords[1:])
		vals = append(vals, e.Value)
	}
	return times, coords, vals
}

// Load reconstructs a cube written by Save, in either snapshot version.
// A corrupt or truncated snapshot is an error, never a panic.
func Load(r io.Reader) (*Cube, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot header: %w", err)
	}
	if h.Version != coreSnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d not supported", h.Version)
	}
	if len(h.DimNames) != len(h.DimSizes) || h.HasCount != (agg.Operator(h.Operator) == agg.Average) ||
		len(h.GdCoords) != len(h.GdTimes) || len(h.GdSum) != len(h.GdTimes) ||
		len(h.GdCntCoords) != len(h.GdCntTimes) || len(h.GdCount) != len(h.GdCntTimes) {
		return nil, errors.New("core: snapshot header is inconsistent")
	}
	for _, x := range slices.Concat(h.GdCoords, h.GdCntCoords) {
		if !dims.Shape(h.DimSizes).Contains(x) {
			return nil, fmt.Errorf("core: snapshot buffers a point at %v outside the cube", x)
		}
	}
	// Read the inner cubes before New sizes anything after the header,
	// so a corrupt header cannot make Load allocate more than it read.
	sum, err := appendcube.DecodeSnapshot(dec)
	var cnt *appendcube.Cube
	if err == nil && h.HasCount {
		cnt, err = appendcube.DecodeSnapshot(dec)
	}
	if err != nil {
		return nil, err
	}
	if !slices.Equal([]int(sum.SliceShape()), h.DimSizes) || (cnt != nil && !slices.Equal(cnt.SliceShape(), sum.SliceShape())) {
		return nil, fmt.Errorf("core: snapshot cube shapes do not match dimensions %v", h.DimSizes)
	}
	cfg := Config{Operator: agg.Operator(h.Operator), BufferOutOfOrder: h.HasGd}
	for i := range h.DimSizes {
		cfg.Dims = append(cfg.Dims, Dim{Name: h.DimNames[i], Size: h.DimSizes[i]})
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.sum, c.cnt = sum, cnt
	c.appended = h.Appended
	c.outOfOrder = h.OutOfOrder
	if h.HasGd {
		for i := range h.GdTimes {
			c.gd.Insert(h.GdTimes[i], h.GdCoords[i], h.GdSum[i])
		}
		if c.cgd != nil {
			for i := range h.GdCntTimes {
				c.cgd.Insert(h.GdCntTimes[i], h.GdCntCoords[i], h.GdCount[i])
			}
		}
	}
	return c, nil
}
