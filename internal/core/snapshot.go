package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"histcube/internal/agg"
	"histcube/internal/appendcube"
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

	// Buffered out-of-order updates (flattened from the R*-trees).
	// The count buffer is serialised with its own coordinates: the two
	// trees hold the same points but walk in structural order.
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
		c.gd.Tree().Walk(func(e rstar.Entry) bool {
			h.GdTimes = append(h.GdTimes, int64(e.Coords[0]))
			h.GdCoords = append(h.GdCoords, append([]int(nil), e.Coords[1:]...))
			h.GdSum = append(h.GdSum, e.Value)
			return true
		})
		if c.cgd != nil {
			c.cgd.Tree().Walk(func(e rstar.Entry) bool {
				h.GdCntTimes = append(h.GdCntTimes, int64(e.Coords[0]))
				h.GdCntCoords = append(h.GdCntCoords, append([]int(nil), e.Coords[1:]...))
				h.GdCount = append(h.GdCount, e.Value)
				return true
			})
		}
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&h); err != nil {
		return err
	}
	if err := c.sum.EncodeSnapshot(enc); err != nil {
		return err
	}
	if c.cnt != nil {
		return c.cnt.EncodeSnapshot(enc)
	}
	return nil
}

// Load reconstructs a cube written by Save.
func Load(r io.Reader) (*Cube, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot header: %w", err)
	}
	if h.Version != coreSnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d not supported", h.Version)
	}
	cfg := Config{Operator: agg.Operator(h.Operator), BufferOutOfOrder: h.HasGd}
	for i := range h.DimSizes {
		cfg.Dims = append(cfg.Dims, Dim{Name: h.DimNames[i], Size: h.DimSizes[i]})
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.appended = h.Appended
	c.outOfOrder = h.OutOfOrder
	c.sum, err = appendcube.DecodeSnapshot(dec)
	if err != nil {
		return nil, err
	}
	if h.HasCount {
		c.cnt, err = appendcube.DecodeSnapshot(dec)
		if err != nil {
			return nil, err
		}
	} else {
		c.cnt = nil
	}
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
