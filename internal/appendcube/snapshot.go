package appendcube

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"histcube/internal/dims"
)

// ErrSnapshotUnsupported reports a snapshot of a cube whose historic
// store is not the in-memory store (disk-backed cubes already persist
// through their pager file).
var ErrSnapshotUnsupported = errors.New("appendcube: snapshots support memory-backed cubes only")

// snapshot is the serialised cube state. All cost counters restart at
// zero on restore; they are measurements, not state. Version 1 carries
// the historic slices in SliceVals/SliceFlags; version 2 leaves them
// out, counts them in Slices and streams one sliceRecord per slice
// after this header, so neither side ever holds the history twice.
type snapshot struct {
	Version    int
	Shape      []int
	Times      []int64
	CacheVals  []float64
	CacheTS    []int32
	SliceVals  [][]float64 // version 1 only
	SliceFlags [][]uint8   // version 1 only
	Slices     int         // version 2 only

	Threshold    int
	Adaptive     bool
	TotalUpdates int
	SliceUpds    int
	EstPerSlice  float64
	Cursor       int
	Convert      bool
}

// sliceRecord is one historic slice of a version-2 snapshot. Vals holds
// each cell as a byte k (0..8) followed by the k low bytes, little
// endian, of its byte-reversed IEEE bits: the significant bytes gob
// keeps for a float, written without gob's per-value work.
type sliceRecord struct {
	Vals  []byte
	Flags []uint8
}

const snapshotVersion = 2

// EncodeSnapshot writes the cube into an existing gob stream, so a
// caller can frame it with its own metadata (gob decoders read ahead,
// so one stream must use one encoder/decoder pair end to end): a header
// message, then one message per historic slice.
func (c *Cube) EncodeSnapshot(enc *gob.Encoder) error {
	ms, ok := c.store.(*MemStore)
	if !ok {
		return ErrSnapshotUnsupported
	}
	s := snapshot{
		Version:      snapshotVersion,
		Shape:        c.shape,
		Times:        c.dir.Times(),
		CacheVals:    make([]float64, len(c.cache)),
		CacheTS:      make([]int32, len(c.cache)),
		Slices:       len(ms.vals),
		Threshold:    c.threshold,
		Adaptive:     c.adaptive,
		TotalUpdates: c.totalUpdates,
		SliceUpds:    c.sliceUpds,
		EstPerSlice:  c.estPerSlice,
		Cursor:       c.z,
		Convert:      c.convert,
	}
	for i, cell := range c.cache {
		s.CacheVals[i] = cell.val
		s.CacheTS[i] = cell.ts
	}
	if err := enc.Encode(&s); err != nil {
		return err
	}
	rec := sliceRecord{Vals: make([]byte, 0, 9*len(c.cache))}
	for i, vals := range ms.vals {
		rec.Vals = rec.Vals[:0]
		for _, v := range vals {
			u := bits.ReverseBytes64(math.Float64bits(v))
			k := (bits.Len64(u) + 7) / 8
			n := len(rec.Vals) + 1 + k
			rec.Vals = binary.LittleEndian.AppendUint64(append(rec.Vals, byte(k)), u)[:n]
		}
		rec.Flags = ms.flags[i]
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}

// decodeCells inverts EncodeSnapshot's cell encoding: b must hold
// exactly size cells and then 8 bytes of padding, so that every cell
// reads one whole word.
func decodeCells(b []byte, size int) ([]float64, error) {
	vals := make([]float64, size)
	for i := range vals {
		k := int(b[0])
		if k > 8 || len(b) < 9+k {
			return nil, fmt.Errorf("cell %d is truncated or has a bad length", i)
		}
		vals[i] = math.Float64frombits(bits.ReverseBytes64(binary.LittleEndian.Uint64(b[1:9]) & (1<<(8*k) - 1)))
		b = b[1+k:]
	}
	if len(b) != 8 {
		return nil, fmt.Errorf("%d bytes after the last cell", len(b)-8)
	}
	return vals, nil
}

// DecodeSnapshot reads a cube from an existing gob stream (the
// counterpart of EncodeSnapshot). It also reads version 1, which
// carries the historic slices inside the header.
func DecodeSnapshot(dec *gob.Decoder) (*Cube, error) {
	var s snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("appendcube: decoding snapshot: %w", err)
	}
	if s.Version == 1 {
		s.Slices = len(s.SliceVals)
	} else if s.Version != snapshotVersion || len(s.SliceVals) != 0 {
		return nil, fmt.Errorf("appendcube: snapshot version %d with %d inline slices not supported", s.Version, len(s.SliceVals))
	}
	shape := dims.Shape(s.Shape)
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("appendcube: snapshot shape: %w", err)
	}
	size := shape.Size()
	if len(s.CacheVals) != size || len(s.CacheTS) != size {
		return nil, fmt.Errorf("appendcube: snapshot cache length %d does not match shape size %d", len(s.CacheVals), size)
	}
	if s.Slices != len(s.Times) || len(s.SliceFlags) != len(s.SliceVals) {
		return nil, fmt.Errorf("appendcube: snapshot has %d slices for %d times", s.Slices, len(s.Times))
	}
	for i := range s.SliceVals {
		if len(s.SliceVals[i]) != size || len(s.SliceFlags[i]) != size {
			return nil, fmt.Errorf("appendcube: snapshot slice %d has wrong size", i)
		}
	}
	if s.Cursor < 0 || s.Cursor >= size {
		return nil, fmt.Errorf("appendcube: snapshot copy cursor %d outside the slice", s.Cursor)
	}
	threshold := s.Threshold
	if s.Adaptive {
		threshold = 0
	} else if threshold == 0 {
		threshold = -1
	}
	c, err := New(Config{SliceShape: shape, CopyAheadThreshold: threshold, DisableConversion: !s.Convert})
	if err != nil {
		return nil, err
	}
	ms := c.store.(*MemStore)
	ms.vals = s.SliceVals
	ms.flags = s.SliceFlags
	var rec sliceRecord
	for i := len(ms.vals); i < s.Slices; i++ {
		rec.Vals, rec.Flags = rec.Vals[:0], nil
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("appendcube: decoding snapshot slice %d: %w", i, err)
		}
		rec.Vals = append(rec.Vals, make([]byte, 8)...)
		vals, err := decodeCells(rec.Vals, size)
		if err == nil && len(rec.Flags) != size {
			err = fmt.Errorf("%d flags", len(rec.Flags))
		}
		if err != nil {
			return nil, fmt.Errorf("appendcube: snapshot slice %d: %w", i, err)
		}
		ms.vals = append(ms.vals, vals)
		ms.flags = append(ms.flags, rec.Flags)
	}
	// Rebuild the time directory; Append rejects non-increasing times,
	// so a corrupted snapshot fails here instead of corrupting lookups.
	for _, t := range s.Times {
		if _, err := c.dir.Append(t); err != nil {
			return nil, fmt.Errorf("appendcube: snapshot times: %w", err)
		}
	}
	c.totalUpdates = s.TotalUpdates
	c.sliceUpds = s.SliceUpds
	c.estPerSlice = s.EstPerSlice
	c.z = s.Cursor
	// Rebuild cache and the incomplete-tracking state (slot 0 exists
	// even before the first slice: fresh caches carry timestamp 0).
	c.tsCount = make([]int, max(len(s.Times), 1))
	for i := range c.cache {
		ts := s.CacheTS[i]
		if ts < 0 || int(ts) >= len(c.tsCount) {
			return nil, fmt.Errorf("appendcube: snapshot cache timestamp %d outside [0, %d]", ts, len(c.tsCount)-1)
		}
		c.cache[i] = cacheCell{val: s.CacheVals[i], ts: ts}
		c.tsCount[ts]++
	}
	latest := len(s.Times) - 1
	c.minTS = 0
	for c.minTS < latest && c.tsCount[c.minTS] == 0 {
		c.minTS++
	}
	return c, nil
}
