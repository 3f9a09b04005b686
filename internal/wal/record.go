package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"histcube/internal/core"
	"histcube/internal/dims"
)

// On-disk layout.
//
// A segment file is a 16-byte header followed by records:
//
//	header:  magic "HWAL" | version u32 | firstLSN u64
//	record:  crc32 u32 | size u32 | payload (size bytes)
//	payload: kind u8 | time i64 | ndims u16 | coord i64 × ndims | value f64
//
// Everything is little-endian. The CRC (IEEE) covers the payload only;
// the size field is validated by range before it is trusted. Records
// carry no explicit LSN: a record's LSN is the segment's firstLSN plus
// its index, which stays correct because records are only ever added
// after the last one and recovery truncates any torn tail before new
// appends continue.
//
// The active segment is a sparse file of Options.SegmentSize whose
// records are followed by zeros. A frame with a zero size field is never
// valid (size >= minPayload), so the records end at the first all-zero
// frame, or at the file's end once rotation cut a sealed segment back to
// its records; see readSegment for how the bytes after them are read.
const (
	segMagic      = "HWAL"
	segVersion    = 1
	segHeaderSize = 16

	recHeaderSize = 8
	// minPayload is an op with zero coordinates.
	minPayload = 1 + 8 + 2 + 8
	// maxRecordSize bounds one payload; anything larger is treated as
	// corruption rather than an allocation request.
	maxRecordSize = 1 << 20
	// maxDims bounds the coordinate count of a decoded record.
	maxDims = (maxRecordSize - minPayload) / 8
)

func encodeSegHeader(firstLSN uint64) []byte {
	b := make([]byte, segHeaderSize)
	copy(b, segMagic)
	binary.LittleEndian.PutUint32(b[4:], segVersion)
	binary.LittleEndian.PutUint64(b[8:], firstLSN)
	return b
}

func parseSegHeader(b []byte) (firstLSN uint64, err error) {
	if len(b) < segHeaderSize || string(b[:4]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment header")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != segVersion {
		return 0, fmt.Errorf("wal: segment version %d not supported", v)
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

// recordSize is the framed length appendRecord produces for op.
func recordSize(op core.Op) int { return recHeaderSize + minPayload + 8*len(op.Coords) }

// appendRecord appends the framed record for op to dst.
func appendRecord(dst []byte, op core.Op) ([]byte, error) {
	if len(op.Coords) > maxDims {
		return dst, fmt.Errorf("wal: op has %d coordinates, limit %d", len(op.Coords), maxDims)
	}
	size := recordSize(op) - recHeaderSize
	start := len(dst)
	dst = append(dst, make([]byte, recHeaderSize+size)...)
	p := dst[start+recHeaderSize:]
	p[0] = byte(op.Kind)
	binary.LittleEndian.PutUint64(p[1:], uint64(op.Time))
	binary.LittleEndian.PutUint16(p[9:], uint16(len(op.Coords)))
	off := 11
	for _, c := range op.Coords {
		binary.LittleEndian.PutUint64(p[off:], uint64(int64(c)))
		off += 8
	}
	binary.LittleEndian.PutUint64(p[off:], math.Float64bits(op.Value))
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(p))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(size))
	return dst, nil
}

// decodePayload parses one CRC-verified payload back into an op.
func decodePayload(p []byte) (core.Op, error) {
	if len(p) < minPayload {
		return core.Op{}, fmt.Errorf("wal: payload too short (%d bytes)", len(p))
	}
	op := core.Op{
		Kind: core.OpKind(p[0]),
		Time: int64(binary.LittleEndian.Uint64(p[1:])),
	}
	n := int(binary.LittleEndian.Uint16(p[9:]))
	if len(p) != minPayload+8*n {
		return core.Op{}, fmt.Errorf("wal: payload size %d does not match %d coordinates", len(p), n)
	}
	op.Coords = make([]int, n)
	off := 11
	for i := range op.Coords {
		c, ok := dims.ToCoord(int64(binary.LittleEndian.Uint64(p[off:])))
		if !ok {
			// No valid append ever wrote such a value, so treat it as
			// corruption: readSegment turns the decode error into a
			// torn-tail truncation instead of remapping the coordinate.
			return core.Op{}, fmt.Errorf("wal: coordinate %d of record overflows the coordinate range", i)
		}
		op.Coords[i] = c
		off += 8
	}
	op.Value = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
	return op, nil
}

// CorruptError reports damage in the *middle* of the log: a record
// fails its frame or CRC check, yet valid records follow it. A torn
// tail (the crash interrupting the final append) never looks like
// this, so mid-log corruption means acknowledged history was damaged
// after the fact — bit rot, a bad sector, outside interference.
// Recovery refuses to silently drop acknowledged records; the error
// names the first unrecoverable LSN and how to quarantine the segment
// if the operator decides to accept the loss.
type CorruptError struct {
	// Path is the damaged segment file.
	Path string
	// LSN is the first record that cannot be recovered.
	LSN uint64
	// Offset is the byte offset of the damaged frame within Path.
	Offset int64
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: log corrupt at LSN %d (%s, byte offset %d): "+
		"valid records follow the damaged region, so this is mid-log corruption, "+
		"not a torn tail; refusing to guess. To accept losing LSNs >= %d, "+
		"quarantine the segment: mv %s %s.corrupt",
		e.LSN, e.Path, e.Offset, e.LSN, e.Path, e.Path)
}

// decodeFrame decodes the record frame starting at off — the size
// range, the CRC and the payload — and returns its op and the offset
// just past it. ok is false when no complete, CRC-valid, decodable
// frame starts at off.
func decodeFrame(data []byte, off int) (op core.Op, next int, ok bool) {
	if len(data)-off < recHeaderSize {
		return op, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[off:])
	size := int(binary.LittleEndian.Uint32(data[off+4:]))
	next = off + recHeaderSize + size
	if size < minPayload || size > maxRecordSize || next > len(data) {
		return op, 0, false
	}
	payload := data[off+recHeaderSize : next]
	if crc32.ChecksumIEEE(payload) != crc {
		return op, 0, false
	}
	op, err := decodePayload(payload)
	return op, next, err == nil
}

// scanForRecord reports whether any complete valid record frame starts
// at or after start. It distinguishes a torn tail (nothing valid
// follows the damage — safe to truncate) from mid-log corruption
// (acknowledged records follow — truncating would drop them). A frame's
// size field is never zero, so zero runs are skipped, not tried.
func scanForRecord(data []byte, start int) bool {
	for off := start; off+recHeaderSize <= len(data); off++ {
		// No size field that ends before the next set byte holds a size.
		if set := skipZeros(data, off+4); set-(recHeaderSize-1) > off {
			off = set - (recHeaderSize - 1)
			if off+recHeaderSize > len(data) {
				break
			}
		}
		if _, _, ok := decodeFrame(data, off); ok {
			return true
		}
	}
	return false
}

// readChunk is the reader's buffer size: it bounds what reading a
// segment allocates beside its records, whatever the file's size.
const readChunk = 64 << 10

// zeros is what zero runs are compared with, at memory speed.
var zeros [readChunk]byte

// allZero reports whether b, at most readChunk bytes, holds only zeros.
func allZero(b []byte) bool { return bytes.Equal(b, zeros[:len(b)]) }

// skipZeros returns the index of the first non-zero byte of b at or
// after i, or len(b) when there is none.
func skipZeros(b []byte, i int) int {
	const block = 256
	for i+block <= len(b) && allZero(b[i:i+block]) {
		i += block
	}
	for i < len(b) && b[i] == 0 {
		i++
	}
	return i
}

// readSegment reads the records of a segment file in order, those
// through LSN through and no further. It returns the segment's first
// LSN, the decoded ops, the byte offset where they end, and whether a
// torn (incomplete or corrupt) tail follows them.
//
// The records end at the first offset where no valid frame starts; a
// segment is created at its full size, so that is normally its first
// all-zero frame. The end is clean when every byte from there to the
// file's end is zero (or there are none: a segment cut to its records).
// Anything else is damage: a torn tail when no valid frame follows it,
// and a *CorruptError when one does — valid records after the damage
// are acknowledged history the caller must not truncate away. A reader
// that stops at through never looks past it, so a stream can read the
// active segment while a commit writes beyond what it ships. A file
// whose header itself is unreadable returns an ordinary error; the
// caller decides whether that is fatal (mid-log) or discardable (final
// segment of an interrupted run).
func readSegment(path string, through uint64) (first uint64, ops []core.Op, end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, 0, false, err
	}
	defer func() { _ = f.Close() }() // read-only: nothing to lose
	r := bufio.NewReaderSize(f, readChunk)
	hdr, err := r.Peek(segHeaderSize)
	if err != nil && err != io.EOF {
		return 0, nil, 0, false, err
	}
	if first, err = parseSegHeader(hdr); err != nil {
		return 0, nil, 0, false, fmt.Errorf("%w: %s", err, path)
	}
	_, _ = r.Discard(segHeaderSize) // peeked above
	end = segHeaderSize
	var buf []byte
	for first+uint64(len(ops)) <= through {
		op, n, ok, err := nextFrame(r, &buf)
		if err != nil {
			return 0, nil, 0, false, err
		}
		if !ok {
			return classifyEnd(f, path, first, ops, end)
		}
		ops = append(ops, op)
		end += int64(n)
	}
	return first, ops, end, false, nil
}

// nextFrame reads the frame at r's position into *buf (grown as
// needed) and decodes it, returning its op and length. ok is false when
// no complete, CRC-valid, decodable frame starts there; r's position is
// then unspecified.
func nextFrame(r *bufio.Reader, buf *[]byte) (op core.Op, n int, ok bool, err error) {
	hdr, err := r.Peek(recHeaderSize)
	if len(hdr) < recHeaderSize {
		if err == io.EOF {
			err = nil
		}
		return op, 0, false, err
	}
	size := int(binary.LittleEndian.Uint32(hdr[4:]))
	if size < minPayload || size > maxRecordSize {
		return op, 0, false, nil
	}
	n = recHeaderSize + size
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	frame := (*buf)[:n]
	if _, err := io.ReadFull(r, frame); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = nil
		}
		return op, 0, false, err
	}
	op, _, ok = decodeFrame(frame, 0)
	return op, n, ok, nil
}

// classifyEnd decides what the bytes of f from end on are, once no
// valid frame starts at end: nothing but zeros is the segment's clean
// end; otherwise the damage is a torn tail, or mid-log corruption when
// a valid frame follows it. Only damage is read whole.
func classifyEnd(f *os.File, path string, first uint64, ops []core.Op, end int64) (uint64, []core.Op, int64, bool, error) {
	buf := make([]byte, readChunk)
	for off := end; ; {
		n, err := f.ReadAt(buf, off)
		if !allZero(buf[:n]) {
			break
		}
		if err == io.EOF {
			return first, ops, end, false, nil
		}
		if err != nil {
			return 0, nil, 0, false, err
		}
		off += int64(n)
	}
	rest, err := io.ReadAll(io.NewSectionReader(f, end, math.MaxInt64-end))
	if err != nil {
		return 0, nil, 0, false, err
	}
	if scanForRecord(rest, 1) {
		return first, ops, end, false, &CorruptError{Path: path, LSN: first + uint64(len(ops)), Offset: end}
	}
	return first, ops, end, true, nil
}
