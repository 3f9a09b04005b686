package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// its index, which stays correct because segments are append-only and
// recovery truncates any torn tail before new appends continue.
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
// (acknowledged records follow — truncating would drop them).
func scanForRecord(data []byte, start int) bool {
	for off := start; off+recHeaderSize <= len(data); off++ {
		if _, _, ok := decodeFrame(data, off); ok {
			return true
		}
	}
	return false
}

// readSegment reads a whole segment file. It returns the segment's
// first LSN, the decoded ops, the byte offset up to which the file is
// valid, and whether a torn (incomplete or corrupt) tail was found
// after goodLen. A bad frame with valid records after it is mid-log
// corruption and comes back as a *CorruptError — the caller must not
// truncate it away. A file whose header itself is unreadable returns
// an ordinary error; the caller decides whether that is fatal
// (mid-log) or discardable (final segment of an interrupted run).
func readSegment(path string) (first uint64, ops []core.Op, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, 0, false, err
	}
	first, err = parseSegHeader(data)
	if err != nil {
		return 0, nil, 0, false, fmt.Errorf("%w: %s", err, path)
	}
	// badFrame classifies the damage at off: torn tail when nothing
	// valid follows, CorruptError when acknowledged records do.
	badFrame := func(off int) (uint64, []core.Op, int64, bool, error) {
		if scanForRecord(data, off+1) {
			return first, ops, int64(off), false,
				&CorruptError{Path: path, LSN: first + uint64(len(ops)), Offset: int64(off)}
		}
		return first, ops, int64(off), true, nil
	}
	off := segHeaderSize
	for off < len(data) {
		op, next, ok := decodeFrame(data, off)
		if !ok {
			return badFrame(off)
		}
		ops = append(ops, op)
		off = next
	}
	return first, ops, int64(off), false, nil
}
