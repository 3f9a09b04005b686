package trace

import (
	"math/rand/v2"
	"strconv"
)

// ID is a 64-bit trace or span identifier, rendered as 16 lowercase
// hex digits on the wire (the TID= request token, SpanJSON, slog
// lines). The zero ID means "absent": spans belonging to no trace and
// requests that carried no TID= token both read as zero.
type ID uint64

// String renders the ID as 16 hex digits ("" for the zero ID, so the
// absent case never leaks a bogus all-zero identifier into logs).
func (id ID) String() string {
	if id == 0 {
		return ""
	}
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses a 16-hex-digit identifier. It reports false for
// anything else, including the all-zero string (zero means absent and
// must not round-trip as a real ID).
func ParseID(s string) (ID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return ID(v), true
}

// NewID returns a fresh non-zero identifier, drawn from the runtime's
// per-thread random source (math/rand/v2), so concurrent requests take
// no shared counter. Two IDs collide, within a process or across
// processes, with the usual 64-bit birthday odds — fine for
// correlation, not for security.
func NewID() ID {
	for {
		if x := rand.Uint64(); x != 0 { // zero is reserved for "absent"
			return ID(x)
		}
	}
}

// requestIDPrefix is the optional leading token a request line may
// carry to propagate a trace across nodes: "TID=<16 hex> <verb> ...".
// histproxy stamps it on every shard leg; histserve adopts it for the
// request's root span so one ID correlates the query fleet-wide.
const requestIDPrefix = "TID="

// CutRequestID strips the optional TID= token off a request line. It
// returns the propagated ID (zero when the token is absent or
// malformed — a bad token is ignored rather than rejected, so tracing
// can never break a request) and the line without the token.
func CutRequestID(line string) (ID, string) {
	rest, ok := cutPrefix(line, requestIDPrefix)
	if !ok {
		return 0, line
	}
	tok := rest
	if i := indexSpace(rest); i >= 0 {
		tok, rest = rest[:i], trimLeftSpace(rest[i:])
	} else {
		rest = ""
	}
	id, ok := ParseID(tok)
	if !ok {
		return 0, line
	}
	return id, rest
}

// FormatRequestID renders the TID= token for id followed by a space,
// or "" for the zero ID — callers can prefix request lines
// unconditionally.
func FormatRequestID(id ID) string {
	if id == 0 {
		return ""
	}
	return requestIDPrefix + id.String() + " "
}

// The three tiny helpers below avoid importing strings into the hot
// ID path (CutRequestID runs per request on both servers).

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return s, false
	}
	return s[len(prefix):], true
}

func indexSpace(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return i
		}
	}
	return -1
}

func trimLeftSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	return s
}
