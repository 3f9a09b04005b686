// Package lineserver is the serving core histserve and histproxy share:
// the accept and signal loop, the per-connection loop with its
// governance (-max-conns, -read-timeout, -max-line-bytes,
// -request-timeout), the panic barrier, request accounting, trace
// retention with SLOWLOG, the /metrics and /debug listener and the
// flags that configure all of it. A binary adds a command table — verb,
// arity, handler, two unit columns — a settle function and its domain
// code.
//
// The unit rule. The connection loop reads one line and extends it into
// a unit with the complete lines already buffered behind it (at most
// MaxPendingReplies), for as long as the table says the next line
// joins: the unit's last line does not have EndsUnit and the next line
// has Joins. It runs every line's handler, then calls the settle
// function once for the requests whose handlers left work pending, then
// writes all replies in request order and flushes once. A unit is what
// is settled together; the table decides what is worth settling
// together.
//
// On histserve the lines that touch the cube join and settle applies
// them under one cube lock, then runs the commit barrier (one group
// fsync, one cumulative follower-ack wait) every reply waits for; a verb
// whose state they change starts a unit of its own. The buffer only
// changes inside Reader.Next, so the unit is exactly the set of lines
// that were buffered when its first line was read: replies are released
// when no complete line is left waiting, or at the cap — one fsync and
// one flush per pipelined window, one per request at depth 1.
//
// histproxy pays a shard round trip per line unless lines share one.
// INS, DEL and QRY join and every other verb ends its unit, so a unit is
// the buffered window of mutations and queries or one line of anything
// else; the handlers only validate and route, and settle sends each
// shard's lines of the unit — mutations and query legs, in request order
// — as one batch round trip. As on histserve, the window's replies leave
// together.
//
// A histserve follower serves its link to the primary with a third
// table, whose requests are the primary's stream: a unit is the burst
// of records that arrived together, settle commits them once and
// answers each with the cumulative ACK. A torn REC (Request.Torn) ends
// the session through Request.Quit, as the built-in QUIT does.
//
// Two clock stamps per unit. The connection loop reads the clock once
// when a unit's lines have been read (Request.Start, time.Now) and once
// when settle has made every reply final (one monotonic read on top of
// the first, unless settle read that stamp itself and returned it);
// nothing else in the core reads it per request. The latency
// histogram (Metrics.Latency, one sample per request) is the span
// between the two: parsing, the binary's work and its settle, the commit
// wait included, but not the wait for the request's bytes nor the
// reply's flush. The request's root span (trace.NewAt) and its
// -request-timeout deadline (RequestCtx) start at the first stamp. The
// connection's -read-timeout deadline is armed from the second: it
// covers reads and writes alike, and it is moved only when it is more
// than an eighth of the timeout T stale, to the stamp plus 9/8·T, so a
// connection is cut between T and 9/8·T after its last unit was served
// — idle, stalled mid-line, or not reading the replies its flush blocks
// on — and a busy one updates no runtime timer (Deadline).
//
// Panics are contained per handler call: one line's in the first phase,
// the pending requests' in settle — on histproxy, where a unit's work
// happens in settle, the whole unit — and a hijacker's.
package lineserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxPendingReplies caps the requests one connection batches: the lines
// of one unit — the replies histserve holds back before it releases them
// regardless of buffered input, the lines histproxy forwards as one
// batch per shard — and the shipped records a follower commits together. It
// bounds both the memory a pipelining peer can pin and the records one
// connection contributes to a group commit.
const MaxPendingReplies = 256

// Reader reads newline-terminated lines. Unlike bufio.Scanner its
// buffered bytes can be inspected, which is what lets a connection loop
// batch exactly the requests that have already arrived and flush when
// none is waiting.
type Reader struct {
	br   *bufio.Reader
	max  int    // longest accepted line in bytes, terminator included; 0 = unbounded
	long []byte // assembles a line that outgrew br's buffer
	torn bool   // the line Next last returned ended at EOF, not at a terminator
}

// NewReader returns a Reader on r that rejects lines of max bytes or
// more (0 = unbounded).
func NewReader(r io.Reader, max int) *Reader {
	size := 4096
	if max > 0 {
		// A line that fills the buffer without a terminator must
		// already be over the limit.
		size = min(size, max)
	}
	return &Reader{br: bufio.NewReaderSize(r, size), max: max}
}

// Peek returns the next line, without its terminator, when a complete
// one is already buffered, i.e. when Next will return it without
// reading from the connection. It never reads, and a trailing partial
// line does not count. The slice is valid until the following Next.
func (r *Reader) Peek() ([]byte, bool) {
	b, _ := r.br.Peek(r.br.Buffered()) // never reads: asks only for what is buffered
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil, false
	}
	return b[:i], true
}

// Next returns the next line without its terminator; the slice is valid
// until the following call. Like bufio.Scanner it returns a final
// unterminated line before io.EOF, and bufio.ErrTooLong for a line of
// max bytes or more; Torn tells that final line from a terminated one.
func (r *Reader) Next() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		r.long = append(r.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			if r.max > 0 && len(r.long) >= r.max {
				return nil, bufio.ErrTooLong
			}
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if err != nil && !(errors.Is(err, io.EOF) && len(line) > 0) {
		return nil, err
	}
	if r.max > 0 && len(line) > r.max {
		return nil, bufio.ErrTooLong
	}
	r.torn = err != nil
	return bytes.TrimSuffix(line, []byte("\n")), nil
}

// Torn reports whether the line Next last returned was cut off by EOF
// instead of ended by a newline. A request typed without a final
// newline is still a request; on a link whose peer terminates every
// line it is the front half of a write the peer did not live to finish,
// and must not be taken for the whole.
func (r *Reader) Torn() bool { return r.torn }

// verb returns the first whitespace-delimited token of a trimmed
// request line, as sent, without splitting the rest.
func verb(line string) string {
	if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
		return line[:i]
	}
	return line
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// (and so strings.Fields) splits at.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of s to dst, split exactly as
// strings.Fields splits them — at runs of unicode.IsSpace runes, an
// invalid byte being no space — and allocates only once dst is full.
func appendFields(dst []string, s string) []string {
	start := -1 // where the field in progress began, -1 between fields
	for i, r := range s {
		space := false
		if r < utf8.RuneSelf {
			space = asciiSpace[r]
		} else {
			space = unicode.IsSpace(r)
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			dst, start = append(dst, s[start:i]), -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// ParseInts parses the integer fields of a request line (times and
// coordinates); the error is the reply both binaries give after "ERR ".
func ParseInts(fields []string) ([]int64, error) {
	out := make([]int64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out[i] = v
	}
	return out, nil
}
