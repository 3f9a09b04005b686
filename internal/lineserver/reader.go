// Package lineserver holds what histserve's and histproxy's connection
// loops share. Today that is the request-line reader, the verb of a line
// and the cap on how much work one connection batches; the loops
// themselves follow (ROADMAP "One serving core for both binaries").
package lineserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"unicode"
)

// MaxPendingReplies caps the requests one connection batches: the
// replies histserve holds back before it releases them regardless of
// buffered input, the mutation lines histproxy forwards as one run, and
// the shipped records a follower commits together. It bounds both the
// memory a pipelining peer can pin and the records one connection
// contributes to a group commit.
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

// HasLine reports whether a complete line is already buffered.
func (r *Reader) HasLine() bool {
	_, ok := r.Peek()
	return ok
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

// Verb returns the first whitespace-delimited token of a trimmed
// request line, as sent, without splitting the rest.
func Verb(line string) string {
	if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
		return line[:i]
	}
	return line
}
