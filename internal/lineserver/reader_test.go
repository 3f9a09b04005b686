package lineserver

import (
	"bufio"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// chunks is a reader that returns its input one piece per Read, the
// way a socket hands over one segment at a time.
type chunks []string

func (c *chunks) Read(p []byte) (int, error) {
	if len(*c) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*c)[0])
	if (*c)[0] = (*c)[0][n:]; (*c)[0] == "" {
		*c = (*c)[1:]
	}
	return n, nil
}

func TestPeekSeesOnlyCompleteBufferedLines(t *testing.T) {
	r := NewReader(&chunks{"INS 1\nINS 2\nQRY", " 3\n"}, 0)
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek found a line before anything was read: it must never read")
	}
	if l, err := r.Next(); err != nil || string(l) != "INS 1" {
		t.Fatalf("Next = %q, %v", l, err)
	}
	if l, ok := r.Peek(); !ok || string(l) != "INS 2" {
		t.Fatalf("Peek = %q, %v; want the buffered second line", l, ok)
	}
	if l, err := r.Next(); err != nil || string(l) != "INS 2" {
		t.Fatalf("Next after Peek = %q, %v; Peek must not consume", l, err)
	}
	// "QRY" is buffered but unterminated: not a line yet.
	if l, ok := r.Peek(); ok {
		t.Fatalf("Peek returned the partial line %q", l)
	}
	if l, err := r.Next(); err != nil || string(l) != "QRY 3" || r.Torn() {
		t.Fatalf("Next = %q, %v, torn=%v", l, err, r.Torn())
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next at the end = %v", err)
	}
}

func TestFinalUnterminatedLineIsReturnedAndMarkedTorn(t *testing.T) {
	r := NewReader(strings.NewReader("REC 1 1 5 1 1 2\nREC 2 1 5 1 1 7"), 0)
	if l, err := r.Next(); err != nil || string(l) != "REC 1 1 5 1 1 2" || r.Torn() {
		t.Fatalf("terminated line = %q, %v, torn=%v", l, err, r.Torn())
	}
	if l, err := r.Next(); err != nil || string(l) != "REC 2 1 5 1 1 7" || !r.Torn() {
		t.Fatalf("final line = %q, %v, torn=%v; want it returned and marked torn", l, err, r.Torn())
	}
}

func TestLineLimit(t *testing.T) {
	long := strings.Repeat("9", 10000)
	r := NewReader(strings.NewReader("ok\n"+long+"\nnext\n"), 0)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if l, err := r.Next(); err != nil || string(l) != long {
		t.Fatalf("unbounded reader on a line beyond its buffer: %d bytes, %v", len(l), err)
	}
	r = NewReader(strings.NewReader("ok\n"+long+"\nnext\n"), 256)
	if l, err := r.Next(); err != nil || string(l) != "ok" {
		t.Fatalf("Next = %q, %v", l, err)
	}
	if _, err := r.Next(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("overlong line = %v, want bufio.ErrTooLong", err)
	}
}

func TestVerb(t *testing.T) {
	for line, want := range map[string]string{
		"INS 1 2 3":  "INS",
		"ins\t1 2 3": "ins",
		"QUIT":       "QUIT",
		"":           "",
	} {
		if got := verb(line); got != want {
			t.Errorf("verb(%q) = %q, want %q", line, got, want)
		}
	}
}

// FuzzFields checks the serving core's tokeniser against strings.Fields,
// the split it stands in for: ASCII and non-ASCII white space, invalid
// UTF-8 (a byte that is no rune is no space either) and more fields than
// a Request holds inline.
func FuzzFields(f *testing.F) {
	for _, seed := range []string{
		"", " \t ", "QRY 1 2 0 0 7 7", "EXPLAIN JSON QRY 1 2 0 0 7 7",
		"  INS\t1\v2\f3\r4\n", "a\u0085b\u00a0c", "x\u2003y\u3000z\u2028w\u205f",
		"\xff \xc2\x85", "\xc2 \x85", "\u1680lead", "1 2 3 4 5 6 7 8 9 10 11 12",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var buf [inlineFields]string
		if got, want := appendFields(buf[:0], s), strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("appendFields(%q) = %q, strings.Fields = %q", s, got, want)
		}
	})
}
