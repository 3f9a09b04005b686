// Package linetest is the one wire test kit of the servers' tests —
// histserve's in internal/histserve and cmd/histserve, the proxy's in
// internal/histproxy, internal/fleettest and cmd/histproxy. It holds
// four things:
//
//   - Client, the line-protocol client: every read through it carries
//     a deadline, so a server that stalls fails a test instead of
//     wedging it;
//   - CheckScript, the transcript checker: one script played at depth 1
//     and pipelined against fresh targets, the two transcripts compared
//     and every query checked against internal/oracle over the
//     acknowledged mutations (Apply and Answer are its adaptor from
//     wire lines to the oracle);
//   - Start and Proc, the child-process kit of the binary drills: each
//     server binary built once per test binary (TestMain calls Main),
//     its addresses read off its log, and every child killed and reaped
//     by the test's cleanup;
//   - MetricValue, the reader of one series off a registry or a
//     child's /metrics.
//
// It imports neither server, so the in-package tests of
// internal/histserve can use it too. Nothing in the program calls it
// but internal/fleettest: each export that no other export reaches is a
// cross-package test seam, and its deadexport ignore names the tests
// that use it.
package linetest

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// timeout bounds every exchange of a Client: Dial arms it, and each
// write pushes it ahead again.
const timeout = 20 * time.Second

// Client is one line-protocol connection, to a proxy or a histserve.
// A test that reads R itself reads under the deadline the last write
// armed, or under its own.
type Client struct {
	Conn net.Conn
	R    *bufio.Reader
}

// Dial connects to addr, retrying for up to a second (50 tries, 20 ms
// apart) while a server binary that has just said where it listens is
// still booting; the test's cleanup closes the connection.
func Dial(t *testing.T, addr string) *Client {
	t.Helper()
	var err error
	for try := 0; try < 50; try++ {
		var conn net.Conn
		if conn, err = net.Dial("tcp", addr); err == nil {
			t.Cleanup(func() { _ = conn.Close() })
			c := &Client{Conn: conn, R: bufio.NewReader(conn)}
			c.arm(t)
			return c
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("dialing %s: %v", addr, err)
	return nil
}

// arm sets the connection's deadline timeout from now.
func (c *Client) arm(t *testing.T) {
	t.Helper()
	if err := c.Conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
}

// line reads one reply line, without its newline.
func (c *Client) line(t *testing.T) string {
	t.Helper()
	l, err := c.R.ReadString('\n')
	if err != nil {
		t.Fatalf("reading a reply from %s: %v", c.Conn.RemoteAddr(), err)
	}
	return strings.TrimSuffix(l, "\n")
}

// Cmd sends one line and returns the one-line reply, without its
// newline: a reply with white space around it is not the reply a test
// compares it to.
func (c *Client) Cmd(t *testing.T, line string) string {
	t.Helper()
	return c.SendAll(t, line+"\n", 1)[0]
}

// AwaitRole polls c's ROLE every 5 ms for up to 10 s until the reply
// holds want, as " synced=1 " or " applied_lsn=40 ".
//
//histlint:ignore deadexport test seam: the drills of cmd/histserve and cmd/histproxy, the tests of internal/fleettest
func (c *Client) AwaitRole(t *testing.T, want string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		reply := c.Cmd(t, "ROLE")
		if strings.Contains(reply, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ROLE = %q after 10 s, want %s in it", reply, want)
		}
	}
}

// Float sends one line and returns its reply as a number: a query's
// answer.
//
//histlint:ignore deadexport test seam: the crash, chaos and follower-kill drills of cmd/histserve
func (c *Client) Float(t *testing.T, line string) float64 {
	t.Helper()
	reply := c.Cmd(t, line)
	v, err := strconv.ParseFloat(reply, 64)
	if err != nil {
		t.Fatalf("%s -> %q, want a number", line, reply)
	}
	return v
}

// Multi reads an END-terminated response after the given command, each
// line trimmed.
//
//histlint:ignore deadexport test seam: the tests of cmd/histserve and cmd/histproxy
func (c *Client) Multi(t *testing.T, line string) []string {
	t.Helper()
	lines := c.rest(t, c.Cmd(t, line))
	for i := range lines {
		lines[i] = strings.TrimSpace(lines[i])
	}
	return lines
}

// rest reads the lines of a multi-line reply after its first, through
// END, which it drops; an ERR has no more lines.
func (c *Client) rest(t *testing.T, first string) []string {
	t.Helper()
	lines := []string{first}
	if strings.HasPrefix(first, "ERR") {
		return lines
	}
	for {
		l := c.line(t)
		if l == "END" {
			return lines
		}
		lines = append(lines, l)
	}
}

// SendAll writes payload in one write, if it is not empty, and reads n
// reply lines.
func (c *Client) SendAll(t *testing.T, payload string, n int) []string {
	t.Helper()
	c.arm(t)
	if payload != "" {
		if _, err := io.WriteString(c.Conn, payload); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]string, 0, n)
	for len(out) < n {
		out = append(out, c.line(t))
	}
	return out
}

// Field returns the value of one key=value field of a reply line, as
// STATS and ROLE give them.
func Field(t *testing.T, reply, key string) string {
	t.Helper()
	for _, tok := range strings.Fields(reply) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return v
		}
	}
	t.Fatalf("%q has no field %s", reply, key)
	return ""
}

// MetricValue reads one series off src — a registry, or a child's
// /metrics through its Proc — its labels spelled as /metrics renders
// them.
//
//histlint:ignore deadexport test seam: the tests of cmd/histserve, internal/histserve, cmd/histproxy and internal/histproxy
func MetricValue(t *testing.T, src interface{ WritePrometheus(io.Writer) error }, series string) int64 {
	t.Helper()
	var b strings.Builder
	if err := src.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}
