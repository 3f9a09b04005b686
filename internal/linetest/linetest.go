// Package linetest is the line-protocol client of the servers' tests —
// histserve's in internal/histserve and cmd/histserve, the proxy's in
// internal/histproxy and cmd/histproxy — and the reader of one series
// off a metrics registry. It imports neither server, so the in-package
// tests of internal/histserve can use it too.
//
// Nothing in the program calls it but internal/fleettest: each export
// that no other export reaches is a cross-package test seam, and its
// deadexport ignore names the tests that use it.
package linetest

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"histcube/internal/obs"
)

// Client is one line-protocol connection, to a proxy or a histserve.
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
			return &Client{Conn: conn, R: bufio.NewReader(conn)}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("dialing %s: %v", addr, err)
	return nil
}

// Cmd sends one line and returns the one-line reply, trimmed.
func (c *Client) Cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.Conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := c.R.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
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

// Multi reads an END-terminated response after the given command.
//
//histlint:ignore deadexport test seam: the tests of cmd/histserve and cmd/histproxy
func (c *Client) Multi(t *testing.T, line string) []string {
	t.Helper()
	first := c.Cmd(t, line)
	if strings.HasPrefix(first, "ERR") {
		return []string{first}
	}
	lines := []string{first}
	for {
		l, err := c.R.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l = strings.TrimSpace(l)
		if l == "END" {
			return lines
		}
		lines = append(lines, l)
	}
}

// SendAll writes payload in one write and reads n reply lines.
//
//histlint:ignore deadexport test seam: the tests of cmd/histserve, cmd/histproxy, internal/histproxy and internal/fleettest
func (c *Client) SendAll(t *testing.T, payload string, n int) []string {
	t.Helper()
	if err := c.Conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c.Conn, payload); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, n)
	for len(out) < n {
		l, err := c.R.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(out), n, err)
		}
		out = append(out, strings.TrimRight(l, "\n"))
	}
	return out
}

// MetricValue reads one series off a registry, its labels spelled as
// /metrics renders them.
//
//histlint:ignore deadexport test seam: the tests of cmd/histserve, internal/histserve, cmd/histproxy and internal/histproxy
func MetricValue(t *testing.T, reg *obs.Registry, series string) int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
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
