package histserve

// The in-process fixtures of this package's tests. cmd/histserve's
// server_test.go has twins of them for the protocol tests there, which
// need no more of the server than main does.

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"histcube/internal/trace"
)

// newQuietServer builds a server with the given -dims, -op and -ooo, the
// other flags at their defaults, its log discarded.
func newQuietServer(t testing.TB, dims, op string, ooo bool) *Server {
	t.Helper()
	srv, err := New(Config{Dims: dims, Op: op, OOO: ooo, Fsync: "always", CheckpointEvery: 10000,
		DegradedProbeEvery: 2 * time.Second, ReplAckTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return srv
}

// safeDispatch runs one request the way the connection loop does at
// depth 1 — a unit of one, executed and settled — the returned text is
// what would be written to the socket.
func (s *Server) safeDispatch(tid trace.ID, line string) (resp string, quit bool) {
	return s.Do(tid, line)
}

func serveOn(t *testing.T, srv *Server) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr().String()
}

func startTestServer(t *testing.T, ooo bool) (addr string) {
	t.Helper()
	return serveOn(t, newQuietServer(t, "8,8", "sum", ooo))
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
}
