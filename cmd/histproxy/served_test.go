package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"testing"
	"time"

	"histcube/internal/histproxy"
	"histcube/internal/trace"
)

// proxiedWindowLimit is what one four-line window through the proxy may
// allocate, counted over the whole process.
const proxiedWindowLimit = 100

// startEchoShard is a loopback shard that allocates nothing per line: it
// answers a QRY with 0, ROLE as a primary whose min_acks covers one
// follower, and any other line with OK, and flushes once it has answered
// every line it had buffered.
func startEchoShard(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				for {
					line, err := r.ReadSlice('\n')
					if err != nil {
						return
					}
					switch {
					case bytes.Contains(line, []byte("QRY ")):
						w.WriteString("0\n")
					case bytes.HasPrefix(line, []byte("ROLE")):
						w.WriteString("OK role=primary last_lsn=0 followers=1 min_acks=1\n")
					default:
						w.WriteString("OK\n")
					}
					if r.Buffered() == 0 && w.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestProxiedWindowAllocs guards what the proxy allocates to serve one
// window: an INS and a DEL to shard A and two QRYs over shards A and B,
// so A gets a batch that carries mutations and B, a replica set hedged
// after 30 ms, a read batch of two legs. The proxy serves on goroutines
// of its own, so the count is process-wide; the client and the echo
// shards allocate nothing per line.
func TestProxiedWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	// The member-state loop runs its first round in Start, which turns
	// B's follower reads on, and ticks hourly, so no later round allocates
	// inside the count.
	p, err := histproxy.New(histproxy.Config{Dims: "8,8", Shards: fmt.Sprintf("%s=0-99,%s|%s=100-", startEchoShard(t), startEchoShard(t), startEchoShard(t)),
		HedgeAfter: 30 * time.Millisecond, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	p.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	p.Slow = trace.NewSlowLog(32, time.Hour)
	p.ReqTimeout, p.ReadTimeout = 10*time.Second, 5*time.Minute
	t.Cleanup(p.Close)
	p.Start()
	conn, err := net.Dial("tcp", serveProxy(t, p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	window := []byte("INS 10 1 1 5\nDEL 10 1 1 5\nQRY 0 150 0 0 7 7\nQRY 5 120 0 0 7 7\n")
	serve := func() {
		if _, err := conn.Write(window); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"OK\n", "OK\n", "0\n", "0\n"} {
			if l, err := r.ReadSlice('\n'); err != nil || string(l) != want {
				t.Fatalf("reply %q, %v, want %q", l, err, want)
			}
		}
	}
	for i := 0; i < 8; i++ { // dial every member's pooled connection
		serve()
	}
	allocs := testing.AllocsPerRun(400, serve)
	if allocs > proxiedWindowLimit {
		t.Fatalf("a proxied window allocates %.0f objects, want <= %d", allocs, proxiedWindowLimit)
	}
	t.Logf("a proxied window allocates %.0f objects", allocs)
}
