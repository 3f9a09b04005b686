package main

import (
	"fmt"
	"testing"
	"time"
)

// servedQueryLimit is what one served QRY may allocate: the parse, the
// span tree's slab, the request's deadline context and the reply.
const servedQueryLimit = 22

// convergedServer is a warm 64x64 -ooo cube with the binary's default
// -request-timeout, and a historic QRY over it already answered once,
// so every cell that query reads is PS.
func convergedServer(tb testing.TB) (*server, string) {
	tb.Helper()
	srv := newQuietServer(tb, "64,64", "sum", true)
	srv.ReqTimeout = 10 * time.Second
	for i := 0; i < 512; i++ {
		if got, _ := srv.Do(0, fmt.Sprintf("INS %d %d %d 1", 1+i/8, (i*7)%64, (i*13)%64)); got != "OK" {
			tb.Fatalf("INS %d -> %q", i, got)
		}
	}
	const qry = "QRY 8 40 3 5 60 58"
	srv.Do(0, qry)
	return srv, qry
}

// BenchmarkServedQuery is one in-process served QRY on a converged
// slice: the serving core's parse, governance, tracing and accounting
// around the paper's 2^(d-1)-cell query, without a socket.
func BenchmarkServedQuery(b *testing.B) {
	srv, qry := convergedServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Do(0, qry)
	}
}

// TestServedQueryAllocs guards what a served QRY allocates: one slab for
// its span tree and no runtime timer or channel for its deadline.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	srv, qry := convergedServer(t)
	allocs := testing.AllocsPerRun(200, func() { srv.Do(0, qry) })
	if allocs > servedQueryLimit {
		t.Fatalf("a served QRY allocates %.0f objects, want <= %d", allocs, servedQueryLimit)
	}
	t.Logf("a served QRY allocates %.0f objects", allocs)
}
