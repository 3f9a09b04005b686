package main

import (
	"fmt"
	"testing"
	"time"
)

// servedQueryLimit is what one served QRY may allocate: the parse, the
// span tree's two slabs, the request's deadline context and the reply.
const servedQueryLimit = 22

// What one served INS or DEL may allocate: the parse, the coordinates,
// the span tree's one slab (its root and the cube's span, 704 B) and the
// request's deadline context, which carries the span too. The byte bound
// leaves no room for a slab sized to a query's seven spans (2 304 B).
const (
	servedMutationObjects = 10
	servedMutationBytes   = 1280
)

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

// TestServedQueryAllocs guards what a served QRY allocates: two slabs
// for its span tree and no runtime timer or channel for its deadline.
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

// servedMutations are an INS and a DEL of the same cell at the
// converged server's latest time, so repeating them updates the latest
// instance in place and leaves the cube as it was.
var servedMutations = []string{"INS 64 3 5 1", "DEL 64 3 5 1"}

// BenchmarkServedInsert is one in-process served INS at the latest time:
// the serving core's parse, governance, tracing and accounting around the
// paper's update of the latest instance, without a socket or a log.
func BenchmarkServedInsert(b *testing.B) {
	srv, _ := convergedServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Do(0, servedMutations[i&1])
	}
}

// TestServedInsertAllocs guards what a served INS and a served DEL
// allocate: one slab sized to their two-span tree and one context.
func TestServedInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	srv, _ := convergedServer(t)
	for _, line := range servedMutations {
		if got, _ := srv.Do(0, line); got != "OK" {
			t.Fatalf("%s -> %q", line, got)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				srv.Do(0, line)
			}
		})
		objects, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
		t.Logf("a served %.3s allocates %d objects, %d B", line, objects, bytes)
		if objects > servedMutationObjects || bytes > servedMutationBytes {
			t.Errorf("a served %.3s allocates %d objects and %d B, want <= %d and <= %d B",
				line, objects, bytes, servedMutationObjects, servedMutationBytes)
		}
	}
}
