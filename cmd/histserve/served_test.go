package main

import (
	"fmt"
	"testing"
	"time"

	"histcube/internal/histserve"
)

// What one served QRY may allocate: the request (whose fields it
// holds), the pending op (which holds the parsed box and the request's
// context) and the reply. Its span tree is a slab the trace ring
// recycled, and the converged query below it allocates nothing
// (internal/core's TestConvergedQueryAllocs); the byte bound leaves no
// room for a span slab (2 952 B).
const (
	servedQueryLimit = 4
	servedQueryBytes = 608
)

// What one served INS or DEL may allocate: the request, the pending op
// and its coordinates (the out-of-order buffer may keep them) and the
// cube's update sets. Its two-span tree is on a recycled slab, as a
// query's is.
const (
	servedMutationObjects = 5
	servedMutationBytes   = 624
)

// convergedServer is a warm 64x64 -ooo cube with the binary's default
// -request-timeout, and a historic QRY over it already answered once,
// so every cell that query reads is PS.
func convergedServer(tb testing.TB) (*histserve.Server, string) {
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

// TestServedQueryAllocs guards what a served QRY allocates: nothing for
// its span tree, its converged cube query, its box, its fields or its
// context, and no runtime timer or channel for its deadline.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	srv, qry := convergedServer(t)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			srv.Do(0, qry)
		}
	})
	objects, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
	t.Logf("a served QRY allocates %d objects, %d B", objects, bytes)
	if objects > servedQueryLimit || bytes > servedQueryBytes {
		t.Fatalf("a served QRY allocates %d objects and %d B, want <= %d and <= %d B",
			objects, bytes, servedQueryLimit, servedQueryBytes)
	}
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
// allocate: nothing for their span tree, their fields or their context.
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
