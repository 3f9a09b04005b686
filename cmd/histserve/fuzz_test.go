package main

import (
	"bytes"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"

	"histcube/internal/dims"
)

// wellFormed is the fuzz oracle: does an INS/DEL/QRY line pass arity,
// integer, coordinate and finite-value validation for an 8x8 cube?
// Anything it rejects must never be answered as a success.
func wellFormed(fields []string) bool {
	const d = 8
	var coords []string
	switch verb := strings.ToUpper(fields[0]); {
	case (verb == "INS" || verb == "DEL") && len(fields) == 5:
		if v, err := strconv.ParseFloat(fields[4], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		coords = fields[2:4]
	case verb == "QRY" && len(fields) == 7:
		if _, err := strconv.ParseInt(fields[2], 10, 64); err != nil {
			return false
		}
		coords = fields[3:]
	default:
		return false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return false
	}
	for _, f := range coords {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return false
		}
		if c, ok := dims.ToCoord(v); !ok || c < 0 || c >= d {
			return false
		}
	}
	return true
}

// FuzzDispatchLine feeds arbitrary bytes to an in-memory histserve:
// line by line through the command table (no malformed INS/DEL/QRY is
// ever answered OK or with a number), then as one byte stream through
// the connection loop (whatever the framing, no panic reaches the
// barrier, let alone escapes it, and the loop ends the connection).
func FuzzDispatchLine(f *testing.F) {
	for _, seed := range []string{
		"INS 1 2 3 4.5", "DEL 1 2 3 4.5", "QRY 0 9 0 0 7 7", "INS 1 2 3", "INS 1 99 3 1",
		"INS x 2 3 1", "INS 1 2 3 1e999", "INS 1 2 3 NaN", "INS 1 2 3 Inf", "DEL 1 2 3 -Inf", "DEL 1 2 3 nan",
		"INS 1 2 3 +infinity", "QRY 0 9 0 0 7 8", "QRY 0 9 4294967296 0 7 7",
		"TID=feedface12345678 QRY 0 9 0 0 7 7", "TID=feedface12345678", "EXPLAIN JSON QRY 0 1 0 0 7 7",
		"EXPLAIN QRY", "STATS junk", "SEAL x", "PROMOTE 1 2", "REPLICATE FROM 0", "\x00\xff\t",
		"INS 1 2 3 4\nqry 0 1 0 0 7 7\n\nQUIT now\nINS", "INS 1 2 3 4\r\nSLOWLOG\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.Contains(bytes.ToUpper(data), []byte("SAVE")) {
			t.Skip("SAVE writes wherever the fuzzer points it")
		}
		srv := newQuietServer(t, "8,8", "sum", true)
		for _, raw := range bytes.Split(data, []byte("\n")) {
			fields := strings.Fields(string(raw))
			if len(fields) == 0 || wellFormed(fields) {
				continue
			}
			reply, _ := srv.Do(0, string(raw))
			_, numeric := strconv.ParseFloat(reply, 64)
			switch verb := strings.ToUpper(fields[0]); {
			case (verb == "INS" || verb == "DEL") && reply == "OK",
				verb == "QRY" && numeric == nil:
				t.Fatalf("malformed %q answered %q", raw, reply)
			}
		}
		client, server := net.Pipe()
		go func() {
			_, _ = client.Write(append(data, "\nQUIT\n"...)) // fails once the loop has closed its end
		}()
		done := make(chan struct{})
		go func() {
			srv.ServeConn(server)
			close(done)
		}()
		_, _ = io.Copy(io.Discard, client)
		<-done
		if n := srv.Panics.Value(); n != 0 {
			t.Fatalf("%d panics reached the barrier on input %q", n, data)
		}
	})
}
