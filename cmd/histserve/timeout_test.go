package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"histcube/internal/wal"
)

// TestRequestTimeoutAbandonsCleanly pins what -request-timeout promises
// on histserve. A query whose deadline passes while the eCube is still
// loading cells answers ERR timeout at the next poll (every 64 loads).
// It keeps the PS values of the subtrees it finished before that poll,
// and persists none computed from the subtree it abandoned: the same
// query with no deadline converts the rest and returns the oracle's
// value. A mutation whose deadline has passed before it is logged
// answers ERR timeout and is neither applied nor logged.
func TestRequestTimeoutAbandonsCleanly(t *testing.T) {
	srv := newQuietServer(t, "256,256", "sum", false)
	if _, err := srv.enableDurability(t.TempDir(), wal.Options{Sync: wal.SyncNever}, 0); err != nil {
		t.Fatal(err)
	}
	defer srv.shutdown()
	do := func(line string) string {
		t.Helper()
		reply, _ := srv.Do(0, line)
		return reply
	}

	// Two slices, so slice 0 is historic and still all DDC: a query over
	// it loads a long prefix chain per corner, far more than the 64 loads
	// between two deadline polls.
	const tlo, thi, lo, hi = 1, 1, 1, 254
	want := 0.0
	for i := 0; i < 400; i++ {
		tm, c1, c2, v := 1+i/200, (i*37)%256, (i*91)%256, float64(i%5+1)
		if got := do(fmt.Sprintf("INS %d %d %d %g", tm, c1, c2, v)); got != "OK" {
			t.Fatalf("INS %d -> %q", i, got)
		}
		if tm >= tlo && tm <= thi && c1 >= lo && c1 <= hi && c2 >= lo && c2 <= hi {
			want += v
		}
	}
	qry := fmt.Sprintf("QRY %d %d %d %d %d %d", tlo, thi, lo, lo, hi, hi)
	conversions := func() int64 {
		t.Helper()
		n, err := strconv.ParseInt(statsField(t, do("STATS"), "conversions"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	convBefore, lsnBefore := conversions(), srv.wal.LastLSN()

	srv.ReqTimeout = time.Nanosecond
	if got := do(qry); !strings.HasPrefix(got, "ERR timeout: ") {
		t.Fatalf("cold DDC query past its deadline -> %q, want ERR timeout", got)
	}
	if got := do("INS 3 5 5 100"); !strings.HasPrefix(got, "ERR timeout: ") {
		t.Fatalf("INS past its deadline -> %q, want ERR timeout", got)
	}

	srv.ReqTimeout = 0
	convTimedOut := conversions()
	if lsn := srv.wal.LastLSN(); lsn != lsnBefore {
		t.Fatalf("timed-out INS was logged: last LSN %d -> %d", lsnBefore, lsn)
	}
	if got := do(qry); got != strconv.FormatFloat(want, 'g', -1, 64) {
		t.Fatalf("query after the timeout = %s, want the oracle's %g", got, want)
	}
	if conv := conversions(); conv == convTimedOut {
		t.Fatalf("the timed-out query converted all it touches (%d conversions): it was not abandoned",
			convTimedOut-convBefore)
	}
	if got, want := do("QRY 0 10 0 0 255 255"), do("QRY 0 2 0 0 255 255"); got != want {
		t.Fatalf("timed-out INS at t=3 was applied: QRY through t=10 = %s, through t=2 = %s", got, want)
	}
}
