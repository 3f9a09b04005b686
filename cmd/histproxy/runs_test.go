package main

// Mutation runs: consecutive buffered INS/DEL lines travel as one batch
// round trip per owner shard. Nothing of that may be visible to a
// client except as speed — the same replies, in the same order, as one
// line at a time — and a run that breaks must still answer every line.

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sendAll writes payload in one write and reads n reply lines.
func sendAll(t *testing.T, c *client, payload string, n int) []string {
	t.Helper()
	c.conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.WriteString(c.conn, payload); err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, n)
	for len(out) < n {
		l, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(out), n, err)
		}
		out = append(out, strings.TrimRight(l, "\n"))
	}
	return out
}

func TestRunSpansOwnersRepliesInRequestOrder(t *testing.T) {
	spec, shards := threeShards(t)
	addr, p := startProxy(t, spec)
	c := dial(t, addr)
	lines := []string{
		"INS 10 1 1 5",   // shard 0
		"INS 250 2 2 7",  // shard 2
		"INS 20 1 1",     // arity error inside the run
		"DEL 10 1 1 2",   // shard 0, after its INS
		"INS 150 3 3 11", // shard 1
		"INS x 1 1 1",    // bad integer inside the run
		"INS 260 2 2 1",  // shard 2
		"QRY 0 300 0 0 7 7",
		"INS 270 0 0 100",
		"QRY 0 300 0 0 7 7",
	}
	got := sendAll(t, c, strings.Join(lines, "\n")+"\n", len(lines))
	want := []string{"OK", "OK", "ERR INS needs time, 2 coordinates and a value", "OK", "OK",
		`ERR bad integer "x"`, "OK", "22", "OK", "122"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replies\n %q\nwant\n %q", got, want)
	}
	// Within an owner the run keeps request order.
	for i, wantLines := range [][]string{
		{"INS 10 1 1 5", "DEL 10 1 1 2"},
		{"INS 150 3 3 11"},
		{"INS 250 2 2 7", "INS 260 2 2 1", "INS 270 0 0 100"},
	} {
		var muts []string
		for _, l := range shards[i].received() {
			if _, stripped, _ := strings.Cut(l, " "); strings.HasPrefix(stripped, "INS") || strings.HasPrefix(stripped, "DEL") {
				muts = append(muts, stripped)
			}
		}
		if strings.Join(muts, "|") != strings.Join(wantLines, "|") {
			t.Errorf("shard %d saw mutations %q, want %q", i, muts, wantLines)
		}
	}
	// Every line is accounted under its own verb, errors included.
	if n := p.Requests["INS"].Value(); n != 7 {
		t.Errorf("INS requests accounted = %d, want 7", n)
	}
	if n := p.Errors["INS"].Value(); n != 2 {
		t.Errorf("INS errors accounted = %d, want 2", n)
	}
	if n := p.Requests["DEL"].Value(); n != 1 {
		t.Errorf("DEL requests accounted = %d, want 1", n)
	}
}

// TestRunRepliesAreFlushedPerRun pins the flush rule: a finished run's
// replies leave before the next line is served, not when the input goes
// idle — here the next line is a query that takes half a second.
func TestRunRepliesAreFlushedPerRun(t *testing.T) {
	spec, shards := threeShards(t)
	for _, f := range shards {
		f.set(func(f *fakeShard) { f.qryDelay = 500 * time.Millisecond })
	}
	addr, _ := startProxy(t, spec)
	c := dial(t, addr)
	if _, err := io.WriteString(c.conn, "INS 10 1 1 5\nINS 11 1 1 5\nQRY 0 50 0 0 7 7\nINS 12 1 1 5"); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	for i := 0; i < 2; i++ {
		if l, err := c.r.ReadString('\n'); err != nil || l != "OK\n" {
			t.Fatalf("run reply %d = %q, %v: the run's replies must not wait for the query behind it", i, l, err)
		}
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if l, err := c.r.ReadString('\n'); err != nil || l != "10\n" {
		t.Fatalf("query reply = %q, %v", l, err)
	}
	// The trailing partial line neither joined a run nor was answered.
	c.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if l, err := c.r.ReadString('\n'); err == nil {
		t.Fatalf("partial line was answered %q", l)
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if got := c.cmd(t, ""); got != "OK" { // completes "INS 12 1 1 5"
		t.Fatalf("completed partial line -> %q", got)
	}
}

// TestBrokenRunAnswersEveryLineAndFailsOver kills the primary in the
// middle of a run: the lines it answered keep their answers, every
// other line gets the explicit unavailable error — none retried, none
// dropped — and one failover later the client's retry succeeds.
func TestBrokenRunAnswersEveryLineAndFailsOver(t *testing.T) {
	primary, replica := newFakeShard(t), newFakeShard(t)
	primary.set(func(f *fakeShard) { f.dropAfter = 2 })
	replica.set(func(f *fakeShard) { f.replica = true })
	addr, p := startProxy(t, fmt.Sprintf("%s|%s=0-", primary.addr(), replica.addr()))
	c := dial(t, addr)
	run := "INS 1 0 0 1\nINS 2 0 0 1\nINS 3 0 0 1\nINS 4 0 0 1\nINS 5 0 0 1\n"
	got := sendAll(t, c, run, 5)
	for i, l := range got {
		switch {
		case i < 2 && l != "OK":
			t.Errorf("reply %d = %q, want the primary's own OK", i, l)
		case i >= 2 && !strings.HasPrefix(l, "ERR shard "+primary.addr()+" unavailable"):
			t.Errorf("reply %d = %q, want the explicit unavailable error", i, l)
		}
	}
	for _, l := range replica.received() {
		if strings.Contains(l, "INS") {
			t.Fatalf("the replica received %q: a broken run must never be resent", l)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.failovers.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the broken run did not trigger a failover")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := p.failovers.Value(); n != 1 {
		t.Fatalf("failovers = %d after one broken run, want 1", n)
	}
	if got := sendAll(t, c, "INS 3 0 0 1\nINS 4 0 0 1\nINS 5 0 0 1\n", 3); strings.Join(got, "|") != "OK|OK|OK" {
		t.Fatalf("client retry after failover -> %q", got)
	}
	if got := c.cmd(t, "QRY 0 100 0 0 7 7"); got != "3" {
		t.Fatalf("promoted member holds %s facts, want the 3 retried", got)
	}
}

// semiSyncFleet boots two real replica sets — semi-sync primary plus
// WAL-shipping follower each, everything -fsync always — behind an
// in-process proxy, and returns the proxy address and the four member
// addresses (primary0, follower0, primary1, follower1).
func semiSyncFleet(t *testing.T, bin string) (string, []string) {
	t.Helper()
	var members []string
	args := []string{"-addr", "127.0.0.1:0", "-dims", "8,8", "-op", "sum", "-fsync", "always"}
	for i := 0; i < 2; i++ {
		primary := startProc(t, bin, append(args, "-data-dir", filepath.Join(t.TempDir(), "p"),
			"-repl-min-acks", "1", "-repl-ack-timeout", "10s")...)
		follower := startProc(t, bin, append(args, "-data-dir", filepath.Join(t.TempDir(), "f"),
			"-follow", primary.addr)...)
		// Semi-sync needs the link up before the first write.
		pc := chaosDial(t, primary.addr)
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(pc.cmd(t, "ROLE"), "followers=1") {
			if time.Now().After(deadline) {
				t.Fatal("follower never connected")
			}
			time.Sleep(10 * time.Millisecond)
		}
		members = append(members, primary.addr, follower.addr)
	}
	addr, _ := startProxy(t, fmt.Sprintf("%s|%s=0-99,%s|%s=100-", members[0], members[1], members[2], members[3]))
	return addr, members
}

// TestRunConformanceThroughSemiSyncFleet sends one script at depth 1
// and again in a single write through a 2-shard semi-sync topology of
// real servers: the reply transcripts must be byte-identical. Reads
// rotate over primaries and followers (no hedging here), so every QRY
// in the script also checks that an acked run is already applied on
// whichever member answers.
func TestRunConformanceThroughSemiSyncFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance test builds and runs real histserve processes")
	}
	bin := buildBinary(t, "histserve", "../histserve")
	const all = "QRY 0 100000 0 0 7 7"
	script := []string{
		"INS 1 1 1 5",
		all,
		"INS 100 2 2 7", // a run spanning both owners
		"INS 2 2 2 3",
		"DEL 100 2 2 4",
		"INS 3 1 1", // arity error inside the run
		"INS 101 1 1 1.5",
		"INS x 1 1 1",
		"INS 0 0 0 1", // the shard's own ERR (out of order, no -ooo) inside the run
		"TID=feedface12345678 INS 102 9 9 1",
		all,
		"DEL 101 1 1 0.5",
		"QRY 0 99 0 0 7 7",
		"QRY 100 200 0 0 7 7",
		"NOPE",
	}
	// A run longer than the cap, alternating owners, then reads that
	// must see all of it.
	var long float64
	for i := 0; i < 300; i++ {
		script = append(script, fmt.Sprintf("INS %d %d %d 2", 3+(i%2)*100+i/4, i%8, (i/3)%8))
		long += 2
	}
	script = append(script, all, all, all, all, "INS 400 1 1 9")

	transcript := func(oneWrite bool) []string {
		addr, members := semiSyncFleet(t, bin)
		c := dial(t, addr)
		var got []string
		if oneWrite {
			// Everything but the last line's newline in one write: the
			// trailing partial line must not withhold a single reply.
			payload := strings.Join(script, "\n")
			got = sendAll(t, c, payload, len(script)-1)
			got = append(got, c.cmd(t, ""))
		} else {
			for _, line := range script {
				got = append(got, c.cmd(t, line))
			}
		}
		// Directly after the last ack, every member of both replica sets
		// holds its shard's share.
		for i, m := range members {
			want := fmt.Sprint(5 + 3 + long/2)
			if i >= 2 {
				want = fmt.Sprint(7 - 4 + 1.5 - 0.5 + long/2 + 9)
			}
			if got := chaosDial(t, m).cmd(t, all); got != want {
				t.Errorf("member %d (%s) answers %s right after the acked script, want %s", i, m, got, want)
			}
		}
		return got
	}
	depth1 := transcript(false)
	piped := transcript(true)
	if len(depth1) != len(piped) {
		t.Fatalf("depth 1 answered %d lines, one write %d", len(depth1), len(piped))
	}
	for i := range depth1 {
		if depth1[i] != piped[i] {
			t.Errorf("line %d %q: depth 1 answered %q, one write %q", i, script[i], depth1[i], piped[i])
		}
	}
	// And the transcript is the right one, not merely the same one.
	for i, want := range []string{"OK", "5", "OK", "OK", "OK",
		"ERR INS needs time, 2 coordinates and a value", "OK", `ERR bad integer "x"`} {
		if depth1[i] != want {
			t.Errorf("line %d %q answered %q, want %q", i, script[i], depth1[i], want)
		}
	}
	if !strings.HasPrefix(depth1[8], "ERR") || !strings.HasPrefix(depth1[9], "ERR bad coordinate") {
		t.Errorf("shard-side errors inside the run answered %q and %q", depth1[8], depth1[9])
	}
	total := fmt.Sprint(5 + 3 + 7 - 4 + 1.5 - 0.5 + long)
	for i := len(depth1) - 5; i < len(depth1)-1; i++ {
		if depth1[i] != total {
			t.Errorf("read %d after the long run = %q, want %s on every member", i, depth1[i], total)
		}
	}
}
