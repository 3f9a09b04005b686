package fleettest

// The relay's contract: what a proxy test reads through it is what the
// member said, but for the ROLE fields and the faults its script names,
// and it leaves nothing running once stopped.

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"histcube/internal/fault"
	"histcube/internal/linetest"
)

// rawReplies writes payload in one write and returns n reply lines as
// they came, newlines included.
func rawReplies(t *testing.T, addr, payload string, n int) string {
	t.Helper()
	c := linetest.Dial(t, addr)
	if err := c.Conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c.Conn, payload); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		l, err := c.R.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", i, n, err)
		}
		b.WriteString(l)
	}
	return b.String()
}

// TestRelayedWindowIsTheMembersOwn: one pipelined window of mutations,
// queries, refusals, a TID= line, a blank line (which no member
// answers), ROLE and STATS, sent to one member directly and to a twin
// through a relay with an empty script, is answered byte for byte alike.
func TestRelayedWindowIsTheMembersOwn(t *testing.T) {
	direct, twin := StartMember(t, MemberConfig("sum")), StartMember(t, MemberConfig("sum"))
	relay := StartRelay(t, twin, Script{})
	window := strings.Join([]string{
		"INS 1 1 1 5", "QRY 0 9 0 0 7 7", "INS 2 3 3 2.5", "", "DEL 2 1 1 1",
		"INS 3 1 1", "QRY 0 x 0 0 7 7", "TID=feedface12345678 QRY 0 9 1 1 3 3",
		"INS 1 0 0 1", "ROLE", "QRY 2 2 0 0 7 7", "STATS", "NOPE", "QRY 0 9 0 0 7 7",
	}, "\n") + "\n"
	const replies = 13
	want := rawReplies(t, direct.Addr, window, replies)
	if got := rawReplies(t, relay.Addr, window, replies); got != want {
		t.Fatalf("through the relay:\n%s\nfrom the member:\n%s", got, want)
	}
	if !strings.Contains(want, "\n6.5\n") || !strings.Contains(want, "OK role=primary ") {
		t.Fatalf("the window's replies are not the member's answers:\n%s", want)
	}
}

// TestRelayRewritesOnlyTheRoleFields: a script's min_acks= and synced=
// replace those fields of a ROLE reply and nothing else, add neither
// where the member does not report it, and leave PROMOTE's reply — the
// same ROLE line — as the member said it.
func TestRelayRewritesOnlyTheRoleFields(t *testing.T) {
	primary := StartMember(t, DurableConfig("sum", t.TempDir(), "never"))
	cfg := DurableConfig("sum", t.TempDir(), "never")
	cfg.Follow = primary.Addr
	follower := StartMember(t, cfg)
	script := Script{MinAcks: "7", Synced: "0"}
	toPrimary, toFollower := StartRelay(t, primary, script), StartRelay(t, follower, script)

	fc := linetest.Dial(t, follower.Addr)
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(fc.Cmd(t, "ROLE"), " synced=1 "); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never caught up")
		}
	}
	for _, tc := range []struct {
		relay      *Relay
		member     *Member
		field, set string
	}{
		{toPrimary, primary, "min_acks=0", "min_acks=7"},
		{toFollower, follower, "synced=1", "synced=0"},
	} {
		want := linetest.Dial(t, tc.member.Addr).Cmd(t, "ROLE")
		if !strings.Contains(want, " "+tc.field) {
			t.Fatalf("the member's own ROLE = %q, want %s in it", want, tc.field)
		}
		want = strings.Replace(want, tc.field, tc.set, 1)
		if got := linetest.Dial(t, tc.relay.Addr).Cmd(t, "ROLE"); got != want {
			t.Errorf("ROLE through the relay = %q, want %q", got, want)
		}
	}
	// A primary answers PROMOTE with its ROLE line, unrewritten.
	if got := linetest.Dial(t, toPrimary.Addr).Cmd(t, "PROMOTE"); !strings.HasPrefix(got, "OK role=primary ") || !strings.Contains(got, " min_acks=0 ") {
		t.Errorf("PROMOTE through the relay = %q, want the member's own min_acks=0", got)
	}
}

// TestRelayDropCutsBetweenTwoReplies: under QRY:err@1 and INS:drop@3 a
// pipelined window gets the member's two OKs with the injected ERR
// between them, in request order, and then the connection closes. The
// member applied the two inserts it answered and nothing after them.
func TestRelayDropCutsBetweenTwoReplies(t *testing.T) {
	m := StartMember(t, MemberConfig("sum"))
	faults := fault.MustParse("QRY:err@1;INS:drop@3", 1)
	relay := StartRelay(t, m, Script{Faults: faults})
	c := linetest.Dial(t, relay.Addr)
	got := c.SendAll(t, "INS 1 1 1 5\nQRY 0 9 0 0 7 7\nINS 2 1 1 5\nINS 3 1 1 5\nINS 4 1 1 5\n", 3)
	if want := "OK|ERR injected fault at QRY (op 1)|OK"; strings.Join(got, "|") != want {
		t.Fatalf("replies %q, want %q", got, want)
	}
	if l, err := c.R.ReadString('\n'); err == nil {
		t.Fatalf("the relay answered %q past the break", l)
	}
	if n := m.Stat(t, "appended"); n != 2 {
		t.Errorf("the member appended %v inserts, want the 2 it answered", n)
	}
	if n := faults.Ops("INS"); n != 3 {
		t.Errorf("the relay checked %d INS lines, want 3: none after the break", n)
	}
	if got := linetest.Dial(t, relay.Addr).Cmd(t, "QRY 0 9 0 0 7 7"); got != "10" {
		t.Errorf("a new connection after the break reads %q, want the member's 10", got)
	}
}

// TestRelayStopClosesEveryConnection: Stop closes an idle relayed
// connection and one whose line is stalled for a minute at once, refuses
// new ones, and returns only when nothing of the relay runs.
func TestRelayStopClosesEveryConnection(t *testing.T) {
	m := StartMember(t, MemberConfig("sum"))
	faults := fault.MustParse("QRY:stall=1m", 1)
	relay := StartRelay(t, m, Script{Faults: faults})
	idle, stalled := linetest.Dial(t, relay.Addr), linetest.Dial(t, relay.Addr)
	if got := idle.Cmd(t, "INS 1 1 1 5"); got != "OK" {
		t.Fatalf("INS = %q", got)
	}
	if _, err := io.WriteString(stalled.Conn, "QRY 0 9 0 0 7 7\n"); err != nil {
		t.Fatal(err)
	}
	for faults.Ops("QRY") == 0 { // the QRY reaches its stall
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	relay.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop took %v", d)
	}
	for name, c := range map[string]*linetest.Client{"idle": idle, "stalled": stalled} {
		if err := c.Conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if l, err := c.R.ReadString('\n'); err != io.EOF {
			t.Errorf("the %s connection read %q, %v after Stop, want EOF", name, l, err)
		}
	}
	if c, err := (&net.Dialer{Timeout: time.Second}).Dial("tcp", relay.Addr); err == nil {
		c.Close()
		t.Error("a stopped relay accepted a connection")
	}
}
