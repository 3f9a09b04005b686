package histproxy

// A member's reply is input from outside the program: file decodes it
// where it lands, and a reply it cannot read fails its leg rather than
// entering a merge.

import (
	"strings"
	"testing"
	"time"

	"histcube/internal/shard"
	"histcube/internal/trace"
)

// TestFileDecodesMemberReplies drives file with crafted member replies to
// one QRY leg. A reply it cannot decode, and an ERR that says the member
// is slow or dying, fail the leg: the error lands on the leg's span and
// the answer is PARTIAL. Any other ERR is the member's deterministic
// answer, relayed as the reply.
func TestFileDecodesMemberReplies(t *testing.T) {
	p, err := New(Config{Dims: "8,8", Shards: "127.0.0.1:1=0-", ProbeEvery: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close) // never started: nothing dials the member
	const relayed = "ERR bad coordinate d0: 7 outside [0, 4)"
	for _, tc := range []struct {
		name           string
		explain, pair  bool
		reply, failure string // failure: the leg's error attribute; "" relays the reply
	}{
		{"non-numeric QRY reply", false, false, "five", `non-numeric QRY reply "five"`},
		{"PAIR reply without a count", false, true, "5", `QRY reply "5" is no sum and count`},
		{"EXPLAIN reply without OK", true, false, `{"result":5,"trace":{"name":"histserve.query"}}`, "unexpected EXPLAIN reply"},
		{"EXPLAIN reply with a nameless root", true, false, `OK {"result":5,"trace":{}}`, "no named trace root"},
		{"ERR timeout is a leg failure", false, false, "ERR timeout: request deadline exceeded", "ERR timeout"},
		{"any other ERR is relayed", false, false, relayed, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &routed{root: trace.New("proxy.query"), explain: tc.explain, pair: tc.pair}
			rt.sends = []send{{of: rt, leg: shard.Leg{Addr: "127.0.0.1:1", TimeLo: 0, TimeHi: 9},
				span: rt.root.StartChild("proxy.leg")}}
			p.file(&rt.sends[0], tc.reply, nil, 1)
			rt.root.End()
			attr, _ := rt.sends[0].span.JSON().Attrs["error"].(string)
			answer := p.merge(rt)
			if tc.failure == "" {
				if attr != "" || answer != tc.reply {
					t.Fatalf("answer %q, leg error %q; want the member's %q relayed", answer, attr, tc.reply)
				}
				return
			}
			if !strings.Contains(attr, tc.failure) {
				t.Errorf("leg error attribute %q, want it to name %q", attr, tc.failure)
			}
			if !strings.HasPrefix(answer, "PARTIAL ") {
				t.Errorf("answer %q, want PARTIAL over a failed leg", answer)
			}
		})
	}
}
