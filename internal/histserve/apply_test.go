package histserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"histcube/internal/wal"
)

// TestPrimaryAndFollowerApplyOneStream sends one seeded stream of INS,
// DEL and out-of-order INS through a durable primary without -ooo and
// its semi-sync follower. Both reach the cube only through
// wal.Log.Apply — both from applyUnit, under settle and settleShipped —
// so the ops the primary's cube rejects are logged there,
// shipped, and skipped on the follower alike: once both settle, their
// logs hold the same (LSN, op) sequence and SAVE writes byte-identical
// snapshots (no query was sent, so no eCube conversion tells them
// apart).
func TestPrimaryAndFollowerApplyOneStream(t *testing.T) {
	primary, _ := newDurableServer(t, t.TempDir(), 0)
	primary.cfg.ReplMinAcks, primary.cfg.ReplAckTimeout = 1, 10*time.Second
	paddr := serveOn(t, primary)
	follower, faddr := startReplica(t, t.TempDir(), paddr)
	waitUntil(t, 5*time.Second, "the follower's link", func() bool { return primary.hub.Followers() == 1 })

	pc := dial(t, paddr)
	r := rand.New(rand.NewSource(34))
	now, rejected := int64(1), 0
	for i := 0; i < 300; i++ {
		x, y, v := r.Intn(8), r.Intn(8), float64(r.Intn(9)+1)
		switch k := r.Intn(10); {
		case k < 2 && now > 1 && i < 299: // out of order: logged, then rejected
			got := pc.cmd(t, fmt.Sprintf("INS %d %d %d %g", r.Int63n(now-1)+1, x, y, v))
			if !strings.HasPrefix(got, "ERR appendcube: update time precedes the latest time slice") {
				t.Fatalf("out-of-order INS -> %q, want the cube's rejection", got)
			}
			rejected++
		case k < 4:
			pc.expect(t, fmt.Sprintf("DEL %d %d %d %g", now, x, y, v), "OK")
		default:
			if k == 9 {
				now++
			}
			pc.expect(t, fmt.Sprintf("INS %d %d %d %g", now, x, y, v), "OK")
		}
	}
	if rejected == 0 {
		t.Fatal("the stream sent no out-of-order INS")
	}
	end := primary.wal.LastLSN()
	if end != 300 {
		t.Fatalf("primary log ends at %d, want all 300 ops logged", end)
	}
	waitUntil(t, 5*time.Second, "the follower to settle", func() bool { return follower.repl.applied() == end })

	if p, f := loggedOps(t, primary.wal), loggedOps(t, follower.wal); !reflect.DeepEqual(p, f) {
		t.Fatalf("logs differ:\nprimary  %v\nfollower %v", p, f)
	}
	dir := t.TempDir()
	pfile, ffile := filepath.Join(dir, "primary.gob"), filepath.Join(dir, "follower.gob")
	pc.expect(t, "SAVE "+pfile, "OK")
	dial(t, faddr).expect(t, "SAVE "+ffile, "OK")
	pb, err := os.ReadFile(pfile)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(ffile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, fb) {
		t.Fatalf("SAVE differs: primary %d bytes, follower %d bytes", len(pb), len(fb))
	}
}

// loggedOps reads every committed record of l, in LSN order.
func loggedOps(t *testing.T, l *wal.Log) []wal.StreamRecord {
	t.Helper()
	s, err := l.SubscribeFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.StreamRecord
	for {
		rec, ok, err := s.TryNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return recs
		}
		recs = append(recs, rec)
	}
}
