package fleettest

// The transcript checker's targets whose member goes down mid-script:
// a durable histserve killed and restarted on its own directory, and a
// semi-sync replica set whose follower is promoted once its primary is
// gone.
// Every acknowledged write must outlive both, so the oracle over the
// acknowledged mutations judges the answers after them as before.

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"histcube/internal/linetest"
)

// history is a seeded script of n lines for -dims 8,8 -ooo members:
// INS at a clock that moves on, INS below it (out of order), DEL of an
// earlier insert's value at its cell, now, and QRY over random time
// ranges and boxes.
func history(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	var lines []string
	var inserted [][]string
	now := int64(0)
	for len(lines) < n {
		var line string
		switch r := rng.Intn(10); {
		case r < 4:
			lo1, lo2 := rng.Intn(8), rng.Intn(8)
			tlo := rng.Int63n(now + 1)
			line = fmt.Sprintf("QRY %d %d %d %d %d %d", tlo, tlo+rng.Int63n(60),
				lo1, lo2, lo1+rng.Intn(8-lo1), lo2+rng.Intn(8-lo2))
		case r < 5 && len(inserted) > 0:
			f := inserted[rng.Intn(len(inserted))]
			line = fmt.Sprintf("DEL %d %s %s %s", now, f[2], f[3], f[4])
		case r < 7:
			line = fmt.Sprintf("INS %d %d %d %d", rng.Int63n(now+1), rng.Intn(8), rng.Intn(8), 1+rng.Intn(9))
			inserted = append(inserted, strings.Fields(line))
		default:
			now += rng.Int63n(3)
			line = fmt.Sprintf("INS %d %d %d %d", now, rng.Intn(8), rng.Intn(8), 1+rng.Intn(9))
			inserted = append(inserted, strings.Fields(line))
		}
		lines = append(lines, line)
	}
	return lines
}

// acked fails the test unless every mutation of script was answered OK:
// a refused one would leave the oracle nothing to check after the event.
func acked(t *testing.T, script, got []string) {
	t.Helper()
	for i, line := range script {
		if (strings.HasPrefix(line, "INS") || strings.HasPrefix(line, "DEL")) && got[i] != "OK" {
			t.Fatalf("line %d %q answered %q", i, line, got[i])
		}
	}
}

// TestMain lets the restart target build histserve once for the whole
// test binary.
func TestMain(m *testing.M) { os.Exit(linetest.Main(m)) }

// TestTranscriptThroughCheckpointAndRestart: a histserve binary, durable
// with -ooo -op avg, checkpoints a third of the way through a seeded
// history and is killed with SIGKILL right after, so its restart on
// the same directory recovers from the checkpoint alone; two thirds
// through it is killed again and recovers from the checkpoint plus a
// log tail with out-of-order updates in it. It answers every query
// like the oracle over what it acknowledged.
func TestTranscriptThroughCheckpointAndRestart(t *testing.T) {
	script := history(31, 300)
	script = slices.Insert(script, 200, "@restart")
	script = slices.Insert(script, 100, "CHECKPOINT", "@restart")
	got := linetest.CheckScript(t, "avg", func(t *testing.T) linetest.Fleet {
		args := []string{"-dims", "8,8", "-op", "avg", "-ooo", "-data-dir", t.TempDir(), "-fsync", "always"}
		p := linetest.Start(t, "histcube/cmd/histserve", args...)
		restarts := 0
		restart := func(t *testing.T) string {
			_, _ = p.Stop(t, os.Kill) // a crash: no final checkpoint
			p = linetest.Start(t, "histcube/cmd/histserve", args...)
			restarts++
			i := slices.IndexFunc(p.Boot, func(l string) bool { return strings.Contains(l, "msg=recovered") })
			if i < 0 {
				t.Fatalf("restart %d logged no recovery:\n%s", restarts, strings.Join(p.Boot, "\n"))
			}
			// The first restart follows the checkpoint at once; the
			// second has a hundred lines of the log to replay.
			if replayed := linetest.Field(t, p.Boot[i], "replayed"); (replayed == "0") != (restarts == 1) {
				t.Errorf("restart %d: %s", restarts, p.Boot[i])
			}
			return p.Addr
		}
		return linetest.Fleet{Addr: p.Addr, Events: map[string]func(*testing.T) string{"restart": restart}}
	}, script)
	acked(t, script, got)
	if !strings.HasPrefix(got[100], "OK ") {
		t.Fatalf("CHECKPOINT answered %q", got[100])
	}
}

// TestTranscriptThroughPromotion: a seeded history goes to a semi-sync
// -ooo -op count primary (-repl-min-acks 1) until the primary is
// stopped halfway; its follower is promoted and answers the rest, the
// acknowledged half included.
func TestTranscriptThroughPromotion(t *testing.T) {
	script := slices.Insert(history(37, 300), 150, "@promote")
	got := linetest.CheckScript(t, "count", func(t *testing.T) linetest.Fleet {
		cfg := DurableConfig("count", t.TempDir(), "always")
		cfg.OOO, cfg.ReplMinAcks = true, 1
		primary := StartMember(t, cfg)
		cfg = DurableConfig("count", t.TempDir(), "always")
		cfg.OOO, cfg.Follow = true, primary.Addr
		follower := StartMember(t, cfg)
		fc := linetest.Dial(t, follower.Addr)
		fc.AwaitRole(t, " synced=1 ")
		promote := func(t *testing.T) string {
			primary.Stop()
			if got := fc.Cmd(t, "PROMOTE"); !strings.HasPrefix(got, "OK role=primary ") {
				t.Fatalf("PROMOTE = %q", got)
			}
			return follower.Addr
		}
		return linetest.Fleet{Addr: primary.Addr, Events: map[string]func(*testing.T) string{"promote": promote}}
	}, script)
	acked(t, script, got)
}
