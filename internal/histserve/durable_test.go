package histserve

import (
	"fmt"
	"strings"
	"testing"

	"histcube/internal/linetest"
	"histcube/internal/wal"
)

// expect sends one command and requires an exact response.
func expect(t *testing.T, c *linetest.Client, line, want string) {
	t.Helper()
	if got := c.Cmd(t, line); got != want {
		t.Fatalf("%s -> %q, want %q", line, got, want)
	}
}

// newDurableServer builds a quiet server recovered from dir.
func newDurableServer(t *testing.T, dir string, every int64) (*Server, wal.RecoverResult) {
	t.Helper()
	srv := newQuietServer(t, "8,8", "sum", false)
	res, err := srv.enableDurability(dir, wal.Options{Sync: wal.SyncNever}, every)
	if err != nil {
		t.Fatal(err)
	}
	return srv, res
}

func TestDurableRestartResumesState(t *testing.T) {
	dir := t.TempDir()
	srv, res := newDurableServer(t, dir, 0)
	if res.Replayed != 0 || res.CheckpointLSN != 0 {
		t.Fatalf("fresh dir recovery = %+v", res)
	}
	addr := serveOn(t, srv)
	c := linetest.Dial(t, addr)
	total := 0.0
	for i := 0; i < 200; i++ {
		v := float64(i%7 + 1)
		expect(t, c, fmt.Sprintf("INS %d %d %d %g", i/10, i%8, (i/3)%8, v), "OK")
		total += v
	}
	srv.Close() // graceful path: final checkpoint + WAL close

	// "Restart": a second server over the same directory.
	srv2, res2 := newDurableServer(t, dir, 0)
	if res2.CheckpointLSN != 200 || res2.Replayed != 0 {
		t.Fatalf("restart recovery = %+v, want checkpoint at LSN 200, nothing to replay", res2)
	}
	c2 := linetest.Dial(t, serveOn(t, srv2))
	expect(t, c2, "QRY 0 1000 0 0 7 7", fmt.Sprintf("%g", total))
	// And it keeps accepting appends.
	expect(t, c2, "INS 1000 0 0 5", "OK")
	expect(t, c2, "QRY 0 2000 0 0 7 7", fmt.Sprintf("%g", total+5))
	srv2.Close()
}

func TestDurableRestartWithoutShutdownReplaysLog(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, 0)
	addr := serveOn(t, srv)
	c := linetest.Dial(t, addr)
	for i := 0; i < 50; i++ {
		expect(t, c, fmt.Sprintf("INS %d %d 0 2", i, i%8), "OK")
	}
	// Crash: no shutdown, no checkpoint — only the log survives. Force
	// the OS-buffered writes down first (SyncNever in tests).
	srv.mu.Lock()
	srv.wal.Sync()
	srv.mu.Unlock()

	srv2, res := newDurableServer(t, dir, 0)
	if res.CheckpointLSN != 0 || res.Replayed != 50 {
		t.Fatalf("recovery = %+v, want 50 records replayed from LSN 1", res)
	}
	c2 := linetest.Dial(t, serveOn(t, srv2))
	expect(t, c2, "QRY 0 1000 0 0 7 7", "100")
	srv2.Close()
}

func TestCheckpointCommand(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, 0)
	c := linetest.Dial(t, serveOn(t, srv))
	expect(t, c, "INS 1 0 0 3", "OK")
	expect(t, c, "INS 2 1 1 4", "OK")
	expect(t, c, "CHECKPOINT", "OK 2")
	expect(t, c, "CHECKPOINT extra", "ERR CHECKPOINT takes no arguments")
	srv.Close()

	// The on-demand checkpoint seeds the next recovery.
	srv2, res := newDurableServer(t, dir, 0)
	if res.CheckpointLSN < 2 {
		t.Fatalf("recovery = %+v, want checkpoint LSN >= 2", res)
	}
	srv2.Close()
}

func TestAutomaticCheckpointEveryN(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, 10)
	c := linetest.Dial(t, serveOn(t, srv))
	for i := 0; i < 25; i++ {
		expect(t, c, fmt.Sprintf("INS %d 0 0 1", i), "OK")
	}
	srv.mu.Lock()
	since := srv.wal.SinceCheckpoint()
	srv.mu.Unlock()
	if since != 5 {
		t.Fatalf("records since checkpoint = %d, want 5 (auto checkpoints at 10 and 20)", since)
	}
	srv.Close()

	srv2, res := newDurableServer(t, dir, 10)
	if res.CheckpointLSN != 25 { // shutdown wrote the final one
		t.Fatalf("recovery = %+v, want final checkpoint at 25", res)
	}
	c2 := linetest.Dial(t, serveOn(t, srv2))
	expect(t, c2, "QRY 0 1000 0 0 7 7", "25")
	srv2.Close()
}

func TestDurableMetricsRegistered(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir, 0)
	c := linetest.Dial(t, serveOn(t, srv))
	expect(t, c, "INS 1 0 0 1", "OK")
	expect(t, c, "CHECKPOINT", "OK 1")
	var sb strings.Builder
	if err := srv.Reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"histcube_wal_appends_total 1",
		"histcube_wal_checkpoints_total 1",
		"histcube_wal_segments",
		"histcube_wal_checkpoint_age_seconds",
		"histcube_wal_records_since_checkpoint 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	srv.Close()
}
