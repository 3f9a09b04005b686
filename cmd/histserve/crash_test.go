package main

// Crash-injection harness: build the real histserve binary, drive a
// 10k-append workload over TCP with -fsync=always, SIGKILL the process
// mid-append, restart it on the same data directory and verify that
// recovery (checkpoint + log-tail replay, torn final record truncated)
// loses no acknowledged record. This is the durability acceptance test
// wired into check.sh and CI; it needs the go toolchain to build the
// binary (linetest.Start) and is skipped under -short.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"histcube/internal/linetest"
)

// servePkg is the command the drills run as a child process.
const servePkg = "histcube/cmd/histserve"

// recovered returns the recovery line of a restarted child's boot log.
func recovered(t *testing.T, p *linetest.Proc) string {
	t.Helper()
	for _, line := range p.Boot {
		if strings.Contains(line, "msg=recovered") {
			return line
		}
	}
	t.Fatalf("no recovery log line; boot log:\n%s", strings.Join(p.Boot, "\n"))
	return ""
}

func TestCrashRecoveryNoAcknowledgedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-injection test builds and kills real processes")
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-dims", "8,8", "-op", "sum", "-data-dir", dataDir,
		"-fsync", "always", "-checkpoint-every", "500"}

	// Phase 1: drive the append workload and SIGKILL mid-append.
	p1 := linetest.Start(t, servePkg, args...)
	conn := linetest.Dial(t, p1.Addr)
	if err := conn.Conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil { // one deadline for the whole workload
		t.Fatal(err)
	}
	const workload = 10000
	const killAfter = 1200 // acks before the plug is pulled
	acked, sent := 0, 0
	killed := false
	for i := 0; i < workload; i++ {
		if _, err := fmt.Fprintf(conn.Conn, "INS %d %d %d 1\n", i/10, i%8, (i/3)%8); err != nil {
			break // the kill landed
		}
		sent++
		resp, err := conn.R.ReadString('\n')
		if err != nil {
			break // killed between request and response
		}
		if strings.TrimSpace(resp) != "OK" {
			t.Fatalf("append %d: %q", i, strings.TrimSpace(resp))
		}
		acked++
		if acked == killAfter {
			// SIGKILL while the workload is in full flight: the next
			// iterations race the process teardown.
			if err := p1.Cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
	}
	if !killed {
		t.Fatalf("workload finished (%d acks) before the kill", acked)
	}
	p1.Stop(t, os.Kill) // reaps it
	if acked < killAfter {
		t.Fatalf("only %d acks before failure, want >= %d", acked, killAfter)
	}

	// Phase 2: restart on the same directory; recovery must replay
	// checkpoint + tail, tolerate a torn final record, and preserve
	// every acknowledged append (value 1 each: SUM == count).
	p2 := linetest.Start(t, servePkg, args...)
	recovery := recovered(t, p2)
	conn2 := linetest.Dial(t, p2.Addr)
	total := conn2.Float(t, "QRY 0 100000 0 0 7 7")
	if total < float64(acked) || total > float64(sent) {
		t.Fatalf("recovered SUM = %v, want within [acked=%d, sent=%d]\nrecovery: %s",
			total, acked, sent, recovery)
	}
	t.Logf("acked=%d sent=%d recovered=%v (%s)", acked, sent, total, recovery)

	// The recovered server keeps accepting appends.
	if resp := conn2.Cmd(t, "INS 99999 0 0 1"); resp != "OK" {
		t.Fatalf("post-recovery append: %q", resp)
	}
	after := conn2.Float(t, "QRY 0 100000 0 0 7 7")
	if after != total+1 {
		t.Fatalf("post-recovery SUM = %v, want %v", after, total+1)
	}

	// Phase 3: graceful shutdown on SIGTERM — final checkpoint, exit 0.
	stderr2, werr := p2.Stop(t, syscall.SIGTERM)
	if werr != nil {
		t.Fatalf("graceful shutdown exit: %v\nstderr:\n%s", werr, stderr2)
	}
	if !strings.Contains(stderr2, "msg=\"shutdown complete\"") {
		t.Fatalf("no shutdown-complete log line:\n%s", stderr2)
	}

	// Phase 4: a third boot resumes from the final checkpoint with an
	// empty tail — the canonical clean restart.
	p3 := linetest.Start(t, servePkg, args...)
	conn3 := linetest.Dial(t, p3.Addr)
	final := conn3.Float(t, "QRY 0 100000 0 0 7 7")
	if final != after {
		t.Fatalf("after clean restart SUM = %v, want %v", final, after)
	}
	if _, err := p3.Stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("clean restart shutdown exit: %v", err)
	}
}

// TestCrashBetweenStageAndGroupFsync kills the server in the window
// group commit opens: records staged in the log and applied to the cube
// whose fsync has not happened yet. The fsync is stalled through the
// fault injector's wal file wrapper, so a pipelined writer's whole
// window and a second connection's insert are parked at the commit
// barrier — one leading the stalled fsync, one queued behind it — and so
// is a third connection's query, which counted them, when SIGKILL lands.
// No parked request may have been answered: not the writes, and not the
// query, whose answer would count writes the restart may not hold. The
// restart on the same directory must hold every write that was acked,
// may hold any prefix of the parked ones, must not report corruption,
// and must keep serving.
func TestCrashBetweenStageAndGroupFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-injection test builds and kills real processes")
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-dims", "8,8", "-op", "sum", "-data-dir", dataDir,
		"-fsync", "always", "-checkpoint-every", "0"}

	// Acked phase, depth 1: exactly one fsync per insert, so the stall
	// armed for fsync acked+1 onwards hits the first pipelined window.
	const acked, window = 40, 16
	p1 := linetest.Start(t, servePkg, append(args,
		"-fault-spec", fmt.Sprintf("wal.sync:slow=1h@%d+", acked+1))...)
	writer := linetest.Dial(t, p1.Addr)
	for i := 0; i < acked; i++ {
		if resp := writer.Cmd(t, fmt.Sprintf("INS %d %d %d 1", i, i%8, (i/3)%8)); resp != "OK" {
			t.Fatalf("acked insert %d: %q", i, resp)
		}
	}

	// In-flight phase. Acked inserts weigh 1 each; in-flight insert j
	// weighs 1024*2^j, so the recovered SUM says exactly which of them
	// survived. ROLE answers from the log's end without a commit, so it
	// tells when a write is staged and applied while its fsync stalls.
	weight := func(j int) float64 { return 1024 * float64(uint64(1)<<j) }
	var batch strings.Builder
	for j := 0; j < window; j++ {
		fmt.Fprintf(&batch, "INS %d 0 0 %g\n", acked+j, weight(j))
	}
	if _, err := io.WriteString(writer.Conn, batch.String()); err != nil { // one write: the window is one batch at the server
		t.Fatal(err)
	}
	ctl := linetest.Dial(t, p1.Addr)
	// The writes must be staged while their fsync is stalled.
	ctl.AwaitRole(t, fmt.Sprintf(" last_lsn=%d ", acked+window)) // the window is staged and applied; its leader sits in the stalled fsync
	second := linetest.Dial(t, p1.Addr)
	if _, err := fmt.Fprintf(second.Conn, "INS %d 0 0 %g\n", acked+window, weight(window)); err != nil {
		t.Fatal(err)
	}
	ctl.AwaitRole(t, fmt.Sprintf(" last_lsn=%d ", acked+window+1)) // staged too; its commit queues behind the leader
	reader := linetest.Dial(t, p1.Addr)
	if _, err := fmt.Fprintln(reader.Conn, "QRY 0 100000 0 0 7 7"); err != nil {
		t.Fatal(err)
	}

	// No parked request may have been answered.
	for name, c := range map[string]*linetest.Client{"pipelined writer": writer, "second writer": second, "reader": reader} {
		got := make(chan string, 1)
		go func() {
			resp, _ := c.R.ReadString('\n')
			got <- resp
		}()
		select {
		case resp := <-got:
			t.Fatalf("%s was answered %q before the fsync of what it wrote or read", name, strings.TrimSpace(resp))
		case <-time.After(300 * time.Millisecond):
		}
	}
	p1.Stop(t, os.Kill)

	// Restart without the fault. Recovery must accept the directory.
	p2 := linetest.Start(t, servePkg, args...)
	recovery := recovered(t, p2)
	conn := linetest.Dial(t, p2.Addr)
	total := conn.Float(t, "QRY 0 100000 0 0 7 7")
	survivors := uint64(total) / 1024
	if uint64(total)%1024 != acked {
		t.Fatalf("recovered SUM %v holds %d acked inserts, want %d\nrecovery: %s", total, uint64(total)%1024, acked, recovery)
	}
	// The log is a sequence: what survives of the in-flight records is
	// a prefix of them, i.e. the weights' bits form 0b0..01..1.
	if survivors&(survivors+1) != 0 || survivors >= 1<<(window+1) {
		t.Fatalf("recovered in-flight set %b is not a prefix of the %d parked records\nrecovery: %s", survivors, window+1, recovery)
	}
	t.Logf("acked=%d parked=%d survivors=%b (%s)", acked, window+1, survivors, recovery)

	// The recovered server keeps accepting appends after the survivors.
	if resp := conn.Cmd(t, fmt.Sprintf("INS %d 0 0 1", acked+window+1)); resp != "OK" {
		t.Fatalf("post-recovery append: %q", resp)
	}
	if after := conn.Float(t, "QRY 0 100000 0 0 7 7"); after != total+1 {
		t.Fatalf("post-recovery SUM = %v, want %v", after, total+1)
	}
	if stderr, err := p2.Stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("graceful shutdown exit: %v\nstderr:\n%s", err, stderr)
	}
}
