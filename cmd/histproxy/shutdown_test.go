package main

import (
	"errors"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"histcube/internal/linetest"
)

// TestProxySigtermExitsCleanly is the binary's graceful path: a proxy in
// front of one live member and one dead one, whose member-state loop is
// probing the dead one, exits 0 on SIGTERM within one -shard-timeout
// plus one -probe-every, and no process of the drill outlives it. A
// bad flag exits 2.
func TestProxySigtermExitsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals real processes")
	}
	live := linetest.Start(t, servePkg, "-dims", "8,8", "-op", "sum")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	const shardTimeout, probeEvery = time.Second, 200 * time.Millisecond
	proxy := linetest.Start(t, proxyPkg, "-dims", "8,8",
		"-shards", live.Addr+"=0-99,"+dead+"=100-",
		"-shard-timeout", shardTimeout.String(), "-probe-every", probeEvery.String())
	var exit *exec.ExitError
	if err := exec.Command(proxy.Cmd.Path, "-dims", "8,8").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("histproxy without -shards: %v, want exit status 2", err)
	}
	c := linetest.Dial(t, proxy.Addr)
	if got := c.Cmd(t, "INS 1 1 1 5"); got != "OK" {
		t.Fatalf("INS to the live member = %q", got)
	}
	if got := c.Cmd(t, "QRY 0 199 0 0 7 7"); !strings.HasPrefix(got, "PARTIAL 5 ") {
		t.Fatalf("QRY over the dead member = %q, want PARTIAL 5", got)
	}

	for _, p := range []*linetest.Proc{proxy, live} {
		sent := time.Now()
		if _, err := p.Stop(t, syscall.SIGTERM); err != nil {
			t.Fatalf("%s after SIGTERM: %v, want exit status 0", p.Cmd.Path, err)
		}
		if d := time.Since(sent); d > shardTimeout+probeEvery {
			t.Fatalf("%s took %v to exit after SIGTERM", p.Cmd.Path, d)
		}
		if err := syscall.Kill(p.Cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Fatalf("%s (pid %d) outlived its exit: kill -0 = %v", p.Cmd.Path, p.Cmd.Process.Pid, err)
		}
		t.Logf("%s exited 0 %v after SIGTERM", filepath.Base(p.Cmd.Path), time.Since(sent))
	}
}
