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
	serveBin := buildBinary(t, "histserve", "../histserve")
	proxyBin := buildBinary(t, "histproxy", ".")
	var exit *exec.ExitError
	if err := exec.Command(proxyBin, "-dims", "8,8").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("histproxy without -shards: %v, want exit status 2", err)
	}

	live := startProc(t, serveBin, "-addr", "127.0.0.1:0", "-dims", "8,8", "-op", "sum")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	const shardTimeout, probeEvery = time.Second, 200 * time.Millisecond
	proxy := startProc(t, proxyBin, "-addr", "127.0.0.1:0", "-dims", "8,8",
		"-shards", live.addr+"=0-99,"+dead+"=100-",
		"-shard-timeout", shardTimeout.String(), "-probe-every", probeEvery.String())
	c := chaosDial(t, proxy.addr)
	if got := c.cmd(t, "INS 1 1 1 5"); got != "OK" {
		t.Fatalf("INS to the live member = %q", got)
	}
	if got := c.cmd(t, "QRY 0 199 0 0 7 7"); !strings.HasPrefix(got, "PARTIAL 5 ") {
		t.Fatalf("QRY over the dead member = %q, want PARTIAL 5", got)
	}

	for _, p := range []*chaosProc{proxy, live} {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s after SIGTERM: %v, want exit status 0", p.cmd.Path, err)
			}
		case <-time.After(shardTimeout + probeEvery):
			t.Fatalf("%s still running %v after SIGTERM", p.cmd.Path, time.Since(sent))
		}
		if err := syscall.Kill(p.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Fatalf("%s (pid %d) outlived its exit: kill -0 = %v", p.cmd.Path, p.cmd.Process.Pid, err)
		}
		t.Logf("%s exited 0 %v after SIGTERM", filepath.Base(p.cmd.Path), time.Since(sent))
	}
}
