package main

import (
	"strings"
	"testing"

	"histcube/internal/linetest"
)

func TestVersionCommand(t *testing.T) {
	addr := startTestServer(t, false)
	c := linetest.Dial(t, addr)
	got := c.Cmd(t, "VERSION")
	if !strings.HasPrefix(got, "OK histserve rev=") || !strings.Contains(got, " go=go") {
		t.Fatalf("VERSION -> %q", got)
	}
	if got := c.Cmd(t, "VERSION extra"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("VERSION with args -> %q, want ERR", got)
	}
}

func TestStatsCarriesGitRev(t *testing.T) {
	addr := startTestServer(t, false)
	c := linetest.Dial(t, addr)
	got := c.Cmd(t, "STATS")
	if !strings.Contains(got, " git_rev=") {
		t.Fatalf("STATS missing git_rev: %q", got)
	}
	// Nothing sealed yet: the field must be absent so numeric STATS
	// consumers never see the MinInt64 sentinel.
	if strings.Contains(got, "sealed_through=") {
		t.Fatalf("STATS reports sealed_through before any SEAL: %q", got)
	}
}

func TestSealRejectsHistoricMutations(t *testing.T) {
	addr := startTestServer(t, true)
	c := linetest.Dial(t, addr)

	if got := c.Cmd(t, "INS 5 1 1 2"); got != "OK" {
		t.Fatalf("INS -> %q", got)
	}
	if got := c.Cmd(t, "SEAL 10"); got != "OK sealed_through=10" {
		t.Fatalf("SEAL 10 -> %q", got)
	}
	// At and below the boundary: rejected; queries still serve it.
	if got := c.Cmd(t, "INS 10 1 1 2"); !strings.HasPrefix(got, "ERR sealed:") {
		t.Fatalf("INS at boundary -> %q, want ERR sealed", got)
	}
	if got := c.Cmd(t, "DEL 5 1 1 2"); !strings.HasPrefix(got, "ERR sealed:") {
		t.Fatalf("DEL below boundary -> %q, want ERR sealed", got)
	}
	if got := c.Cmd(t, "QRY 0 10 0 0 7 7"); got != "2" {
		t.Fatalf("QRY into sealed range -> %q, want 2", got)
	}
	// Above the boundary: mutations flow.
	if got := c.Cmd(t, "INS 11 1 1 3"); got != "OK" {
		t.Fatalf("INS above boundary -> %q", got)
	}

	// Monotonic: a lower SEAL is a no-op reporting the boundary.
	if got := c.Cmd(t, "SEAL 3"); got != "OK sealed_through=10" {
		t.Fatalf("SEAL 3 after SEAL 10 -> %q", got)
	}
	if got := c.Cmd(t, "STATS"); !strings.Contains(got, "sealed_through=10") {
		t.Fatalf("STATS missing sealed_through: %q", got)
	}

	// Bare SEAL: full demotion, everything read-only.
	if got := c.Cmd(t, "SEAL"); !strings.HasPrefix(got, "OK sealed_through=") {
		t.Fatalf("bare SEAL -> %q", got)
	}
	if got := c.Cmd(t, "INS 999999 1 1 1"); !strings.HasPrefix(got, "ERR sealed:") {
		t.Fatalf("INS after full seal -> %q", got)
	}

	if got := c.Cmd(t, "SEAL 1 2"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("SEAL with two args -> %q, want ERR", got)
	}
	if got := c.Cmd(t, "SEAL x"); !strings.HasPrefix(got, "ERR bad seal time") {
		t.Fatalf("SEAL x -> %q", got)
	}
}
