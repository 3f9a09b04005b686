package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentClients spins N goroutine clients doing mixed
// INS/QRY/STATS against one server and asserts a clean shutdown. Run
// under -race (CI does) it pins the server's locking contract: queries
// take the same exclusive mutex as updates, because a "read" mutates
// shared state — the eCube query algorithm lazily converts historic
// DDC cells to PS form in place and bumps shared cost counters. With a
// reader/writer split this test races; with the single mutex it must
// stay clean.
func TestConcurrentClients(t *testing.T) {
	srv := newQuietServer(t, "8,8", "sum", true) // ooo: interleaved times buffer instead of failing
	addr := serveOn(t, srv)

	const clients = 8
	const opsPerClient = 60
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := dial(t, addr)
			r := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < opsPerClient; i++ {
				switch i % 3 {
				case 0:
					line := fmt.Sprintf("INS %d %d %d 1", r.Intn(100), r.Intn(8), r.Intn(8))
					if got := c.cmd(t, line); got != "OK" {
						errCh <- fmt.Errorf("client %d: %q -> %q", n, line, got)
						return
					}
				case 1:
					lo := r.Intn(8)
					line := fmt.Sprintf("QRY 0 100 %d 0 7 7", lo)
					if got := c.cmd(t, line); strings.HasPrefix(got, "ERR") {
						errCh <- fmt.Errorf("client %d: %q -> %q", n, line, got)
						return
					}
				case 2:
					if got := c.cmd(t, "STATS"); !strings.HasPrefix(got, "slices=") {
						errCh <- fmt.Errorf("client %d: STATS -> %q", n, got)
						return
					}
				}
			}
			if got := c.cmd(t, "QUIT"); got != "BYE" {
				errCh <- fmt.Errorf("client %d: QUIT -> %q", n, got)
			}
		}(n)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every update must be accounted for, either appended or buffered.
	resp, _ := srv.Do(0, "STATS")
	var slices, incomplete, pending, appended int
	if _, err := fmt.Sscanf(resp, "slices=%d incomplete=%d pending=%d appended=%d",
		&slices, &incomplete, &pending, &appended); err != nil {
		t.Fatalf("STATS parse: %v (%q)", err, resp)
	}
	wantUpdates := clients * opsPerClient / 3
	if appended+pending != wantUpdates {
		t.Errorf("appended %d + pending %d != %d inserts", appended, pending, wantUpdates)
	}
	// The server-side close (and its gauge decrement) runs after the
	// client reads BYE; give the handlers a moment to drain.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Connections.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Connections.Value(); got != 0 {
		t.Errorf("connections gauge = %d after shutdown, want 0", got)
	}
	if got := srv.ConnTotal.Value(); got != clients {
		t.Errorf("connections_total = %d, want %d", got, clients)
	}
	if got := metricValue(t, srv, "histserve_inflight_requests"); got != 0 {
		t.Errorf("inflight gauge = %d after shutdown, want 0", got)
	}
}
