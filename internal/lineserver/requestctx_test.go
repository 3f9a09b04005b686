package lineserver

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"histcube/internal/trace"
)

func requestCtx(t *testing.T, timeout time.Duration) (context.Context, context.CancelFunc, time.Time) {
	t.Helper()
	start := time.Now()
	c := new(RequestCtx)
	ctx := (&Server{ReqTimeout: timeout}).StartRequest(c, nil, start)
	t.Cleanup(c.Cancel)
	d, ok := ctx.Deadline()
	if !ok {
		t.Fatal("RequestCtx with a timeout reports no deadline")
	}
	if !d.Equal(start.Add(timeout)) {
		t.Fatalf("deadline %v is not the request's start plus %v", d, timeout)
	}
	return ctx, c.Cancel, d
}

// TestRequestCtxCarriesTheRootSpan: the one request context carries the
// root span for trace.FromContext, so does a context derived from it,
// before and after Done, and its deadline runs from the request's start,
// which is the span's.
func TestRequestCtxCarriesTheRootSpan(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Hour} {
		root := trace.New("histserve.query")
		c := new(RequestCtx)
		ctx, cancel := (&Server{ReqTimeout: timeout}).StartRequest(c, root, root.Start()), c.Cancel
		if got := trace.FromContext(ctx); got != root {
			t.Fatalf("timeout %v: FromContext = %p, want the root span %p", timeout, got, root)
		}
		child, stop := context.WithCancel(ctx)
		if got := trace.FromContext(child); got != root {
			t.Fatalf("timeout %v: FromContext of a derived context = %p, want %p", timeout, got, root)
		}
		d, ok := ctx.Deadline()
		if timeout > 0 {
			if !ok || !d.Equal(root.Start().Add(timeout)) {
				t.Fatalf("deadline %v (set %v), want the span's start plus %v = %v", d, ok, timeout, root.Start().Add(timeout))
			}
			_ = ctx.Done()
			if got := trace.FromContext(child); got != root {
				t.Fatalf("after Done, FromContext of a derived context = %p, want %p", got, root)
			}
		} else if ok {
			t.Fatalf("RequestCtx without a timeout reports deadline %v", d)
		}
		stop()
		cancel()
	}
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestRequestCtxErrPollsTheDeadline: Err alone moves the context from
// live to DeadlineExceeded, and a Done asked for afterwards is closed.
func TestRequestCtxErrPollsTheDeadline(t *testing.T) {
	ctx, _, d := requestCtx(t, 20*time.Millisecond)
	if err := ctx.Err(); err != nil && time.Now().Before(d) {
		t.Fatalf("Err before the deadline = %v", err)
	}
	time.Sleep(time.Until(d) + time.Millisecond)
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	if !isClosed(ctx.Done()) {
		t.Fatal("Done is open after Err reported DeadlineExceeded")
	}
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done = %v, want DeadlineExceeded", err)
	}
}

// TestRequestCtxDoneFiresAtTheDeadline is what histproxy's hedge race
// relies on: a select on Done, and on the Done of a context derived
// from it, wakes at the deadline with Err agreeing.
func TestRequestCtxDoneFiresAtTheDeadline(t *testing.T) {
	ctx, _, d := requestCtx(t, 20*time.Millisecond)
	child, stop := context.WithCancel(ctx)
	defer stop()
	if (isClosed(ctx.Done()) || ctx.Err() != nil) && time.Now().Before(d) {
		t.Fatal("context is done before its deadline")
	}
	for _, c := range []context.Context{ctx, child} {
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done did not fire within 5s of a 20ms deadline")
		}
		if now := time.Now(); now.Before(d) {
			t.Fatalf("Done fired %v before the deadline", d.Sub(now))
		}
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err after Done fired = %v, want DeadlineExceeded", err)
		}
	}
}

// TestRequestCtxCancel: cancel answers Canceled and closes Done, whether
// Done was asked for before or after it, and a second cancel is safe.
func TestRequestCtxCancel(t *testing.T) {
	for _, doneFirst := range []bool{false, true} {
		ctx, cancel, _ := requestCtx(t, time.Hour)
		var done <-chan struct{}
		if doneFirst {
			done = ctx.Done()
		}
		cancel()
		cancel()
		if err := ctx.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("doneFirst=%v: Err after cancel = %v, want Canceled", doneFirst, err)
		}
		if !doneFirst {
			done = ctx.Done()
		}
		if !isClosed(done) {
			t.Fatalf("doneFirst=%v: Done is open after cancel", doneFirst)
		}
	}
}

// TestRequestCtxConcurrentUse: histproxy reads one request's context
// from every fan-out goroutine while its timer may fire and settle may
// cancel it; every reader sees the same end state.
func TestRequestCtxConcurrentUse(t *testing.T) {
	ctx, cancel, _ := requestCtx(t, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child, stop := context.WithCancel(ctx)
			defer stop()
			for ctx.Err() == nil {
				runtime.Gosched()
			}
			<-child.Done()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		cancel()
	}()
	wg.Wait()
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline and a late cancel = %v, want DeadlineExceeded", err)
	}
}
