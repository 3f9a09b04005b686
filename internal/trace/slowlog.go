package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one retained trace: the request line that produced it, when
// it finished, how long it took, and the finished span tree.
type Entry struct {
	Line     string
	At       time.Time
	Duration time.Duration
	Span     *Span
}

// SlowLog retains the N worst traces at or above a duration threshold
// — a bounded, in-memory slow-query log. It is safe for concurrent
// use; entries are kept sorted worst-first, and once full a new trace
// must beat the current N-th worst to be admitted.
type SlowLog struct {
	mu        sync.Mutex
	capacity  int
	threshold time.Duration // fixed at construction, read without mu
	observed  atomic.Int64
	entries   []Entry // guarded by mu; sorted by Duration descending
	admitted  int64   // guarded by mu
}

// NewSlowLog returns a slow-query log retaining at most capacity
// traces whose duration is >= threshold. A non-positive capacity
// keeps one entry; threshold 0 admits every observed trace.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{capacity: capacity, threshold: threshold}
}

// Threshold returns the admission threshold.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Cap returns the retention bound.
func (l *SlowLog) Cap() int { return l.capacity }

// Observe offers one finished trace and reports whether it was
// retained. A trace under the threshold is counted and turned away
// without taking the lock. An admitted trace is kept as a heap clone,
// so sp stays its caller's, free to hand to a Ring afterwards.
func (l *SlowLog) Observe(line string, at time.Time, d time.Duration, sp *Span) bool {
	l.observed.Add(1)
	if d < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.capacity && d <= l.entries[len(l.entries)-1].Duration {
		return false
	}
	e := Entry{Line: line, At: at, Duration: d, Span: sp.clone()}
	// Insert in descending duration order; the list is tiny (the
	// retention bound), so a linear scan beats anything clever.
	pos := len(l.entries)
	for i, cur := range l.entries {
		if d > cur.Duration {
			pos = i
			break
		}
	}
	l.entries = append(l.entries, Entry{})
	copy(l.entries[pos+1:], l.entries[pos:])
	l.entries[pos] = e
	if len(l.entries) > l.capacity {
		l.entries = l.entries[:l.capacity]
	}
	l.admitted++
	return true
}

// Entries returns a copy of the retained traces, worst-first. Their
// trees are the log's clones, which nothing changes or recycles.
func (l *SlowLog) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// Observed returns how many traces were offered.
func (l *SlowLog) Observed() int64 { return l.observed.Load() }

// Admitted returns how many traces were retained on arrival.
func (l *SlowLog) Admitted() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.admitted
}

// Ring retains the most recent traces in a fixed-size circular
// buffer, newest first on read — the /debug/trace/recent feed. Safe
// for concurrent use. It owns the trees handed to Add: the one it
// evicts goes back to New's pool, and Entries hands out clones.
type Ring struct {
	mu   sync.Mutex
	buf  []Entry // guarded by mu
	next int     // guarded by mu
	full bool    // guarded by mu
}

// NewRing returns a ring retaining the last capacity traces
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Entry, capacity)}
}

// Cap returns the retention bound.
func (r *Ring) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Add records one finished trace, evicting the oldest when full. The
// tree under sp now belongs to the ring: the caller must be done with
// it, because the ring recycles it once it is evicted.
func (r *Ring) Add(line string, at time.Time, d time.Duration, sp *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	recycle(r.buf[r.next].Span)
	r.buf[r.next] = Entry{Line: line, At: at, Duration: d, Span: sp}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Entries returns a copy of the retained traces, newest first, each
// with a clone of its tree.
func (r *Ring) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		e := r.buf[idx]
		e.Span = e.Span.clone()
		out = append(out, e)
	}
	return out
}
