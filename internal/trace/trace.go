// Package trace is histcube's request-scoped tracing layer: a
// dependency-free span recorder with per-query cost counters. A span
// records a name, start time, duration, typed attributes and ordered
// children; counters accumulate the paper's cost units (cells touched,
// DDC->PS conversions, instances consulted, pager I/O, WAL bytes) so a
// single query's work is attributable — the per-request counterpart of
// the aggregate metrics in internal/obs.
//
// Tracing is zero-cost when off: every method is safe on a nil *Span
// and returns after one branch, so the untraced hot path (the common
// case — plain Query/Insert calls) pays one nil check and allocates
// nothing. The overhead is pinned by a benchmark-backed regression
// test (overhead_test.go, <= 5 ns/op).
//
// When it is on — every request a server serves — a span tree costs
// no heap. New and NewAt take a slab of eight spans from a sync.Pool (a
// served QRY's tree has four, or seven on an AVG cube, and one more
// while the out-of-order buffer holds points; an INS or DEL's two) and
// StartChild hands out the next one; a span is reset when it is handed
// out, so a two-span tree touches two. A span past the slab is allocated
// alone, as a decoded span is. Each span keeps its first three
// attributes and three children inline; only a span past those sizes
// allocates on its own. Only New reads the wall clock; NewAt takes a start the caller
// already read (the serving core's stamp for the request's unit), and
// EndAt an end, so a server reads one clock for every root of a unit.
// StartChild stamps the root's start plus the monotonic time since, so
// Start and the JSON start_unix_nano keep their meaning at one monotonic
// clock read per child span and one per End. Span IDs come from the
// runtime's per-thread random source, so concurrent requests share no
// counter.
//
// A tree handed to Ring.Add belongs to the ring; the slow log and
// Entries hand out clones. The ring puts the tree it evicts back into
// the pool, so whoever hands a tree to Ring.Add must be done with it —
// every render, every read — and a tree nobody hands to a ring is
// garbage-collected. Graft takes only decoded (heap) trees. A served
// QRY on histserve allocates 4 objects and 603 B in all, parse and reply
// included, none of them for its spans (cmd/histserve's
// TestServedQueryAllocs), and a served INS or DEL 5 objects and 624 B
// (TestServedInsertAllocs).
//
// Spans are NOT safe for concurrent use: a span tree belongs to one
// request on one goroutine, which is exactly the serving contract of
// internal/histserve (all cube calls serialise under the server mutex).
// Rendered snapshots (Render, JSON) are plain values and may be
// shipped across goroutines freely.
package trace

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Counter identifies one per-request cost counter. The units follow
// the paper's cost model: cell accesses for in-memory structures, page
// I/Os for the pager, bytes for the WAL.
type Counter uint8

const (
	// CellsTouched counts historic-slice cells loaded by the eCube
	// query algorithm — the Fig. 10/11 per-query cost that converges
	// from (2 log2 N)^(d-1) towards 2^(d-1).
	CellsTouched Counter = iota
	// Conversions counts DDC->PS cell rewrites persisted during the
	// request (the convergence progress itself).
	Conversions
	// Instances counts (d-1)-dimensional instances consulted via the
	// time directory; the framework reduction bounds this at two per
	// range query (Section 2).
	Instances
	// CacheAccesses counts reads/writes of latest-slice cache cells.
	CacheAccesses
	// StoreAccesses counts historic-store accesses in the store's
	// native unit (cells in memory, page I/Os on disk).
	StoreAccesses
	// PagerReads counts pages faulted in by the single-page buffer.
	PagerReads
	// PagerWrites counts pages written back.
	PagerWrites
	// WALBytes counts write-ahead-log bytes appended for the request.
	WALBytes
	// ForcedCopies counts step-3 forced lazy copies (Fig. 8).
	ForcedCopies
	// CopyAheadWork counts step-4 copy-ahead work (Fig. 8).
	CopyAheadWork

	// NumCounters bounds the counter enum; it is not a counter.
	NumCounters
)

var counterNames = [NumCounters]string{
	CellsTouched:  "cells_touched",
	Conversions:   "conversions",
	Instances:     "instances",
	CacheAccesses: "cache_accesses",
	StoreAccesses: "store_accesses",
	PagerReads:    "pager_reads",
	PagerWrites:   "pager_writes",
	WALBytes:      "wal_bytes",
	ForcedCopies:  "forced_copies",
	CopyAheadWork: "copy_ahead",
}

// String returns the snake_case counter name used in renders, EXPLAIN
// replies and JSON.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// attrKind discriminates the typed attribute payload.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindStr
	kindFloat
	kindBool
)

// Attr is one typed key/value attribute on a span. An int and a float
// payload share n (a float as its IEEE 754 bits), which keeps the
// attributes a span holds inline small.
type Attr struct {
	Key  string
	s    string
	n    uint64
	kind attrKind
	b    bool
}

// Value renders the attribute value as a string.
func (a Attr) Value() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.n), 10)
	case kindStr:
		return a.s
	case kindFloat:
		return strconv.FormatFloat(math.Float64frombits(a.n), 'g', -1, 64)
	default:
		return strconv.FormatBool(a.b)
	}
}

// value returns the attribute payload as a JSON-encodable value.
func (a Attr) value() any {
	switch a.kind {
	case kindInt:
		return int64(a.n)
	case kindStr:
		return a.s
	case kindFloat:
		return math.Float64frombits(a.n)
	default:
		return a.b
	}
}

// Span is one node of a request trace. The zero value is not useful;
// construct roots with New and children with StartChild. All methods
// are nil-safe no-ops so call sites need no "is tracing on" guards.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	traceID  ID // shared by every span of one request tree
	spanID   ID // unique per span
	attrs    []Attr
	children []*Span
	counters [NumCounters]int64
	// The first attributes and children live in these arrays; append
	// moves them to the heap only past their size.
	attrBuf  [inlineAttrs]Attr
	childBuf [inlineChildren]*Span
	tree     *slab // the slab of the tree's root; nil for decoded and cloned spans
}

const (
	inlineAttrs    = 3 // every histcube span sets at most three (histcube.prefix: t, slice, form)
	inlineChildren = 3 // histcube.query's two prefixes and the OOO buffer
	slabSpans      = 8 // a served QRY's tree on an AVG cube with a pending buffer has eight
)

// slab is the memory behind a span tree: New takes its first span for
// the root and StartChild the next ones. The Ring that evicts a tree
// puts its slab back into slabs for New to reuse.
type slab struct {
	spans [slabSpans]Span
	used  int // spans handed out since New
}

var slabs = sync.Pool{New: func() any { return new(slab) }}

// New starts a root span with a freshly generated TraceID — the edge
// of a distributed trace — and the one wall-clock read of its tree.
// Span names are part of the observability contract: constant dotted
// snake_case under the histcube. or histserve. prefix, enforced by
// histlint's metricname analyzer.
func New(name string) *Span { return NewAt(name, time.Now()) }

// NewAt is New with the start the caller read: a server stamps a unit
// of requests once and starts each request's root at that stamp. start
// should carry a monotonic reading (time.Now's does), which StartChild
// and End measure from.
func NewAt(name string, start time.Time) *Span {
	sl := slabs.Get().(*slab)
	sl.used = 1
	return sl.spans[0].open(name, NewID(), start, sl)
}

// StartChild starts and appends a child span inheriting the parent's
// TraceID; it returns nil when s is nil, so disabled tracing
// propagates through call trees for free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	sl := s.tree
	if sl == nil { // a decoded or cloned tree has no root clock
		return s.adopt(new(Span).open(name, s.traceID, time.Now(), nil))
	}
	var c *Span
	if sl.used < len(sl.spans) {
		c = &sl.spans[sl.used]
		sl.used++
	} else {
		c = new(Span)
	}
	root := sl.spans[0].start
	return s.adopt(c.open(name, s.traceID, root.Add(time.Since(root)), sl))
}

// open resets s, which may hold a recycled tree's span, to a new span.
func (s *Span) open(name string, traceID ID, start time.Time, tree *slab) *Span {
	*s = Span{name: name, start: start, traceID: traceID, spanID: NewID(), tree: tree}
	return s
}

// recycle returns the slab behind root to the pool, if root is a tree's
// root from New; anything else is left to the garbage collector.
func recycle(root *Span) {
	if root != nil && root.tree != nil && root == &root.tree.spans[0] {
		slabs.Put(root.tree)
	}
}

// clone returns a heap copy of the tree under s that shares nothing with
// it (nil for nil).
func (s *Span) clone() *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: s.name, start: s.start, dur: s.dur, traceID: s.traceID, spanID: s.spanID, counters: s.counters}
	for _, a := range s.attrs {
		c.set(a)
	}
	for _, child := range s.children {
		c.adopt(child.clone())
	}
	return c
}

// adopt appends a child, into childBuf while it has room, and returns
// it.
func (s *Span) adopt(c *Span) *Span {
	if s.children == nil {
		s.children = s.childBuf[:0]
	}
	s.children = append(s.children, c)
	return c
}

// set appends an attribute, into attrBuf while it has room.
func (s *Span) set(a Attr) {
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, a)
}

// TraceID returns the request-wide trace identifier (zero for nil).
func (s *Span) TraceID() ID {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SetTraceID adopts a propagated trace identifier (the TID= request
// token), replacing the generated one. It must run before children are
// started — they inherit at StartChild time. A zero id (no token on
// the request) is a no-op, so call sites need no branch; a nil span is
// a no-op like every other method.
func (s *Span) SetTraceID(id ID) {
	if s == nil || id == 0 {
		return
	}
	s.traceID = id
}

// Graft appends an already-built span as a child — the proxy-side
// merge that hangs a shard's decoded tree (SpanJSON.Span) under its
// proxy.leg span so Total sums the whole distributed request. The child
// must be a decoded (heap) tree: a tree from New belongs to the ring it
// is handed to. Nil receiver and nil child are no-ops.
func (s *Span) Graft(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.adopt(child)
}

// End fixes the span's duration. Ending twice keeps the first
// duration; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil || s.dur != 0 {
		return
	}
	s.EndAt(s.start.Add(time.Since(s.start)))
}

// EndAt is End at a time the caller read: a server ends every root of a
// unit at one stamp.
func (s *Span) EndAt(t time.Time) {
	if s == nil || s.dur != 0 {
		return
	}
	s.dur = t.Sub(s.start)
	if s.dur <= 0 {
		s.dur = 1 // clock granularity floor; 0 means "still open"
	}
}

// Add bumps one cost counter on this span.
func (s *Span) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.counters[c] += n
}

// SetInt attaches an integer attribute. The setters are monomorphic
// (no variadic slice) so a call on a nil span allocates nothing.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, kind: kindInt, n: uint64(v)})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, kind: kindStr, s: v})
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, kind: kindFloat, n: math.Float64bits(v)})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, kind: kindBool, b: v})
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns when the span was started (the zero time for nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's recorded duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Children returns the ordered child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Total returns the value of counter c summed over the span and its
// whole subtree — the per-request aggregate EXPLAIN reports.
func (s *Span) Total(c Counter) int64 {
	if s == nil {
		return 0
	}
	n := s.counters[c]
	for _, child := range s.children {
		n += child.Total(c)
	}
	return n
}

// ContextKey is the zero-size context key a span travels under:
// NewContext sets it and FromContext reads it. A context type that
// carries its request's span itself (the serving core's request
// context) answers Value(ContextKey{}) with that span instead of
// wrapping one more context around it.
type ContextKey struct{}

// NewContext returns a context carrying sp. A nil span returns ctx
// unchanged, so untraced requests never touch context values.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ContextKey{}, sp)
}

// FromContext extracts the span from ctx, nil when absent — the one
// branch the disabled path costs.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ContextKey{}).(*Span)
	return sp
}

// Render writes the span tree as indented text, one line per span:
//
//	histcube.query dur=12.3µs time_lo=1 time_hi=5
//	  histcube.prefix dur=8.1µs t=5 slice=2 form=historic cells_touched=17 conversions=9 ...
//
// Counters appear after attributes, zero counters omitted. A nil span
// renders nothing.
func (s *Span) Render(w io.Writer) {
	s.render(w, 0)
}

// Explain renders the text form of an EXPLAIN reply: the head line,
// the span tree, a totals line with every counter summed over the tree
// (over a tree histproxy merged from its shards' trees this is
// bit-identical to adding up the shards' own totals lines, because
// counters travel as int64), and END.
func (s *Span) Explain(head string) string {
	var b strings.Builder
	b.WriteString(head)
	b.WriteByte('\n')
	s.Render(&b)
	b.WriteString("totals")
	for c := Counter(0); c < NumCounters; c++ {
		fmt.Fprintf(&b, " %s=%d", c, s.Total(c))
	}
	b.WriteString("\nEND")
	return b.String()
}

func (s *Span) render(w io.Writer, depth int) {
	if s == nil {
		return
	}
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	io.WriteString(w, s.name)
	fmt.Fprintf(w, " dur=%s", s.dur)
	for _, a := range s.attrs {
		fmt.Fprintf(w, " %s=%s", a.Key, a.Value())
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := s.counters[c]; v != 0 {
			fmt.Fprintf(w, " %s=%d", c, v)
		}
	}
	io.WriteString(w, "\n")
	for _, child := range s.children {
		child.render(w, depth+1)
	}
}

// SpanJSON is the JSON shape of a rendered span, used by the
// /debug/slowlog and /debug/trace/recent endpoints and histbench
// -trace reports.
type SpanJSON struct {
	Name       string           `json:"name"`
	TraceID    string           `json:"trace_id,omitempty"`
	SpanID     string           `json:"span_id,omitempty"`
	StartNano  int64            `json:"start_unix_nano"`
	DurationNS int64            `json:"duration_ns"`
	Attrs      map[string]any   `json:"attrs,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanJSON      `json:"children,omitempty"`
}

// JSON converts the span tree into its JSON shape (nil for nil).
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	j := &SpanJSON{
		Name:       s.name,
		TraceID:    s.traceID.String(),
		SpanID:     s.spanID.String(),
		StartNano:  s.start.UnixNano(),
		DurationNS: int64(s.dur),
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			j.Attrs[a.Key] = a.value()
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := s.counters[c]; v != 0 {
			if j.Counters == nil {
				j.Counters = make(map[string]int64)
			}
			j.Counters[c.String()] = v
		}
	}
	for _, child := range s.children {
		j.Children = append(j.Children, child.JSON())
	}
	return j
}
