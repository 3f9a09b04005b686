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
// what it records: New takes a slab that holds the root and one child
// (a served INS or DEL's whole tree), StartChild takes the next free
// span, and the first StartChild past them allocates five more at once
// (the rest of a served QRY's seven). Each span keeps its first two
// attributes and three children inline; only a span past those sizes
// allocates on its own. Span IDs come from the runtime's per-thread
// random source, so concurrent requests share no counter. A served
// QRY on histserve allocates 18 objects in all, parse and reply
// included (internal/histserve's TestServedQueryAllocs guards <= 22), and a
// served INS or DEL 10 objects and 1 088 B (TestServedInsertAllocs).
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
	tree     *slab // where StartChild takes its next span; nil for decoded spans
}

const (
	inlineAttrs    = 2 // every histcube span sets at most two
	inlineChildren = 3 // histcube.query's two prefixes and the OOO buffer
	rootSpans      = 2 // New's slab: the root and one child, a whole INS/DEL tree
	growSpans      = 5 // each later slab: the rest of a served QRY's seven
)

// slab is the allocation behind a span tree: New takes its first span
// for the root, StartChild the free ones after it, and the first
// StartChild past them allocates growSpans more in one piece.
type slab struct {
	spans [rootSpans]Span
	free  []Span // the spans not yet handed out
}

// New starts a root span with a freshly generated TraceID — the edge
// of a distributed trace. Span names are part of the observability
// contract: constant dotted snake_case under the histcube. or
// histserve. prefix, enforced by histlint's metricname analyzer.
func New(name string) *Span {
	sl := &slab{}
	sl.free = sl.spans[1:]
	return sl.spans[0].open(name, NewID(), sl)
}

// StartChild starts and appends a child span inheriting the parent's
// TraceID; it returns nil when s is nil, so disabled tracing
// propagates through call trees for free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	var c *Span
	if sl := s.tree; sl == nil {
		c = new(Span)
	} else {
		if len(sl.free) == 0 {
			sl.free = make([]Span, growSpans)
		}
		c, sl.free = &sl.free[0], sl.free[1:]
	}
	s.adopt(c.open(name, s.traceID, s.tree))
	return c
}

func (s *Span) open(name string, traceID ID, tree *slab) *Span {
	s.name, s.start, s.traceID, s.spanID, s.tree = name, time.Now(), traceID, NewID(), tree
	return s
}

// adopt appends a child, into childBuf while it has room.
func (s *Span) adopt(c *Span) {
	if s.children == nil {
		s.children = s.childBuf[:0]
	}
	s.children = append(s.children, c)
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
// proxy.leg span so Total sums the whole distributed request. Nil
// receiver and nil child are no-ops.
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
	s.dur = time.Since(s.start)
	if s.dur == 0 {
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
//	histcube.query dur=12.3µs time_lo=1 time_hi=5 ...
//	  histcube.prefix dur=8.1µs t=5 slice=2
//	    histcube.slice_query ... cells_touched=17 conversions=9
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
