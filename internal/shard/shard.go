// Package shard implements time-range sharding for histcube: an
// immutable shard map keyed by contiguous transaction-time ranges,
// query route computation, and partial-aggregate merging for the
// scatter-gather proxy (cmd/histproxy).
//
// The partitioning leans on the paper's core reduction (Sec. 2.2): any
// d-dimensional range query decomposes into two (d-1)-dimensional
// instance queries against cumulative slices, and the supported
// operators (SUM, COUNT — AVG is maintained as the pair) are
// invertible. Because the transaction-time dimension is answered by
// prefix differences, a time-range partition splits any query into
// independent per-shard sub-queries whose results merge by simple
// addition — no coordination, no re-aggregation state. Historic shards
// converge to the read-only PS regime (the EXPLAIN convergence the
// server already proves) while the single open-ended hot shard absorbs
// appends.
//
// A Map is a sorted list of disjoint, contiguous inclusive time ranges
// [Lo, Hi], exactly the last of which is open-ended (Hi ==
// math.MaxInt64): the hot shard. Locate routes a mutation by its
// timestamp; Route clamps a query's time range into one Leg per
// overlapped shard. Merge folds the per-shard answers back together in
// deterministic map order, so the merged total is bit-identical across
// response arrival orders, and reports exactly which time ranges a
// degraded answer still covers when a shard failed.
package shard

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Open is the Hi value of the open-ended hot range.
const Open = math.MaxInt64

// Range is an inclusive transaction-time interval [Lo, Hi]; Hi == Open
// marks the hot shard's open-ended range.
type Range struct {
	Lo, Hi int64
}

// Contains reports whether t falls inside the range.
func (r Range) Contains(t int64) bool { return t >= r.Lo && t <= r.Hi }

// String renders the range in the shard-spec syntax: "lo-hi", or
// "lo-" for the open-ended range.
func (r Range) String() string {
	if r.Hi == Open {
		return fmt.Sprintf("%d-", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// Shard is one replica set owning a time range: the primary at Addr
// (which takes the writes) plus zero or more replicas kept in sync by
// WAL shipping. Reads may go to any member — replicas replay the
// primary's totally ordered op stream, so every member answers
// bit-identically — and on primary failure the proxy promotes the
// most-caught-up replica.
type Shard struct {
	Addr     string   // primary (initial write target)
	Replicas []string // follower addresses, may be empty
	Range    Range
}

// Members returns every address in the replica set, primary first.
func (s Shard) Members() []string {
	return append([]string{s.Addr}, s.Replicas...)
}

// Map is an immutable, ordered shard map. Construct with New or Parse;
// the zero value is empty and routes nothing.
type Map struct {
	shards []Shard
}

// Parse builds a Map from a spec string:
//
//	addr=lo-hi,addr=lo-hi,...,addr=lo-
//
// Each addr may be a '|'-separated replica set, primary first:
//
//	primary|replica1|replica2=lo-hi
//
// Ranges are inclusive, must ascend contiguously (each Lo is the
// previous Hi + 1) and exactly the last must be open-ended ("lo-"): the
// hot shard taking appends. Boundaries must be non-negative — the
// spec's "-" separator doubles as the range dash.
func Parse(spec string) (*Map, error) {
	parts := strings.Split(spec, ",")
	shards := make([]Shard, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.LastIndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("shard %q: want addr=lo-hi", part)
		}
		addr, rng := part[:eq], part[eq+1:]
		loStr, hiStr, ok := strings.Cut(rng, "-")
		if !ok {
			return nil, fmt.Errorf("shard %q: range %q wants lo-hi or lo- (open)", part, rng)
		}
		lo, err := strconv.ParseInt(loStr, 10, 64)
		if err != nil || lo < 0 {
			return nil, fmt.Errorf("shard %q: bad range start %q (non-negative integer required)", part, loStr)
		}
		hi := int64(Open)
		if hiStr != "" {
			hi, err = strconv.ParseInt(hiStr, 10, 64)
			if err != nil || hi < 0 {
				return nil, fmt.Errorf("shard %q: bad range end %q (non-negative integer or empty for open)", part, hiStr)
			}
		}
		members := strings.Split(addr, "|")
		var reps []string
		if len(members) > 1 {
			reps = members[1:]
		}
		shards = append(shards, Shard{Addr: members[0], Replicas: reps, Range: Range{Lo: lo, Hi: hi}})
	}
	return New(shards)
}

// New validates and freezes a shard list into a Map. The ranges must
// be sorted ascending, contiguous (no gaps, no overlaps), with exactly
// the last range open-ended; member addresses (primaries and replicas
// alike) must be unique and non-empty.
func New(shards []Shard) (*Map, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard map is empty")
	}
	seen := make(map[string]bool, len(shards))
	for i, s := range shards {
		for _, addr := range s.Members() {
			if addr == "" {
				return nil, fmt.Errorf("shard %d has an empty member address", i)
			}
			if seen[addr] {
				return nil, fmt.Errorf("shard address %q appears twice", addr)
			}
			seen[addr] = true
		}
		if s.Range.Hi != Open && s.Range.Hi < s.Range.Lo {
			return nil, fmt.Errorf("shard %s: range %s is inverted", s.Addr, s.Range)
		}
		if i > 0 {
			prev := shards[i-1].Range
			if prev.Hi == Open {
				return nil, fmt.Errorf("shard %s: only the last range may be open-ended", shards[i-1].Addr)
			}
			if s.Range.Lo != prev.Hi+1 {
				return nil, fmt.Errorf("shard %s: range %s does not continue %s (want lo=%d — the map must be contiguous)",
					s.Addr, s.Range, prev, prev.Hi+1)
			}
		}
	}
	if last := shards[len(shards)-1].Range; last.Hi != Open {
		return nil, fmt.Errorf("last shard %s: range %s must be open-ended (lo-) — the hot shard absorbs all future appends",
			shards[len(shards)-1].Addr, last)
	}
	return &Map{shards: append([]Shard(nil), shards...)}, nil
}

// Shards returns the ordered shard list (a copy).
func (m *Map) Shards() []Shard {
	return append([]Shard(nil), m.shards...)
}

// Len returns the number of shards.
func (m *Map) Len() int { return len(m.shards) }

// Hot returns the open-ended append shard (the last one).
func (m *Map) Hot() Shard { return m.shards[len(m.shards)-1] }

// String renders the map in the Parse spec syntax.
func (m *Map) String() string {
	parts := make([]string, len(m.shards))
	for i, s := range m.shards {
		parts[i] = strings.Join(s.Members(), "|") + "=" + s.Range.String()
	}
	return strings.Join(parts, ",")
}

// Locate returns the map position of the shard owning timestamp t — the
// mutation route, the same index Leg.Index carries. ok is false when t
// precedes the first shard's range.
func (m *Map) Locate(t int64) (int, bool) {
	i := sort.Search(len(m.shards), func(i int) bool { return m.shards[i].Range.Hi >= t })
	if i == len(m.shards) || t < m.shards[i].Range.Lo {
		return 0, false
	}
	return i, true
}

// Leg is one shard's share of a scattered query: the shard plus the
// query's time range clamped to the shard's.
type Leg struct {
	Index          int // position in the map; Merge sums in this order
	Addr           string
	TimeLo, TimeHi int64
}

// Range returns the leg's clamped time range.
func (l Leg) Range() Range { return Range{Lo: l.TimeLo, Hi: l.TimeHi} }

// Route computes the scatter legs for a query over [tlo, thi]: one leg
// per overlapped shard with the time range clamped to the overlap, in
// map order. An empty result means no shard holds any of the range
// (the query precedes the map, or tlo > thi) — the correct answer is
// the operator's zero.
func (m *Map) Route(tlo, thi int64) []Leg {
	if tlo > thi {
		return nil
	}
	var legs []Leg
	for i, s := range m.shards {
		if s.Range.Hi < tlo || s.Range.Lo > thi {
			continue
		}
		legs = append(legs, Leg{
			Index:  i,
			Addr:   s.Addr,
			TimeLo: maxInt64(tlo, s.Range.Lo),
			TimeHi: minInt64(thi, s.Range.Hi),
		})
	}
	return legs
}

// Partial is one shard's answer (or failure) for its leg.
type Partial struct {
	Leg   Leg
	Value float64
	Err   error
}

// Result is a merged scatter-gather answer. When Complete, Value is
// the full answer and bit-identical to what a single cube holding all
// the data would return (Merge sums in map order regardless of
// response arrival order, and SUM/COUNT partials merge by exact
// addition of the same per-shard sums). When not Complete, Value
// covers only the Covered time ranges and Missing names the failed
// legs — a degraded PARTIAL answer, never a wrong total presented as
// complete.
type Result struct {
	Value    float64
	Complete bool
	Legs     int
	Covered  []Range // coalesced time ranges the answer covers
	Missing  []Leg   // failed legs, in map order

	// CoveredSpan/TotalSpan measure the answered and requested time
	// spans (in timestamps, as float64 so an open-ended hot-range leg
	// cannot overflow the sum). Coverage() derives the fraction.
	CoveredSpan float64
	TotalSpan   float64
}

// Coverage returns the fraction of the requested time span the merged
// value covers: 1 for a complete answer (including the zero-leg case —
// an empty route covers all of nothing), less when legs failed.
// Dashboards alert on this; the wire protocol carries it on PARTIAL
// replies as coverage=<frac>.
func (r Result) Coverage() float64 {
	if r.TotalSpan <= 0 {
		return 1
	}
	return r.CoveredSpan / r.TotalSpan
}

// Merge folds per-shard partials into one Result. The invertible-
// operator property (Sec. 2.2) makes this a plain sum: each shard
// already answered its clamped sub-range, and SUM/COUNT partials
// combine by addition. Partials are summed in Leg.Index order, so the
// result does not depend on the order responses arrived in.
func Merge(parts []Partial) Result {
	ordered := append([]Partial(nil), parts...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Leg.Index < ordered[j].Leg.Index })
	res := Result{Complete: true, Legs: len(ordered)}
	for _, p := range ordered {
		span := float64(p.Leg.TimeHi-p.Leg.TimeLo) + 1
		res.TotalSpan += span
		if p.Err != nil {
			res.Complete = false
			res.Missing = append(res.Missing, p.Leg)
			continue
		}
		res.Value += p.Value
		res.CoveredSpan += span
		res.Covered = appendCoalesced(res.Covered, p.Leg.Range())
	}
	return res
}

// appendCoalesced appends r to sorted ranges, merging it into the last
// one when adjacent or overlapping (legs arrive in map order, so
// contiguous shard ranges coalesce into one covered interval).
func appendCoalesced(ranges []Range, r Range) []Range {
	if n := len(ranges); n > 0 {
		last := &ranges[n-1]
		if last.Hi != Open && r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			return ranges
		}
	}
	return append(ranges, r)
}

// FormatRanges renders ranges for the wire ("none" when empty), e.g.
// "0-9,20-29".
func FormatRanges(ranges []Range) string {
	if len(ranges) == 0 {
		return "none"
	}
	parts := make([]string, len(ranges))
	for i, r := range ranges {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// FormatMissing renders failed legs for the wire as addr=lo-hi pairs
// ("none" when empty).
func FormatMissing(legs []Leg) string {
	if len(legs) == 0 {
		return "none"
	}
	parts := make([]string, len(legs))
	for i, l := range legs {
		parts[i] = l.Addr + "=" + l.Range().String()
	}
	return strings.Join(parts, ",")
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
