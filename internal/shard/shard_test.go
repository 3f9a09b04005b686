package shard

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, spec string) *Map {
	t.Helper()
	m, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return m
}

func TestParseRoundTrip(t *testing.T) {
	spec := "a:1=0-99,b:2=100-199,c:3=200-"
	m := mustParse(t, spec)
	if got := m.String(); got != spec {
		t.Fatalf("String() = %q, want %q", got, spec)
	}
	if m.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", m.Len())
	}
	if hot := m.shards[len(m.shards)-1]; hot.Addr != "c:3" || hot.Range.Hi != Open {
		t.Fatalf("last shard = %+v, want open-ended c:3", hot)
	}
}

func TestParseReplicaSets(t *testing.T) {
	spec := "p1|r1=0-99,p2|r2a|r2b=100-"
	m := mustParse(t, spec)
	shards := m.Shards()
	if shards[0].Addr != "p1" || len(shards[0].Replicas) != 1 || shards[0].Replicas[0] != "r1" {
		t.Fatalf("shard 0 = %+v, want primary p1 + replica r1", shards[0])
	}
	if got := shards[1].Members(); len(got) != 3 || got[0] != "p2" || got[1] != "r2a" || got[2] != "r2b" {
		t.Fatalf("shard 1 members = %v", got)
	}
	if got := m.String(); got != spec {
		t.Fatalf("String() = %q, want %q", got, spec)
	}
	// Plain specs stay replica-free.
	if s := mustParse(t, "a=0-").Shards()[0]; len(s.Replicas) != 0 {
		t.Fatalf("plain spec grew replicas: %+v", s)
	}
	// Member addresses share one uniqueness namespace, and every member
	// must be non-empty.
	for _, bad := range []string{"p|p=0-", "p|r=0-99,r=100-", "p|=0-", "|p=0-"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid replica set", bad)
		}
	}
}

func TestParseAddrWithEquals(t *testing.T) {
	// IPv6-ish or option-laden addresses: split on the LAST '='.
	m := mustParse(t, "host=a=0-9,host=b=10-")
	shards := m.Shards()
	if shards[0].Addr != "host=a" || shards[1].Addr != "host=b" {
		t.Fatalf("addrs = %q, %q", shards[0].Addr, shards[1].Addr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"", "empty"},
		{"a=0-9", "open-ended"},             // no hot shard
		{"a=0-,b=10-", "only the last"},     // open range not last
		{"a=0-9,b=11-", "contiguous"},       // gap
		{"a=0-9,b=9-", "contiguous"},        // overlap
		{"a=9-0,b=10-", "inverted"},         // hi < lo
		{"a=0-9,a=10-", "twice"},            // duplicate addr
		{"=0-9,b=10-", "addr=lo-hi"},        // empty addr
		{"a=x-9,b=10-", "bad range start"},  // non-numeric
		{"a=0-9,b=10-y", "bad range end"},   // non-numeric hi
		{"a=-5-9,b=10-", "bad range start"}, // negative lo
		{"a", "addr=lo-hi"},                 // no '='
		{"a=09", "lo-hi"},                   // no dash
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", tc.spec, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", tc.spec, err, tc.want)
		}
	}
}

func TestLocate(t *testing.T) {
	m := mustParse(t, "a=10-99,b=100-199,c=200-")
	cases := []struct {
		t   int64
		idx int
		ok  bool
	}{
		{9, 0, false}, // before the map
		{10, 0, true},
		{99, 0, true},
		{100, 1, true},
		{199, 1, true},
		{200, 2, true},
		{1 << 40, 2, true}, // hot shard is open-ended
	}
	for _, tc := range cases {
		idx, ok := m.Locate(tc.t)
		if ok != tc.ok || idx != tc.idx {
			t.Errorf("Locate(%d) = (%d, %v), want (%d, %v)", tc.t, idx, ok, tc.idx, tc.ok)
		}
	}
}

func TestRoute(t *testing.T) {
	m := mustParse(t, "a=0-99,b=100-199,c=200-")

	// Straddles all three shards; clamped at both ends.
	legs := m.Route(50, 250)
	if len(legs) != 3 {
		t.Fatalf("Route(50,250) = %d legs, want 3", len(legs))
	}
	want := []Leg{
		{Index: 0, Addr: "a", TimeLo: 50, TimeHi: 99},
		{Index: 1, Addr: "b", TimeLo: 100, TimeHi: 199},
		{Index: 2, Addr: "c", TimeLo: 200, TimeHi: 250},
	}
	for i, l := range legs {
		if l != want[i] {
			t.Errorf("leg %d = %+v, want %+v", i, l, want[i])
		}
	}

	// Entirely inside one shard.
	legs = m.Route(120, 150)
	if len(legs) != 1 || legs[0].Addr != "b" || legs[0].TimeLo != 120 || legs[0].TimeHi != 150 {
		t.Fatalf("Route(120,150) = %+v", legs)
	}

	// Inverted and before-the-map ranges route nowhere.
	if legs := m.Route(150, 120); legs != nil {
		t.Fatalf("Route(150,120) = %+v, want nil", legs)
	}
	m2 := mustParse(t, "a=100-199,b=200-")
	if legs := m2.Route(0, 99); legs != nil {
		t.Fatalf("Route before map = %+v, want nil", legs)
	}
	// Partially before the map clamps to the first shard.
	legs = m2.Route(0, 150)
	if len(legs) != 1 || legs[0].TimeLo != 100 || legs[0].TimeHi != 150 {
		t.Fatalf("Route(0,150) = %+v", legs)
	}
}

func TestMergeComplete(t *testing.T) {
	legs := mustParse(t, "a=0-99,b=100-199,c=200-").Route(0, 300)
	parts := []Partial{
		{Leg: legs[2], Value: 3},
		{Leg: legs[0], Value: 1},
		{Leg: legs[1], Value: 2},
	}
	res := Merge(parts)
	if !res.Complete || res.Value != 6 || res.Legs != 3 {
		t.Fatalf("Merge = %+v, want complete value 6 over 3 legs", res)
	}
	// Contiguous leg ranges coalesce into one covered interval.
	if len(res.Covered) != 1 || res.Covered[0] != (Range{Lo: 0, Hi: 300}) {
		t.Fatalf("Covered = %v, want [0-300]", res.Covered)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("Missing = %v, want none", res.Missing)
	}
}

func TestMergePartial(t *testing.T) {
	legs := mustParse(t, "a=0-99,b=100-199,c=200-").Route(0, 300)
	parts := []Partial{
		{Leg: legs[0], Value: 1},
		{Leg: legs[1], Err: errors.New("shard down")},
		{Leg: legs[2], Value: 3},
	}
	res := Merge(parts)
	if res.Complete {
		t.Fatal("Merge with a failed leg reported Complete")
	}
	if res.Value != 4 {
		t.Fatalf("Value = %v, want 4 (surviving legs only)", res.Value)
	}
	if got := FormatRanges(res.Covered); got != "0-99,200-300" {
		t.Fatalf("Covered = %q, want two disjoint ranges around the hole", got)
	}
	if got := FormatMissing(res.Missing); got != "b=100-199" {
		t.Fatalf("Missing = %q", got)
	}
}

// TestMergeAveragePairs: AVG legs merge their (sum, count) pairs and
// divide once. Adding the legs' averages would answer 3+100 = 103 for
// the values 2 and 4 on one shard and 100 on the other; the average of
// the three is 106/3. A failed leg leaves the average of the live ones,
// and pairs that count nothing average to the operator's zero.
func TestMergeAveragePairs(t *testing.T) {
	legs := mustParse(t, "a=0-99,b=100-").Route(0, 199)
	both := []Partial{{Leg: legs[1], Value: 100, Count: 1, Pair: true}, {Leg: legs[0], Value: 6, Count: 2, Pair: true}}
	if res := Merge(both); !res.Complete || res.Value != 106.0/3 {
		t.Fatalf("Merge of AVG pairs = %+v, want complete 106/3", res)
	}
	both[0].Err = errors.New("shard down")
	if res := Merge(both); res.Complete || res.Value != 3 {
		t.Fatalf("Merge of AVG pairs with a dead leg = %+v, want PARTIAL 3", res)
	}
	empty := []Partial{{Leg: legs[0], Pair: true}, {Leg: legs[1], Pair: true}}
	if res := Merge(empty); res.Value != 0 {
		t.Fatalf("Merge of empty AVG pairs = %v, want 0", res.Value)
	}
}

func TestMergeOrderInvariant(t *testing.T) {
	legs := mustParse(t, "a=0-9,b=10-19,c=20-29,d=30-").Route(0, 40)
	// Values chosen so naive float summation is order-sensitive.
	vals := []float64{1e16, 1, -1e16, 2}
	perm := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	var first float64
	for i, p := range perm {
		parts := make([]Partial, 0, len(p))
		for _, j := range p {
			parts = append(parts, Partial{Leg: legs[j], Value: vals[j]})
		}
		res := Merge(parts)
		if i == 0 {
			first = res.Value
			continue
		}
		if res.Value != first {
			t.Fatalf("permutation %v: value %v != %v — merge is arrival-order dependent", p, res.Value, first)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	res := Merge(nil)
	if !res.Complete || res.Value != 0 || res.Legs != 0 {
		t.Fatalf("Merge(nil) = %+v, want complete zero", res)
	}
	if FormatRanges(res.Covered) != "none" || FormatMissing(res.Missing) != "none" {
		t.Fatalf("empty formats = %q / %q, want none/none", FormatRanges(res.Covered), FormatMissing(res.Missing))
	}
}

func TestMergeCoverageFraction(t *testing.T) {
	legs := mustParse(t, "a=0-99,b=100-199,c=200-").Route(0, 399)
	full := Merge([]Partial{{Leg: legs[0], Value: 1}, {Leg: legs[1], Value: 2}, {Leg: legs[2], Value: 3}})
	if got := full.Coverage(); got != 1 {
		t.Fatalf("complete coverage = %v, want 1", got)
	}
	// One failed leg of 100 timestamps out of 400 requested: 75%.
	part := Merge([]Partial{
		{Leg: legs[0], Value: 1},
		{Leg: legs[1], Err: errors.New("down")},
		{Leg: legs[2], Value: 3},
	})
	if got := part.Coverage(); got != 0.75 {
		t.Fatalf("partial coverage = %v, want 0.75", got)
	}
	if Merge(nil).Coverage() != 1 {
		t.Fatal("empty merge must report full coverage")
	}
}

func TestRangeString(t *testing.T) {
	if got := (Range{Lo: 5, Hi: Open}).String(); got != "5-" {
		t.Fatalf("open range = %q", got)
	}
	if got := (Range{Lo: 5, Hi: 9}).String(); got != "5-9" {
		t.Fatalf("closed range = %q", got)
	}
}
