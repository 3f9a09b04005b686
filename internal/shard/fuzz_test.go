package shard

import (
	"strings"
	"testing"
)

// FuzzShardMapParse drives Parse with arbitrary spec strings: it must
// reject malformed specs with an error (never panic — the spec arrives
// on histproxy's command line and in tests, and a crash there takes
// the whole proxy down before it serves a byte), and every map it does
// accept must satisfy the Map invariants and survive a String/Parse
// round-trip unchanged.
func FuzzShardMapParse(f *testing.F) {
	for _, seed := range []string{
		"a=0-",
		"a=0-99,b=100-",
		"s1=0-9,s2=10-19,s3=20-",
		"localhost:7071=0-999999,localhost:7072=1000000-",
		"",
		"a=0-99",                  // no open-ended hot shard
		"a=0-,b=100-",             // open range not last
		"a=0-99,b=200-",           // gap
		"a=0-99,b=50-",            // overlap
		"a=99-0,b=100-",           // inverted
		"a=-5-99,b=100-",          // negative boundary
		"0-99,b=100-",             // missing addr
		"a=0-99,a=100-",           // duplicate addr
		"a=0-x,b=100-",            // garbage number
		"a==0-99,b=100-",          // double equals
		"a=0--99,b=100-",          // double dash
		",,a=0-,,",                // empty parts
		"a=0-9223372036854775807", // Hi == Open written explicitly
		"p1|r1=0-99,p2|r2=100-",   // replica sets
		"p|r1|r2=0-",              // two replicas
		"p|=0-",                   // empty replica member
		"|p=0-",                   // empty primary member
		"p|p=0-",                  // duplicate member within a set
		"a|b=0-99,b=100-",         // replica duplicated as another primary
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			return
		}
		shards := m.Shards()
		if len(shards) == 0 {
			t.Fatalf("Parse(%q) accepted an empty map", spec)
		}
		// Accepted maps must hold the invariants New promises.
		seen := make(map[string]bool, len(shards))
		for i, s := range shards {
			for _, addr := range s.Members() {
				if addr == "" {
					t.Fatalf("Parse(%q): shard %d has an empty member addr", spec, i)
				}
				if seen[addr] {
					t.Fatalf("Parse(%q): duplicate addr %q", spec, addr)
				}
				seen[addr] = true
			}
			if s.Range.Hi != Open && s.Range.Hi < s.Range.Lo {
				t.Fatalf("Parse(%q): inverted range %s", spec, s.Range)
			}
			if i > 0 && s.Range.Lo != shards[i-1].Range.Hi+1 {
				t.Fatalf("Parse(%q): gap before shard %d", spec, i)
			}
		}
		if m.shards[len(m.shards)-1].Range.Hi != Open {
			t.Fatalf("Parse(%q): hot shard not open-ended", spec)
		}

		// Format/parse round-trip: String is the canonical spelling and
		// must re-parse to the identical map. Addresses containing the
		// spec's own metacharacters cannot round-trip; Parse accepts
		// them (an addr is opaque up to the last '='), so skip those.
		if anyAddrHasMeta(shards) {
			return
		}
		rendered := m.String()
		m2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() of accepted map does not re-parse: %v\nspec: %q\nrendered: %q", err, spec, rendered)
		}
		if got := m2.String(); got != rendered {
			t.Fatalf("round-trip changed the map:\n  first  %q\n  second %q", rendered, got)
		}
	})
}

// anyAddrHasMeta reports whether an address embeds spec syntax (',',
// '=', the '|' member separator, or whitespace trimmed by Parse) that
// the canonical rendering cannot re-quote.
func anyAddrHasMeta(shards []Shard) bool {
	for _, s := range shards {
		for _, addr := range s.Members() {
			if strings.ContainsAny(addr, ",=|") ||
				strings.TrimSpace(addr) != addr {
				return true
			}
		}
	}
	return false
}
