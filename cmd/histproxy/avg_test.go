package main

// AVG through the proxy: an average merges only through its (sum,
// count) pair, so every leg asks for the pair, the proxy folds the
// pairs and divides once — as one cube finalises its own pair.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"histcube/internal/fleettest"
	"histcube/internal/linetest"
	"histcube/internal/oracle"
)

// TestProxyAverageIsExact: two real -op avg members hold 2 and 4
// (0-99) and 100 (100-). Summing the legs' averages would answer
// QRY 0 199 with 3+100 = 103; the average of the three values is 106/3.
// Every window — straddling the boundary or not, EXPLAIN's result, and
// the PARTIAL answer once the second member is down — must equal a
// naive scan of the same points.
func TestProxyAverageIsExact(t *testing.T) {
	a, b := fleettest.StartMember(t, fleettest.MemberConfig("avg")), fleettest.StartMember(t, fleettest.MemberConfig("avg"))
	addr, _ := startProxy(t, fmt.Sprintf("%s=0-99,%s=100-", a.Addr, b.Addr))
	c := linetest.Dial(t, addr)
	var ref oracle.Points
	for _, ins := range []string{"INS 10 1 1 2", "INS 20 1 1 4", "INS 150 1 1 100", "INS 160 5 6 7"} {
		if got := c.Cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
		fleettest.Apply(t, &ref, strings.Fields(ins))
	}
	avg := func(qry string) string { return fleettest.Answer(t, ref, "avg", strings.Fields(qry)[1:]) }
	for _, qry := range []string{
		"QRY 0 199 0 0 3 3", // the reproduction: 106/3, not 103
		"QRY 0 199 0 0 7 7",
		"QRY 15 155 0 0 7 7",
		"QRY 99 100 0 0 7 7", // straddles, one empty side
		"QRY 20 1000 1 1 1 1",
		"QRY 0 99 0 0 7 7", // one leg each
		"QRY 100 199 0 0 7 7",
		"QRY 30 120 0 0 7 7", // straddles, nothing in it
	} {
		if got, want := c.Cmd(t, qry), avg(qry); got != want {
			t.Errorf("%s = %s, want %s", qry, got, want)
		}
	}
	if got, want := c.Multi(t, "EXPLAIN QRY 0 199 0 0 3 3")[0], "OK result="+avg("QRY 0 199 0 0 3 3"); got != want {
		t.Errorf("EXPLAIN first line = %q, want %q", got, want)
	}

	// With the second member down, the answer is the average over what
	// the first still covers: (2+4)/2.
	b.Stop()
	want := fmt.Sprintf("PARTIAL 3 coverage=0.500 covered=0-99 missing=%s=100-199", b.Addr)
	if got := c.Cmd(t, "QRY 0 199 0 0 3 3"); got != want {
		t.Errorf("QRY over a dead member:\n got %q\nwant %q", got, want)
	}
	if got := c.Multi(t, "EXPLAIN QRY 0 199 0 0 3 3")[0]; !strings.HasPrefix(got, "PARTIAL result=3 coverage=0.500 ") {
		t.Errorf("EXPLAIN over a dead member = %q, want PARTIAL result=3", got)
	}
}

// TestProxyRefusesAMemberOfAnotherOperator: the fleet's operator is the
// first a ROLE names, in map order — here the -op avg member's. The
// second member is -op sum: its answers would not merge with an
// average, so a query with a leg to it answers ERR and sends it no leg,
// while a query that only the avg member answers stays exact.
func TestProxyRefusesAMemberOfAnotherOperator(t *testing.T) {
	a, other := fleettest.StartMember(t, fleettest.MemberConfig("avg")), fleettest.StartMember(t, fleettest.MemberConfig("sum"))
	addr, _ := startProxy(t, fmt.Sprintf("%s=0-99,%s=100-", a.Addr, other.Addr))
	c := linetest.Dial(t, addr)
	var ref oracle.Points
	for _, ins := range []string{"INS 10 1 1 2", "INS 20 1 1 4"} {
		if got := c.Cmd(t, ins); got != "OK" {
			t.Fatalf("%s -> %q", ins, got)
		}
		fleettest.Apply(t, &ref, strings.Fields(ins))
	}
	want := fmt.Sprintf("ERR shard %s serves op=sum, not the fleet's op=avg", other.Addr)
	if got := c.Cmd(t, "QRY 0 199 0 0 7 7"); !strings.HasPrefix(got, want) {
		t.Errorf("QRY with a leg to the op=sum member = %q, want %q...", got, want)
	}
	if got, want := c.Cmd(t, "QRY 0 99 0 0 7 7"), fleettest.Answer(t, ref, "avg", strings.Fields("0 99 0 0 7 7")); got != want {
		t.Errorf("QRY of the avg member alone = %q, want %s", got, want)
	}
	if n := served(t, other, "QRY"); n != 0 {
		t.Errorf("the op=sum member served %d legs", n)
	}
}

// TestProxyFleetsAnswerLikeOneScan: a seeded stream of INS, DEL and QRY
// through two-member -op count and -op avg fleets. Every reply to a
// mutation is OK, and every QRY — most straddle the members' boundary —
// equals a naive scan of the acknowledged mutations before it.
func TestProxyFleetsAnswerLikeOneScan(t *testing.T) {
	for _, op := range []string{"count", "avg"} {
		t.Run(op, func(t *testing.T) {
			a, b := fleettest.StartMember(t, fleettest.MemberConfig(op)), fleettest.StartMember(t, fleettest.MemberConfig(op))
			addr, _ := startProxy(t, fmt.Sprintf("%s=0-99,%s=100-", a.Addr, b.Addr))
			c := linetest.Dial(t, addr)
			rng := rand.New(rand.NewSource(7))
			var ref oracle.Points
			var inserted [][]string
			now, checked := int64(0), 0
			for step := 0; step < 400; step++ {
				var line string
				switch r := rng.Intn(10); {
				case r < 4:
					lo1, lo2 := rng.Intn(8), rng.Intn(8)
					tlo := rng.Int63n(now + 1)
					line = fmt.Sprintf("QRY %d %d %d %d %d %d", tlo, tlo+rng.Int63n(150),
						lo1, lo2, lo1+rng.Intn(8-lo1), lo2+rng.Intn(8-lo2))
				case r < 5 && len(inserted) > 0:
					// Take back an earlier insert's value at its cell, now.
					f := inserted[rng.Intn(len(inserted))]
					line = fmt.Sprintf("DEL %d %s %s %s", now, f[2], f[3], f[4])
				default:
					now += rng.Int63n(4)
					line = fmt.Sprintf("INS %d %d %d %d", now, rng.Intn(8), rng.Intn(8), 1+rng.Intn(9))
				}
				got, f := c.Cmd(t, line), strings.Fields(line)
				if f[0] != "QRY" {
					if got != "OK" {
						t.Fatalf("step %d: %s -> %q", step, line, got)
					}
					fleettest.Apply(t, &ref, f)
					if f[0] == "INS" {
						inserted = append(inserted, f)
					}
					continue
				}
				checked++
				if want := fleettest.Answer(t, ref, op, f[1:]); got != want {
					t.Fatalf("step %d: %s = %s, a naive scan of %d mutations says %s", step, line, got, len(ref), want)
				}
			}
			if now < 150 {
				t.Fatalf("the stream reached only time %d: the second member took no part", now)
			}
			t.Logf("-op %s: %d queries equal a naive scan", op, checked)
		})
	}
}
