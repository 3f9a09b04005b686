package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsInert(t *testing.T) {
	var s *Span
	child := s.StartChild("histcube.query")
	if child != nil {
		t.Fatalf("StartChild on nil span = %v, want nil", child)
	}
	s.End()
	s.Add(CellsTouched, 7)
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	s.SetFloat("k", 1.5)
	s.SetBool("k", true)
	if s.Name() != "" || s.Duration() != 0 || s.Total(Conversions) != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
	if s.Children() != nil || s.JSON() != nil {
		t.Fatal("nil span snapshots must be nil")
	}
	var b strings.Builder
	s.Render(&b)
	if b.Len() != 0 {
		t.Fatalf("nil span rendered %q", b.String())
	}
}

func TestSpanTreeCountersAndRender(t *testing.T) {
	root := New("histserve.query")
	root.SetInt("time_lo", 1)
	p1 := root.StartChild("histcube.prefix")
	p1.Add(CellsTouched, 10)
	p1.Add(Conversions, 4)
	p1.End()
	p2 := root.StartChild("histcube.prefix")
	q := p2.StartChild("histcube.slice_query")
	q.Add(CellsTouched, 5)
	q.SetStr("form", "historic")
	q.End()
	p2.End()
	root.Add(WALBytes, 33)
	root.End()

	if got := root.Total(CellsTouched); got != 15 {
		t.Fatalf("Total(CellsTouched) = %d, want 15", got)
	}
	if got := root.counters[CellsTouched]; got != 0 {
		t.Fatalf("Count(CellsTouched) on root = %d, want 0 (own only)", got)
	}
	if got := root.Total(Conversions); got != 4 {
		t.Fatalf("Total(Conversions) = %d, want 4", got)
	}
	if len(root.Children()) != 2 || root.Children()[0] != p1 {
		t.Fatal("children must be ordered")
	}
	if root.Duration() <= 0 {
		t.Fatal("ended span must have positive duration")
	}

	var b strings.Builder
	root.Render(&b)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("render has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "histserve.query dur=") || !strings.Contains(lines[0], "time_lo=1") {
		t.Fatalf("bad root line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  histcube.prefix") || !strings.Contains(lines[1], "cells_touched=10") {
		t.Fatalf("bad child line %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "    histcube.slice_query") || !strings.Contains(lines[3], "form=historic") {
		t.Fatalf("bad grandchild line %q", lines[3])
	}
	if strings.Contains(lines[1], "conversions=0") {
		t.Fatal("zero counters must be omitted from renders")
	}
}

// TestNewAtAndEndAt: a root started and ended at stamps the caller read
// spans exactly their difference, a child is stamped on the root's
// clock, a second end keeps the first, and an end at or before the
// start still reads as ended.
func TestNewAtAndEndAt(t *testing.T) {
	start := time.Now()
	root := NewAt("histserve.query", start)
	if !root.Start().Equal(start) {
		t.Fatalf("Start = %v, want the stamp %v", root.Start(), start)
	}
	child := root.StartChild("histcube.query")
	if child.Start().Before(start) {
		t.Fatalf("child started at %v, before its root's %v", child.Start(), start)
	}
	root.EndAt(start.Add(3 * time.Millisecond))
	root.EndAt(start.Add(time.Hour))
	if got := root.Duration(); got != 3*time.Millisecond {
		t.Fatalf("Duration = %v, want the 3ms between the stamps, kept past a second end", got)
	}
	early := NewAt("histserve.query", start)
	early.EndAt(start)
	if got := early.Duration(); got <= 0 {
		t.Fatalf("ended at its start: Duration = %v, want > 0 (0 means still open)", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	sp := New("histcube.query")
	ctx := NewContext(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatalf("FromContext = %v, want the stored span", got)
	}
	// Nil spans leave the context untouched.
	base := context.Background()
	if got := NewContext(base, nil); got != base {
		t.Fatal("NewContext(nil span) must return ctx unchanged")
	}
}

func TestSpanJSON(t *testing.T) {
	root := New("histserve.query")
	root.SetStr("line", "QRY 0 1")
	root.SetBool("ok", true)
	c := root.StartChild("histcube.prefix")
	c.Add(CellsTouched, 3)
	c.End()
	root.End()
	data, err := json.Marshal(root.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs"`
		Children []struct {
			Name     string           `json:"name"`
			Counters map[string]int64 `json:"counters"`
		} `json:"children"`
	}
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Name != "histserve.query" || dec.Attrs["line"] != "QRY 0 1" || dec.Attrs["ok"] != true {
		t.Fatalf("bad JSON root: %s", data)
	}
	if len(dec.Children) != 1 || dec.Children[0].Counters["cells_touched"] != 3 {
		t.Fatalf("bad JSON child: %s", data)
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.Contains(name, "(") {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if got := NumCounters.String(); !strings.HasPrefix(got, "counter(") {
		t.Fatalf("out-of-range counter renders %q", got)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	sp := New("histcube.query")
	sp.End()
	d := sp.Duration()
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Fatal("second End must keep the first duration")
	}
}

func TestSlowLogAdmissionAndBound(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	now := time.Now()
	if l.Observe("fast", now, 5*time.Millisecond, nil) {
		t.Fatal("below-threshold trace must not be admitted")
	}
	for i, d := range []time.Duration{20, 40, 30} {
		if !l.Observe("q", now, d*time.Millisecond, nil) {
			t.Fatalf("trace %d must be admitted", i)
		}
	}
	// Full: a trace slower than the current worst evicts it ...
	if !l.Observe("slow", now, 50*time.Millisecond, nil) {
		t.Fatal("slower trace must displace the current minimum")
	}
	// ... and one faster than everything retained is rejected.
	if l.Observe("meh", now, 15*time.Millisecond, nil) {
		t.Fatal("faster-than-retained trace must be rejected when full")
	}
	es := l.Entries()
	if len(es) != 3 {
		t.Fatalf("len(entries) = %d, want 3 (the bound)", len(es))
	}
	want := []time.Duration{50 * time.Millisecond, 40 * time.Millisecond, 30 * time.Millisecond}
	for i, e := range es {
		if e.Duration != want[i] {
			t.Fatalf("entry %d duration = %s, want %s", i, e.Duration, want[i])
		}
	}
	if l.Observed() != 6 || l.Admitted() != 4 {
		t.Fatalf("observed=%d admitted=%d, want 6/4", l.Observed(), l.Admitted())
	}
}

func TestRingNewestFirstAndEviction(t *testing.T) {
	r := NewRing(3)
	now := time.Now()
	for i := 1; i <= 5; i++ {
		r.Add("q", now, time.Duration(i), nil)
	}
	es := r.Entries()
	if len(es) != 3 {
		t.Fatalf("len = %d, want 3", len(es))
	}
	for i, want := range []time.Duration{5, 4, 3} {
		if es[i].Duration != want {
			t.Fatalf("entry %d = %d, want %d (newest first)", i, es[i].Duration, want)
		}
	}
	// Partially filled ring.
	r2 := NewRing(4)
	r2.Add("a", now, 1, nil)
	r2.Add("b", now, 2, nil)
	es2 := r2.Entries()
	if len(es2) != 2 || es2[0].Duration != 2 || es2[1].Duration != 1 {
		t.Fatalf("partial ring entries wrong: %v", es2)
	}
}
