package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestIDRoundTrip pins the identity layer: generated IDs are non-zero
// and distinct, render as 16 hex digits, parse back exactly, and the
// zero ID renders empty and never parses.
func TestIDRoundTrip(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned the reserved zero ID")
		}
		if seen[id] {
			t.Fatalf("NewID repeated %s within 1000 draws", id)
		}
		seen[id] = true
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("ID %d renders as %q, want 16 hex digits", uint64(id), s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(%q) = %v,%v, want %v,true", s, back, ok, id)
		}
	}
	if got := ID(0).String(); got != "" {
		t.Errorf("zero ID renders %q, want empty", got)
	}
	for _, bad := range []string{"", "0", strings.Repeat("0", 16), strings.Repeat("g", 16), strings.Repeat("a", 15), strings.Repeat("a", 17)} {
		if id, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted as %v", bad, id)
		}
	}
}

// TestCutRequestID covers the TID= token grammar: present, absent,
// malformed (ignored, never an error), and bare (token with no verb).
func TestCutRequestID(t *testing.T) {
	id := NewID()
	tid, rest := CutRequestID(FormatRequestID(id) + "QRY 1 2 0 0 7 7")
	if tid != id || rest != "QRY 1 2 0 0 7 7" {
		t.Fatalf("CutRequestID = %v, %q", tid, rest)
	}
	tid, rest = CutRequestID("QRY 1 2")
	if tid != 0 || rest != "QRY 1 2" {
		t.Fatalf("no-token line altered: %v, %q", tid, rest)
	}
	tid, rest = CutRequestID("TID=xyz QRY 1 2")
	if tid != 0 || rest != "TID=xyz QRY 1 2" {
		t.Fatalf("malformed token not ignored: %v, %q", tid, rest)
	}
	tid, rest = CutRequestID(requestIDPrefix + id.String())
	if tid != id || rest != "" {
		t.Fatalf("bare token: %v, %q", tid, rest)
	}
	if got := FormatRequestID(0); got != "" {
		t.Errorf("FormatRequestID(0) = %q, want empty", got)
	}
}

// TestSpanIdentity pins ID threading through a span tree: the root
// generates, children inherit, SetTraceID (the adopted TID= token)
// rewrites the root before fan-out.
func TestSpanIdentity(t *testing.T) {
	root := New("histserve.query")
	if root.TraceID() == 0 || root.SpanID() == 0 {
		t.Fatal("New left IDs unset")
	}
	adopted := NewID()
	root.SetTraceID(adopted)
	root.SetTraceID(0) // zero is "no token": must not clear
	child := root.StartChild("histcube.query")
	if root.TraceID() != adopted {
		t.Fatalf("root trace ID = %v, want adopted %v", root.TraceID(), adopted)
	}
	if child.TraceID() != adopted {
		t.Fatalf("child trace ID = %v, want inherited %v", child.TraceID(), adopted)
	}
	if child.SpanID() == root.SpanID() || child.SpanID() == 0 {
		t.Fatalf("child span ID %v not distinct from root %v", child.SpanID(), root.SpanID())
	}
	var nilSpan *Span
	if nilSpan.TraceID() != 0 || nilSpan.SpanID() != 0 {
		t.Error("nil span reports non-zero IDs")
	}
	nilSpan.SetTraceID(adopted) // must not panic
	nilSpan.Graft(root)         // must not panic
}

// TestSpanJSONRoundTrip builds a real tree, ships it as an EXPLAIN
// JSON reply body and grafts the decoded copy: IDs survive, counter
// totals are bit-identical, and rendering is deterministic.
func TestSpanJSONRoundTrip(t *testing.T) {
	root := New("histserve.query")
	root.SetInt("tlo", 1)
	root.SetStr("shard", "s1:7072")
	child := root.StartChild("histcube.query")
	child.Add(CellsTouched, 17)
	child.Add(Conversions, 9)
	child.SetFloat("value", 2.5)
	child.SetBool("historic", true)
	grand := child.StartChild("histcube.prefix")
	grand.Add(PagerReads, 3)
	grand.End()
	child.End()
	root.Add(WALBytes, 120)
	root.End()

	enc, err := json.Marshal(ExplainJSON{Result: 4.5, Trace: root.JSON()})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(enc, '\n') {
		t.Fatal("encoded reply body is not a single line")
	}
	doc, err := DecodeExplain(enc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Result != 4.5 {
		t.Errorf("result %v, want 4.5", doc.Result)
	}
	back := doc.Trace.Span()
	if back.TraceID() != root.TraceID() || back.SpanID() != root.SpanID() {
		t.Fatalf("IDs lost in transit: %v/%v -> %v/%v",
			root.TraceID(), root.SpanID(), back.TraceID(), back.SpanID())
	}
	if back.Children()[0].TraceID() != root.TraceID() {
		t.Fatal("child trace ID lost in transit")
	}
	for c := Counter(0); c < NumCounters; c++ {
		if got, want := back.Total(c), root.Total(c); got != want {
			t.Errorf("counter %s: decoded total %d, want %d", c, got, want)
		}
	}
	if back.Duration() != root.Duration() {
		t.Errorf("duration drifted: %v -> %v", root.Duration(), back.Duration())
	}
	if !back.Start().Equal(time.Unix(0, root.Start().UnixNano())) {
		t.Errorf("start drifted: %v -> %v", root.Start(), back.Start())
	}

	// Grafting the decoded tree under a fresh parent folds the shard's
	// costs into the parent's Total — the proxy-side merge invariant.
	parent := New("proxy.query")
	leg := parent.StartChild("proxy.leg")
	leg.Graft(back)
	leg.End()
	parent.End()
	for c := Counter(0); c < NumCounters; c++ {
		if got, want := parent.Total(c), root.Total(c); got != want {
			t.Errorf("grafted total %s = %d, want %d", c, got, want)
		}
	}

	// A decoded tree renders without surprises (attrs sorted by key).
	var b strings.Builder
	back.Render(&b)
	for _, want := range []string{"histserve.query", "histcube.query", "histcube.prefix", "cells_touched=17", "pager_reads=3", "shard=s1:7072"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("decoded render missing %q:\n%s", want, b.String())
		}
	}
}

// TestDecodeSpanJSONRejects covers DecodeExplain's error branches:
// malformed JSON, and a trace root that is missing or has no name.
func TestDecodeSpanJSONRejects(t *testing.T) {
	for _, bad := range []string{"", "not json", "null", "{}", "[1,2]", `{"result":5}`,
		`{"result":5,"trace":null}`, `{"result":5,"trace":{}}`, `{"result":5,"trace":{"name":""}}`} {
		if doc, err := DecodeExplain([]byte(bad)); err == nil {
			t.Errorf("DecodeExplain(%q) accepted: %+v", bad, doc)
		}
	}
}

// FuzzSpanJSON fuzzes the EXPLAIN JSON decoder: decoding arbitrary
// bytes must never panic, and any body that decodes must hit an
// encode/decode fixpoint (canonical form is stable) while converting
// its trace to a Span without losing known counters.
func FuzzSpanJSON(f *testing.F) {
	root := New("histserve.query")
	c := root.StartChild("histcube.query")
	c.Add(CellsTouched, 21)
	c.SetStr("shard", "a:1")
	c.End()
	root.End()
	if seed, err := json.Marshal(ExplainJSON{Result: 21, Trace: root.JSON()}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"result":7,"trace":{"name":"histserve.query","counters":{"cells_touched":7,"bogus":1}}}`))
	f.Add([]byte(`{"result":1.5,"trace":{"name":"proxy.query","attrs":{"a":1.5,"b":true,"c":[1,2]},"children":[{"name":"proxy.leg"}]}}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeExplain(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("decoded body failed to encode: %v", err)
		}
		doc2, err := DecodeExplain(enc)
		if err != nil {
			t.Fatalf("canonical form failed to decode: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(doc2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode is not a fixpoint:\n%s\n%s", enc, enc2)
		}
		// Span conversion must not panic and must preserve every known
		// counter bit-exactly (the proxy's merged totals depend on it).
		sp := doc.Trace.Span()
		for name, v := range doc.Trace.Counters {
			if cnt, ok := counterByName[name]; ok && sp.Count(cnt) != v {
				t.Fatalf("counter %s: %d -> %d", name, v, sp.Count(cnt))
			}
		}
	})
}
