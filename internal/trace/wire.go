// SpanJSON wire codec: the structured EXPLAIN variant ships a whole
// span tree across the proxy/shard boundary as one JSON document
// ("EXPLAIN JSON QRY ..." answers `OK {"result":...,"trace":{...}}`
// on a single line). DecodeExplain tolerates anything a well-meaning
// shard could send — unknown attrs and counters are preserved or
// dropped, never fatal — and Span rebuilds an in-memory tree the proxy
// grafts under its proxy.leg span, so Total over the merged tree equals
// the sum of the shards' flat totals exactly (counters travel as int64).

package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// counterByName is the inverse of counterNames, for decoding wire
// counters back into the enum.
var counterByName = func() map[string]Counter {
	m := make(map[string]Counter, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		m[c.String()] = c
	}
	return m
}()

// Span rebuilds an in-memory span tree from its JSON shape — the
// grafting side of the wire codec. Counters map back through the enum
// (unknown names are dropped: an older proxy meeting a newer shard
// loses the counters it does not know, nothing else). Attributes are
// restored sorted by key so a decoded tree renders deterministically;
// integral JSON numbers come back as integer attrs, everything
// non-scalar is stringified. A nil receiver returns nil.
func (j *SpanJSON) Span() *Span {
	if j == nil {
		return nil
	}
	tid, _ := ParseID(j.TraceID)
	sid, _ := ParseID(j.SpanID)
	s := &Span{
		name:    j.Name,
		start:   time.Unix(0, j.StartNano),
		dur:     time.Duration(j.DurationNS),
		traceID: tid,
		spanID:  sid,
	}
	if len(j.Attrs) > 0 {
		keys := make([]string, 0, len(j.Attrs))
		for k := range j.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch v := j.Attrs[k].(type) {
			case string:
				s.SetStr(k, v)
			case bool:
				s.SetBool(k, v)
			case float64:
				//histlint:ignore nofloateq exact integrality check choosing the attr type on decode, not a value comparison
				if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
					s.SetInt(k, int64(v))
				} else {
					s.SetFloat(k, v)
				}
			default:
				s.SetStr(k, fmt.Sprint(v))
			}
		}
	}
	for name, v := range j.Counters {
		if c, ok := counterByName[name]; ok {
			s.counters[c] = v
		}
	}
	for _, child := range j.Children {
		if cs := child.Span(); cs != nil {
			s.children = append(s.children, cs)
		}
	}
	return s
}

// ExplainJSON is the single-line reply body of EXPLAIN JSON QRY: the
// structured variant histserve answers with and histproxy decodes to
// graft shard span trees.
type ExplainJSON struct {
	Result float64 `json:"result"`
	// Count is a PAIR query's count, Result then being its sum.
	Count float64   `json:"count,omitempty"`
	Trace *SpanJSON `json:"trace"`
}

// DecodeExplain parses the body of an EXPLAIN JSON reply (what follows
// "OK "). It never panics on adversarial input (FuzzSpanJSON pins this)
// and rejects malformed JSON and a trace whose root is missing or has
// no name — the one structural invariant every real span satisfies, so
// a reply that breaks it is not a shard's span tree.
func DecodeExplain(body []byte) (ExplainJSON, error) {
	var doc ExplainJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, err
	}
	if doc.Trace == nil || doc.Trace.Name == "" {
		return doc, errors.New("trace: EXPLAIN reply has no named trace root")
	}
	return doc, nil
}

// EntryJSON is the JSON shape of one retained trace in the
// /debug/slowlog and /debug/trace/recent feeds, shared by histserve
// and histproxy so fleet-wide trace_id correlation works with one
// `jq` expression on either side.
type EntryJSON struct {
	Line       string    `json:"line"`
	TraceID    string    `json:"trace_id,omitempty"`
	At         time.Time `json:"at"`
	DurationNS int64     `json:"duration_ns"`
	Trace      *SpanJSON `json:"trace"`
}

// EntriesJSON converts retained entries into their feed shape.
func EntriesJSON(entries []Entry) []EntryJSON {
	out := make([]EntryJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, EntryJSON{
			Line:       e.Line,
			TraceID:    e.Span.TraceID().String(),
			At:         e.At,
			DurationNS: int64(e.Duration),
			Trace:      e.Span.JSON(),
		})
	}
	return out
}
