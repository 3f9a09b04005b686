package linetest

import (
	"io"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"histcube/internal/oracle"
	"histcube/internal/trace"
)

// Fleet is what one run of CheckScript plays against: the address its
// client dials first, and what each event a script names does to this
// fleet. An event returns the address to dial next, or "" to keep the
// connection.
type Fleet struct {
	Addr   string
	Events map[string]func(t *testing.T) string
}

// CheckScript is the transcript checker. It plays script twice, each
// time against a fleet that start makes afresh:
//
//   - at depth 1: one line per write, its reply read before the next;
//   - pipelined: in windows of 1 to 8 lines, drawn from a fixed seed.
//     Each window goes in two writes, cut at a random byte, and the
//     replies of the lines complete before the cut are read before the
//     rest is written: a partial line must withhold none of them.
//
// A line "@<name>" is no request. It runs the fleet's event <name>
// between two windows, once every reply of the window before it is
// in, so no line is in flight across it. "@window" makes the lines up
// to the next "@" line one window of the pipelined run, cut at a
// random byte of its last line: every line before that one reaches
// the server complete in one write, whatever the seed draws — a unit
// beyond the reply cap, or the lines after a QUIT, which none may
// answer.
//
// The two transcripts must hold the same bytes, but for EXPLAIN's span
// durations and IDs. Every QRY with six fields must answer what
// internal/oracle does, under operator op (sum, count or avg), over
// the INS and DEL lines answered OK before it. A QUIT's BYE must be
// followed by the server closing the connection, with no reply to a
// line that came in the same write; nothing is written after the BYE.
//
// It returns the depth-1 transcript, one entry per script line: the
// reply's lines joined by newlines, and "" for a blank line, an event
// and every line after QUIT.
//
//histlint:ignore deadexport test seam: the transcript tests of internal/histserve, internal/fleettest and cmd/histproxy
func CheckScript(t *testing.T, op string, start func(*testing.T) Fleet, script []string) []string {
	t.Helper()
	depth1 := play(t, start(t), script, nil)
	piped := play(t, start(t), script, rand.New(rand.NewSource(1)))
	var ref oracle.Points
	checked := 0
	for i, line := range script {
		if stable(depth1[i]) != stable(piped[i]) {
			t.Errorf("line %d %q: depth 1 answered %q, pipelined %q", i, line, depth1[i], piped[i])
		}
		_, req := trace.CutRequestID(line)
		f := strings.Fields(req)
		switch {
		case len(f) == 5 && (f[0] == "INS" || f[0] == "DEL") && depth1[i] == "OK":
			Apply(t, &ref, f)
		case len(f) == 7 && f[0] == "QRY":
			checked++
			if want := Answer(t, ref, op, f[1:]); depth1[i] != want {
				t.Errorf("line %d %q answered %q, a naive scan of the %d mutations acked before it %s", i, line, depth1[i], len(ref), want)
			}
		}
	}
	t.Logf("%d queries equal a naive scan, the last over %d acked mutations", checked, len(ref))
	return depth1
}

// play runs script once against f: at depth 1 when cuts is nil,
// pipelined in windows it draws from cuts otherwise.
func play(t *testing.T, f Fleet, script []string, cuts *rand.Rand) []string {
	t.Helper()
	got := make([]string, len(script))
	c := Dial(t, f.Addr)
	whole := false
	for i := 0; i < len(script); {
		if name, ok := strings.CutPrefix(script[i], "@"); ok {
			i++
			if name == "window" {
				whole = cuts != nil
				continue
			}
			event := f.Events[name]
			if event == nil {
				t.Fatalf("the script names event @%s, which the fleet lacks", name)
			}
			if addr := event(t); addr != "" {
				c = Dial(t, addr)
			}
			continue
		}
		depth := 1
		if cuts != nil {
			depth = 1 + cuts.Intn(8)
		}
		end := i
		for end < len(script) && (whole || end-i < depth) && !strings.HasPrefix(script[end], "@") {
			end++
		}
		payload := strings.Join(script[i:end], "\n") + "\n"
		cut := len(payload)
		switch {
		case whole:
			last := strings.LastIndexByte(payload[:len(payload)-1], '\n') + 1
			cut = last + cuts.Intn(len(payload)-last)
		case cuts != nil:
			cut = cuts.Intn(len(payload) + 1)
		}
		whole = false
		for _, part := range []string{payload[:cut], payload[cut:]} {
			c.SendAll(t, part, 0)
			for complete := i + strings.Count(part, "\n"); i < complete; i++ {
				var open bool
				if got[i], open = c.reply(t, script[i]); !open {
					return got
				}
			}
		}
	}
	return got
}

// reply reads the reply to one request line: nothing for a blank
// line, the lines through END for EXPLAIN (but EXPLAIN JSON), SLOWLOG
// and SHARDS, one line for any other. It reports false once a QUIT
// was answered BYE and the server closed the connection.
func (c *Client) reply(t *testing.T, line string) (string, bool) {
	t.Helper()
	_, req := trace.CutRequestID(strings.TrimSpace(line))
	f := strings.Fields(req)
	if len(f) == 0 {
		return "", true
	}
	first := c.line(t)
	switch {
	case f[0] == "QUIT" && first == "BYE":
		if _, err := c.R.ReadString('\n'); err != io.EOF {
			t.Fatalf("connection open after QUIT: %v", err)
		}
		return first, false
	case f[0] == "SLOWLOG", f[0] == "SHARDS", f[0] == "EXPLAIN" && (len(f) < 2 || f[1] != "JSON"):
		return strings.Join(c.rest(t, first), "\n"), true
	}
	return first, true
}

var (
	durationRE = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)
	traceIDRE  = regexp.MustCompile(`[0-9a-f]{16}`)
)

// stable strips what legitimately differs between two runs of the same
// request: span durations and IDs in EXPLAIN trees. STATS carries no
// timing, so it must match byte for byte.
func stable(reply string) string {
	return traceIDRE.ReplaceAllString(durationRE.ReplaceAllString(reply, "<dur>"), "<id>")
}

// Apply feeds one acknowledged mutation line, split at white space
// ("INS|DEL <t> <c1> <c2> <v>"), to the reference.
func Apply(t *testing.T, ref *oracle.Points, f []string) {
	t.Helper()
	tm, coords := int64(wireInt(t, f[1])), []int{wireInt(t, f[2]), wireInt(t, f[3])}
	v, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		t.Fatalf("reference: value %q: %v", f[4], err)
	}
	if f[0] == "DEL" {
		ref.Delete(tm, coords, v)
	} else {
		ref.Insert(tm, coords, v)
	}
}

// Answer is the reply a correct fleet of operator op (sum, count or
// avg) gives to QRY with the fields after the verb, <tlo> <thi> <lo1>
// <lo2> <hi1> <hi2>, as the wire renders it.
func Answer(t *testing.T, ref oracle.Points, op string, args []string) string {
	t.Helper()
	var b [6]int
	for i := range b {
		b[i] = wireInt(t, args[i])
	}
	pair := ref.Query(int64(b[0]), int64(b[1]), b[2:4], b[4:6])
	return strconv.FormatFloat(pair.Of(op), 'g', -1, 64)
}

func wireInt(t *testing.T, field string) int {
	t.Helper()
	v, err := strconv.Atoi(field)
	if err != nil {
		t.Fatalf("reference: %q: %v", field, err)
	}
	return v
}
