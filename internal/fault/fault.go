// Package fault is a deterministic, seed-driven fault injector: it wraps
// the WAL's segment file (and connections, see WrapConn) and makes them
// fail on demand — error on the Nth operation, out-of-space, torn
// (short) writes, injected latency, or a panic at a named site — so the
// chaos suite and `histserve -fault-spec` can exercise the degradation,
// repair and recovery paths that a healthy disk never takes.
//
// Faults are described by a compact spec string:
//
//	spec     := rule { ";" rule }
//	rule     := site ":" kind { modifier }
//	site     := "wal.write" | "wal.sync" | "serve.dispatch" | "proxy.dial"
//	            | "proxy.conn.read" | "proxy.conn.write"
//	            | <verb>   (a fleettest.Relay's per-line site: QRY, INS, ROLE, ...)
//	kind     := "err" | "nospace" | "short" | "panic" | "slow=<dur>"
//	            | "drop" | "stall=<dur>"
//	modifier := "@N"     fire on the Nth operation at the site (1-based)
//	          | "@N+"    fire on the Nth and every later operation
//	          | "%P"     fire each operation with probability P in (0,1]
//	          | "xC"     stop after C fires
//
// A rule with no trigger modifier fires on every operation. "@N" alone
// fires exactly once; "@N+" and "%P" keep firing until an "xC" cap (or
// Heal). Probabilistic rules draw from a rand.Rand seeded at Parse
// time, so a (spec, seed) pair reproduces the exact same fault
// schedule — the property the seeded chaos suite is built on.
//
// Examples:
//
//	wal.write:nospace@100+          disk full from the 100th append on
//	wal.write:short@5               the 5th append is torn mid-record
//	wal.sync:slow=5ms%0.5           half of all fsyncs take +5ms
//	serve.dispatch:panic@2          the 2nd request panics
//	proxy.dial:err%0.01x3           1% of the proxy's shard dials fail, 3 at most
//	proxy.conn.read:drop@3          the 3rd read of a shard link tears it down
//	proxy.conn.write:stall=50ms%0.2 a fifth of shard-link writes stall +50ms
//	QRY:slow=400ms                  a relay holds every query line 400 ms
//
// The connection-level kinds model network flakiness rather than disk
// failure: "drop" severs the wrapped connection (the peer sees a
// reset-like error mid-exchange) and "stall=<dur>" freezes an
// individual read or write, the shapes that exercise reconnect,
// hedging and breaker logic in the proxy's shard client.
//
// The File wrapper interface is a structural copy of wal.SegmentFile
// rather than an import: wal's own tests import this package, so fault
// must not import it back.
package fault

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrNoSpace is the injected out-of-space condition. It wraps
// syscall.ENOSPC, so errors.Is(err, syscall.ENOSPC) holds exactly as
// for a real full disk.
var ErrNoSpace = fmt.Errorf("no space left on device (injected): %w", syscall.ENOSPC)

// ErrInjected is the generic injected I/O error; the layers it reaches
// handle it like any other (a failed WAL write latches the log until
// the repair).
var ErrInjected = fmt.Errorf("injected fault")

type kind int

const (
	kindErr kind = iota
	kindNoSpace
	kindShort
	kindPanic
	kindSlow
	kindDrop
	kindStall
)

// rule is one parsed fault clause.
type rule struct {
	site    string
	kind    kind
	delay   time.Duration // kindSlow
	nth     int64         // fire on the nth op; 0 = no positional trigger
	persist bool          // @N+ — nth and everything after
	prob    float64       // probabilistic trigger; 0 = none
	max     int64         // fire cap; 0 = default (1 for plain @N, unlimited otherwise)
	fires   int64         // synchronised by the owning injector's lock
}

// Outcome is what one Check decided: an error to return (Torn asks a
// write wrapper to persist a partial prefix first, Drop asks a
// connection wrapper to sever the link) and extra latency to add.
// Panic-kind rules do not return — Check panics.
type Outcome struct {
	Err   error
	Torn  bool
	Drop  bool
	Delay time.Duration
}

// Injector evaluates fault rules against per-site operation counters.
// All methods are safe for concurrent use; a nil *Injector is inert,
// so call sites need no guard.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand       // guarded by mu
	rules  []*rule          // immutable after Parse; per-rule fire counts need mu
	counts map[string]int64 // per-site op counters; guarded by mu
	healed bool             // guarded by mu

	seed  int64
	spec  string
	sleep func(time.Duration) // set at construction; time.Sleep by default
}

// Parse builds an Injector from a spec string (see the package
// comment) and a seed for the probabilistic triggers.
func Parse(spec string, seed int64) (*Injector, error) {
	inj := &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]int64),
		seed:   seed,
		spec:   spec,
		sleep:  time.Sleep,
	}
	for _, clause := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		inj.rules = append(inj.rules, r)
	}
	if len(inj.rules) == 0 {
		return nil, fmt.Errorf("fault: spec %q contains no rules", spec)
	}
	return inj, nil
}

// MustParse is Parse for tests and fixed literals; it panics on a bad
// spec.
//
//histlint:ignore deadexport test seam: fault specs in the tests of cmd/histserve, cmd/histproxy, internal/histserve, internal/histproxy, internal/wal, internal/shardclient, internal/fleettest and internal/fault
func MustParse(spec string, seed int64) *Injector {
	inj, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return inj
}

func parseRule(clause string) (*rule, error) {
	site, rest, ok := strings.Cut(clause, ":")
	if !ok || site == "" {
		return nil, fmt.Errorf("fault: rule %q needs site:kind", clause)
	}
	// The kind token runs until the first modifier introducer.
	end := len(rest)
	for i, c := range rest {
		if c == '@' || c == '%' || c == 'x' {
			end = i
			break
		}
	}
	kindTok, mods := rest[:end], rest[end:]
	r := &rule{site: site}
	switch {
	case kindTok == "err":
		r.kind = kindErr
	case kindTok == "nospace":
		r.kind = kindNoSpace
	case kindTok == "short":
		r.kind = kindShort
	case kindTok == "panic":
		r.kind = kindPanic
	case strings.HasPrefix(kindTok, "slow="):
		d, err := time.ParseDuration(kindTok[len("slow="):])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("fault: rule %q has a bad slow duration", clause)
		}
		r.kind = kindSlow
		r.delay = d
	case kindTok == "drop":
		r.kind = kindDrop
	case strings.HasPrefix(kindTok, "stall="):
		d, err := time.ParseDuration(kindTok[len("stall="):])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("fault: rule %q has a bad stall duration", clause)
		}
		r.kind = kindStall
		r.delay = d
	default:
		return nil, fmt.Errorf("fault: rule %q has unknown kind %q (want err, nospace, short, panic, slow=<dur>, drop or stall=<dur>)", clause, kindTok)
	}
	for mods != "" {
		introducer := mods[0]
		val := mods[1:]
		end := len(val)
		for i, c := range val {
			if c == '@' || c == '%' || c == 'x' {
				end = i
				break
			}
		}
		tok := val[:end]
		mods = val[end:]
		switch introducer {
		case '@':
			if strings.HasSuffix(tok, "+") {
				r.persist = true
				tok = tok[:len(tok)-1]
			}
			n, err := strconv.ParseInt(tok, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: rule %q has a bad @N trigger", clause)
			}
			r.nth = n
		case '%':
			p, err := strconv.ParseFloat(tok, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("fault: rule %q has a bad %%P probability (want (0,1])", clause)
			}
			r.prob = p
		case 'x':
			c, err := strconv.ParseInt(tok, 10, 64)
			if err != nil || c < 1 {
				return nil, fmt.Errorf("fault: rule %q has a bad xC cap", clause)
			}
			r.max = c
		}
	}
	if r.nth > 0 && r.prob > 0 {
		return nil, fmt.Errorf("fault: rule %q mixes @N and %%P triggers", clause)
	}
	if r.max == 0 && r.nth > 0 && !r.persist {
		r.max = 1 // a plain @N fires exactly once
	}
	return r, nil
}

// Check counts one operation at site and returns the injected outcome,
// if any. A rule of kind panic makes Check panic (after recording the
// fire) — the injected failure mode for exercising panic recovery. A
// nil Injector returns the zero Outcome.
func (i *Injector) Check(site string) Outcome {
	if i == nil {
		return Outcome{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.counts[site] + 1
	i.counts[site] = n
	if i.healed {
		return Outcome{}
	}
	var out Outcome
	for _, r := range i.rules {
		if r.site != site {
			continue
		}
		if r.max > 0 && r.fires >= r.max {
			continue
		}
		hit := false
		switch {
		case r.nth > 0 && r.persist:
			hit = n >= r.nth
		case r.nth > 0:
			hit = n == r.nth
		case r.prob > 0:
			hit = i.rng.Float64() < r.prob
		default:
			hit = true
		}
		if !hit {
			continue
		}
		r.fires++
		switch r.kind {
		case kindErr:
			out.Err = fmt.Errorf("%w at %s (op %d)", ErrInjected, site, n)
		case kindNoSpace:
			out.Err = fmt.Errorf("fault at %s (op %d): %w", site, n, ErrNoSpace)
		case kindShort:
			out.Torn = true
			out.Err = fmt.Errorf("%w: torn write at %s (op %d)", ErrInjected, site, n)
		case kindPanic:
			panic(fmt.Sprintf("fault: injected panic at %s (op %d)", site, n))
		case kindSlow:
			out.Delay += r.delay
		case kindDrop:
			out.Drop = true
			out.Err = fmt.Errorf("%w: connection dropped at %s (op %d)", ErrInjected, site, n)
		case kindStall:
			out.Delay += r.delay
		}
	}
	return out
}

// Heal disarms every rule: operations keep being counted, but no
// further faults fire. The chaos suite uses it to clear a persistent
// fault and watch the server's auto-recovery probe succeed.
//
//histlint:ignore deadexport test seam: internal/histserve chaos_test.go and internal/wal fault_test.go clear a persistent fault to watch recovery, and cmd/histproxy runs_test.go a relay's slow legs
func (i *Injector) Heal() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.healed = true
}

// Ops returns the operation count observed at site.
//
//histlint:ignore deadexport test seam: internal/wal fault_test.go counts the write and sync operations a commit reached; the tests of cmd/histproxy and internal/fleettest count the lines a relay checked
func (i *Injector) Ops(site string) int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts[site]
}

// String renders the spec and seed, the pair that reproduces this
// fault schedule.
func (i *Injector) String() string {
	return fmt.Sprintf("fault(%q, seed=%d)", i.spec, i.seed)
}

func (i *Injector) wait(d time.Duration) {
	if d > 0 {
		i.sleep(d)
	}
}

// File is the file surface the WAL writes segments through — a
// structural copy of wal.SegmentFile (see the package comment for why
// it is not an import).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// WrapFile interposes the injector on a segment file. Writes check
// site prefix+".write" (a torn outcome persists the first half of the
// buffer before failing, like a crash mid-write), Sync checks
// prefix+".sync"; Close passes through.
func (i *Injector) WrapFile(prefix string, f File) File {
	if i == nil {
		return f
	}
	return &faultFile{inj: i, prefix: prefix, f: f}
}

type faultFile struct {
	inj    *Injector
	prefix string
	f      File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	out := ff.inj.Check(ff.prefix + ".write")
	ff.inj.wait(out.Delay)
	if out.Err != nil {
		if out.Torn && len(p) > 1 {
			// A torn write leaves a partial frame on disk, exactly like
			// power loss mid-write; the short-write error is primary.
			n, _ := ff.f.Write(p[:len(p)/2])
			return n, out.Err
		}
		return 0, out.Err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	out := ff.inj.Check(ff.prefix + ".sync")
	ff.inj.wait(out.Delay)
	if out.Err != nil {
		return out.Err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// WrapConn interposes the injector on a network connection: Read
// checks site prefix+".read", Write prefix+".write". A drop outcome
// closes the underlying connection before returning its error, so the
// peer observes the teardown too — the closest a test gets to a cable
// pull. Close and the deadline methods pass through.
func (i *Injector) WrapConn(prefix string, c net.Conn) net.Conn {
	if i == nil {
		return c
	}
	return &faultConn{Conn: c, inj: i, prefix: prefix}
}

type faultConn struct {
	net.Conn
	inj    *Injector
	prefix string
}

func (fc *faultConn) Read(p []byte) (int, error) {
	out := fc.inj.Check(fc.prefix + ".read")
	fc.inj.wait(out.Delay)
	if out.Drop {
		_ = fc.Conn.Close()
	}
	if out.Err != nil {
		return 0, out.Err
	}
	return fc.Conn.Read(p)
}

func (fc *faultConn) Write(p []byte) (int, error) {
	out := fc.inj.Check(fc.prefix + ".write")
	fc.inj.wait(out.Delay)
	if out.Drop {
		_ = fc.Conn.Close()
	}
	if out.Err != nil {
		return 0, out.Err
	}
	return fc.Conn.Write(p)
}
