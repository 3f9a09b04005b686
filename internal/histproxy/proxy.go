// Package histproxy is the scatter-gather router in front of a
// time-range-sharded histserve fleet. It speaks the same line protocol
// on both sides — unmodified clients connect to it exactly as they
// would to a single histserve, and it talks plain histserve protocol
// to every shard — so sharding is a deployment decision, not a client
// change. The command cmd/histproxy parses its flags into a Config and
// runs it:
//
//	histproxy -addr :7071 -dims 16,16 \
//	    -shards "h1:7072=0-999,h2:7073=1000-1999,hot:7074=2000-" \
//	    [-metrics :9091] [-seal-historic]
//
// The -shards map assigns each backend an inclusive transaction-time
// range; ranges must be contiguous and exactly the last is open-ended
// (the hot shard taking appends). Each backend may be a '|'-separated
// replica set, primary first ("primary|replica=lo-hi"): the proxy
// routes writes to the primary and reads to any healthy member holding
// every acked write. Why this is correct — and cheap — is the paper's
// Sec. 2.2 reduction: a d-dimensional range query is answered by prefix
// differences along time, and SUM/COUNT are invertible, so the answer
// over [tlo, thi] is exactly the sum of the answers over the per-shard
// clamps of that interval. internal/shard
// computes the clamps (Route) and the deterministic merge (Merge).
//
// Request handling:
//
//	INS/DEL  routed to the single shard owning the timestamp (Locate);
//	         the shard's reply is relayed verbatim.
//	QRY      one leg per overlapped shard, the time range clamped to the
//	         shard's (Route); partial sums merged by addition. All legs
//	         answered -> the plain number, bit-identical to a single
//	         cube holding all the data. In an AVG fleet each leg asks for
//	         its (sum, count) pair ("PAIR QRY ..."), and Merge adds the
//	         pairs and divides once: averages do not add.
//	EXPLAIN  a unit of one whose legs go out as EXPLAIN JSON QRY; each
//	         shard ships its whole span tree back as one JSON document
//	         and the proxy grafts it under the matching proxy.leg span,
//	         so the rendered tree is one merged trace (proxy.query root,
//	         one proxy.leg child per shard carrying batch=<lines that
//	         shared its round trip>, the shard's own spans below) and the
//	         totals line is Total over that tree — bit-identical to
//	         summing the shards' flat totals, because counters travel as
//	         int64.
//	SLOWLOG  answered by the proxy itself from its own slow-query log
//	         (-slow-query-threshold / -slowlog-size), same line format
//	         as a shard's SLOWLOG.
//	STATS    asked of each shard's current primary; numeric fields are
//	         summed across shards (sealed_through and degraded take the
//	         max; non-numeric fields like git_rev are skipped), prefixed
//	         with proxy-level shards=/shards_up=.
//	VERSION  answered by the proxy itself (its own build revision).
//	SHARDS   the shard map with live health, END-terminated.
//
// One round trip per shard and unit: the INS/DEL/QRY lines that are
// already buffered on a connection form a unit (capped at 256), and each
// shard's lines of the unit — routed mutations and query legs alike, in
// request order — travel as one batch on one pooled connection
// (internal/shardclient), so a shard commits, replicates and acknowledges
// a window's mutations together and answers its legs in between. The
// connection's goroutine sends every shard's batch of the unit before it
// reads any reply, then reads the shards' replies in turn: the batches
// are in flight together without a goroutine each. A batch that carries
// a mutation goes to the primary; a batch of legs alone goes to any
// member the read rule admits. Replies keep request order and leave in
// one flush; a lone line is a unit of one, and a unit ends before the
// first line of any other verb. Every request still sees every earlier
// one, because a leg rides the same ordered connection as the unit's
// mutations to its shard.
//
// Degraded answers instead of failures: when a shard is down, times
// out, or its circuit breaker is open (internal/shardclient trips it
// on consecutive transport failures), a read query is NOT an error and
// does NOT hang — the proxy answers
//
//	PARTIAL <value> coverage=<fraction> covered=<ranges> missing=<addr=lo-hi,...>
//
// carrying the exact sum over the live time ranges, the fraction of
// the asked time span that sum covers, and the names of the holes. A
// wrong total is never presented as complete. Mutations to a dead
// shard fail explicitly (a write cannot be partial). When the shard
// rejoins, the member-state loop's next ROLE closes its breaker and
// restores complete answers without a proxy restart.
//
// Replication and failover: a shard declared as a replica set
// ("primary|replica=lo-hi") is one internal/shardclient.Group. Every
// member replays the primary's totally ordered WAL stream (histserve
// -follow), so one holding every acked write answers bit-identically.
// One member-state loop sends ROLE to every member every -probe-every
// (at once after a broken mutation batch or "ERR read-only replica"),
// each with one interval to answer, and from those replies alone closes
// breakers, fails over and sets the read rule: followers serve reads only
// while the current primary last reported a min_acks (its
// -repl-min-acks) covering every follower the map names, so every acked
// write reached each of them, and no follower's ROLE said synced=0 (still
// catching up after a bootstrap), else reads go to the primary alone — no
// fallback, no hedge, so a dead primary's legs answer PARTIAL. With the
// rule on, a read batch unanswered after -hedge-after is duplicated to
// the next member, first answer wins; only then does the unit's fan-out
// start a goroutine. Writes pin to the primary and are never retried (a
// duplicate mutation is a double-apply): when a batch breaks, the
// replies received before the break stand, every mutation beyond it is
// answered "ERR shard ... unavailable", and every leg beyond it is
// re-sent once down the read path. A primary whose breaker is open, that
// answers ROLE as a replica, or that misses the ROLE a failed mutation
// batch to it set off, is replaced: the loop adopts a member
// that is already primary, or promotes the most-caught-up replica with
// PROMOTE <fence>, the highest applied LSN observed across the set, so a
// lagging replica can never be promoted over acked writes it missed.
// Every ROLE also names the member's operator (op=): the first one heard
// becomes the fleet's, and a shard whose primary names another answers
// its queries ERR, while a follower that does keeps follower reads off.
// With semi-sync primaries (histserve -repl-min-acks 1) every acked
// write is on a replica before its OK, so promotion loses none.
//
// The hidden -fault-spec / -fault-seed flags arm the deterministic
// fault injector (internal/fault) at the proxy's shard-facing sites:
// "proxy.dial" before each backend dial and "proxy.conn.read" /
// "proxy.conn.write" around pooled-connection I/O — the chaos
// harness's hook for drops and stalls between proxy and shard — and at
// the core's "serve.dispatch" site in front of every request.
//
// With -seal-historic the proxy demotes every closed-range shard at
// startup by issuing SEAL <hi> — a misrouted or replayed mutation
// cannot silently land in history another shard answers for.
//
// Distributed tracing: every request's root span carries a trace ID,
// generated at the proxy edge or adopted from a client's leading
// "TID=<16 hex>" token. The proxy stamps that ID on every shard-bound
// line — query legs and routed mutations alike — so the shards' root
// spans adopt it too, and one identifier correlates a request across
// proxy and shard slog lines, both SLOWLOGs, and both sides'
// /debug/slowlog and /debug/trace/recent feeds.
//
// The proxy carries the same production treatment as histserve because
// it runs the same serving core (internal/lineserver): connection loop,
// -max-conns / -read-timeout / -max-line-bytes / -request-timeout
// governance, panic barrier, per-command accounting and the -metrics
// listener (/metrics, /healthz, /readyz gated on the member-state
// loop's first round, /debug/slowlog, /debug/trace/recent,
// /debug/pprof/*). Its own are the histproxy_* partial/failover/leg
// counters, the per-shard health gauges and the command table below.
package histproxy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"histcube/internal/lineserver"
	"histcube/internal/obs"
	"histcube/internal/perf"
	"histcube/internal/shard"
	"histcube/internal/shardclient"
	"histcube/internal/trace"
)

// Proxy is one histproxy instance.
type Proxy struct {
	// Server is the serving core (internal/lineserver): connection loop,
	// governance, panic barrier, accounting, trace retention and the
	// metrics listener.
	lineserver.Server

	cfg    Config
	smap   *shard.Map
	shards []shard.Shard        // smap.Shards(), copied once: the request path indexes it
	groups []*shardclient.Group // parallel to shards; one replica-set client per shard
	dims   int

	meta perf.RunMeta

	// The member-state loop (watch; loop counts it) ticks every
	// cfg.ProbeEvery, closes polled after its first round, wakes on nudge
	// and ends when quit closes. suspect[i]: a mutation batch to shard
	// i's primary failed (see track).
	polled, quit, nudge chan struct{}
	loop                sync.WaitGroup
	suspect             []atomic.Bool

	// op is the fleet's operator: the first a primary's ROLE names, in
	// map order (nil until then). wrongOp[i] is the operator shard i's
	// primary names instead, nil while it agrees. See track.
	op      atomic.Pointer[string]
	wrongOp []atomic.Pointer[string]

	partials    *obs.Counter
	failovers   *obs.Counter
	fanoutLegs  *obs.Counter
	legFailures *obs.Counter
}

// Config is histproxy's command line: one field per flag of
// cmd/histproxy beyond the serving core's shared ones (lineserver.Flags),
// each holding that flag's value.
type Config struct {
	Dims             string        // -dims: the fleet's dimension sizes (only the count matters)
	Shards           string        // -shards: the shard map, addr=lo-hi,...,addr=lo-
	ShardTimeout     time.Duration // -shard-timeout: per-shard round-trip deadline inside a fan-out
	PoolSize         int           // -pool-size: pooled connections kept per shard
	BreakerThreshold int           // -breaker-threshold: transport failures that open a breaker
	ProbeEvery       time.Duration // -probe-every: the member-state loop's interval
	HedgeAfter       time.Duration // -hedge-after: when a read is duplicated; 0 disables hedging
	SealHistoric     bool          // -seal-historic: SEAL every closed-range shard at Start
}

// New validates cfg and builds the proxy it describes; Start runs its
// member-state loop's first round. Every error is a bad or missing flag.
func New(cfg Config) (*Proxy, error) {
	if cfg.Shards == "" {
		return nil, errors.New("missing -shards: the proxy needs a shard map (addr=lo-hi,...,addr=lo-)")
	}
	if cfg.Dims == "" {
		return nil, errors.New("missing -dims: the proxy needs the shard fleet's dimension sizes")
	}
	smap, err := shard.Parse(cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("bad -shards map: %w", err)
	}
	if cfg.ProbeEvery <= 0 {
		return nil, fmt.Errorf("-probe-every must be > 0, got %v: the member-state loop is how members rejoin and fail over", cfg.ProbeEvery)
	}
	p := &Proxy{
		cfg:    cfg,
		smap:   smap,
		shards: smap.Shards(),
		dims:   len(strings.Split(cfg.Dims, ",")),
		meta:   perf.CollectMeta("histproxy"),
		polled: make(chan struct{}),
		quit:   make(chan struct{}),
		nudge:  make(chan struct{}, 1),
	}
	// The shard-facing fault sites. p.Inj is nil, and both hooks inert,
	// unless -fault-spec (or a test) arms it before the first dial.
	copts := shardclient.Options{
		PoolSize:         cfg.PoolSize,
		OpTimeout:        cfg.ShardTimeout,
		BreakerThreshold: cfg.BreakerThreshold,
		DialFault:        func() error { return p.Inj.Check("proxy.dial").Err },
		WrapConn:         func(c net.Conn) net.Conn { return p.Inj.WrapConn("proxy.conn", c) },
	}
	for _, s := range p.shards {
		p.groups = append(p.groups, shardclient.NewGroup(s.Members(), cfg.HedgeAfter, copts))
	}
	p.suspect = make([]atomic.Bool, len(p.groups))
	p.wrongOp = make([]atomic.Pointer[string], len(p.groups))
	p.Ready = func() (bool, string) {
		select {
		case <-p.polled:
			return true, fmt.Sprintf("ok shards=%d up=%d", p.smap.Len(), p.shardsUp())
		default:
			return false, "polling shard members"
		}
	}
	p.Init(p.settle, p.commands()...)
	p.Connections = p.Reg.NewGauge("histproxy_connections", "Open client connections.")
	p.ConnTotal = p.Reg.NewCounter("histproxy_connections_total", "Client connections accepted since start.")
	p.Inflight = p.Reg.NewGauge("histproxy_inflight_requests", "Requests currently being dispatched.")
	for _, cmd := range p.Labels() {
		p.Errors[cmd] = p.Reg.NewCounter("histproxy_errors_total",
			"Requests answered with ERR, by protocol command.", obs.Label{Key: "cmd", Value: cmd})
		p.Latency[cmd] = p.Reg.NewHistogram("histproxy_request_seconds",
			"Time from serving a request line to its reply being final (the unit's shard round trips included), by protocol command.",
			nil, obs.Label{Key: "cmd", Value: cmd})
	}
	p.partials = p.Reg.NewCounter("histproxy_partial_answers_total",
		"Read queries answered PARTIAL because at least one shard leg failed.")
	p.failovers = p.Reg.NewCounter("histproxy_failovers_total",
		"Primary failovers executed: a replica promoted or an already-promoted member adopted.")
	p.fanoutLegs = p.Reg.NewCounter("histproxy_fanout_legs_total",
		"Shard legs dispatched across all fan-outs.")
	p.legFailures = p.Reg.NewCounter("histproxy_leg_failures_total",
		"Shard legs that failed (transport error, timeout, or open breaker).")
	p.ConnRejects = p.Reg.NewCounter("histproxy_connections_rejected_total",
		"Connections rejected at the -max-conns cap.")
	p.Panics = p.Reg.NewCounter("histproxy_panics_recovered_total",
		"Request panics recovered into ERR internal responses.")
	for i, s := range p.shards {
		g := p.groups[i]
		p.Reg.NewGaugeFunc("histproxy_shard_up",
			"1 while at least one replica-set member's breaker is closed, 0 while every member is unreachable.",
			func() float64 {
				if g.Healthy() {
					return 1
				}
				return 0
			}, obs.Label{Key: "shard", Value: s.Addr})
		p.Reg.NewGaugeFunc("histproxy_hedged_reads",
			"Hedged duplicate read batches launched against the shard's replica set (monotone).",
			func() float64 { return float64(g.Hedged()) },
			obs.Label{Key: "shard", Value: s.Addr})
	}
	return p, nil
}

// Start runs the proxy once the serving core is configured
// (lineserver.Flags.Apply): it starts -seal-historic's sealing and the
// member-state loop, and returns after the loop's first round, which
// /readyz waits for.
func (p *Proxy) Start() {
	if p.cfg.SealHistoric {
		go p.sealHistoric()
	}
	p.loop.Add(1)
	go p.watch()
	<-p.polled
}

// Run serves addr until SIGINT or SIGTERM (lineserver.Server.Run), its
// listening line naming the shard map; the caller runs Close after it.
func (p *Proxy) Run(addr string) error {
	return p.Server.Run(addr, "shards", p.smap.String(), "dims", p.dims)
}

// Close stops the member-state loop, if started, and the clients.
func (p *Proxy) Close() {
	close(p.quit)
	p.loop.Wait()
	for _, g := range p.groups {
		g.Close()
	}
}

// sealHistoric demotes every closed-range shard by sealing its range's
// upper bound: the shard keeps serving reads but rejects mutations into
// the history this map says it owns. Every replica-set member is sealed
// — a promoted replica must inherit the demotion. Best-effort at
// startup: a member that is down right now logs a warning and stays
// unsealed until an operator (or a restart) seals it.
func (p *Proxy) sealHistoric() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, s := range p.shards {
		if s.Range.Hi == shard.Open {
			continue // the hot shard stays writable
		}
		g := p.groups[i]
		for j, member := range s.Members() {
			resp, err := g.Member(j).Do(ctx, fmt.Sprintf("SEAL %d", s.Range.Hi), false)
			if err != nil || !strings.HasPrefix(resp, "OK") {
				p.Log.Warn("sealing historic shard failed", "shard", member, "resp", resp, "err", err)
				continue
			}
			p.Log.Info("sealed historic shard", "shard", member, "through", s.Range.Hi)
		}
	}
}

// watch is the member-state loop, the only sender of ROLE, SetPrimary
// and PROMOTE. It runs a round at once, then every tick, or sooner when
// receive nudges it.
func (p *Proxy) watch() {
	defer p.loop.Done()
	tick := time.NewTicker(p.cfg.ProbeEvery)
	defer tick.Stop()
	p.pollMembers()
	close(p.polled)
	for {
		select {
		case <-tick.C:
		case <-p.nudge:
		case <-p.quit:
			return
		}
		p.pollMembers()
	}
}

// pollMembers is one round: a Client.Probe (ROLE) to every member of
// every group, concurrently — an answer closes the member's breaker, the
// rejoin — then track applies each group's replies. A member that hangs
// fails its probe at the interval and delays no one's rejoin longer.
func (p *Proxy) pollMembers() {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeEvery)
	defer cancel()
	roles := make([][]roleInfo, len(p.groups))
	suspect := make([]bool, len(p.groups))
	var wg sync.WaitGroup
	for i, g := range p.groups {
		roles[i], suspect[i] = make([]roleInfo, g.Len()), p.suspect[i].Swap(false)
		for j := range roles[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				down := !g.Member(j).Healthy()
				if down && j != g.PrimaryIndex() {
					g.SetFollowerReads(false) // its answer closes its breaker before track reads its synced=
				}
				if resp, err := g.Member(j).Probe(ctx); err == nil {
					roles[i][j] = parseRole(resp)
					if down {
						p.Log.Info("shard member rejoined", "member", p.shards[i].Members()[j])
					}
				}
			}()
		}
	}
	wg.Wait()
	for i, infos := range roles {
		p.track(i, infos, suspect[i])
	}
}

// fleetOp is the adopted operator, "" while none is.
func (p *Proxy) fleetOp() string {
	if op := p.op.Load(); op != nil {
		return *op
	}
	return ""
}

// roleInfo is one member's parsed ROLE reply.
type roleInfo struct {
	ok      bool
	primary bool
	lsn     uint64 // applied_lsn (replica) or last_lsn (primary)
	minAcks int    // a primary's min_acks
	syncing bool   // a replica that has not yet caught up (synced=0)
	op      string // the member's operator (sum, count, avg)
}

// parseRole decodes a histserve ROLE reply ("OK role=... k=v ...").
func parseRole(resp string) roleInfo {
	body, ok := strings.CutPrefix(resp, "OK ")
	if !ok {
		return roleInfo{}
	}
	info := roleInfo{ok: true}
	for _, tok := range strings.Fields(body) {
		k, v, found := strings.Cut(tok, "=")
		if !found {
			continue
		}
		switch k {
		case "role":
			info.primary = v == "primary"
		case "applied_lsn", "last_lsn":
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				info.lsn = n
			}
		case "min_acks":
			info.minAcks, _ = strconv.Atoi(v) // unreadable is 0: no follower reads
		case "synced":
			info.syncing = v == "0"
		case "op":
			info.op = v
		}
	}
	return info
}

// track applies one round of ROLE replies to shard i. The round sets the
// read rule: followers serve reads only while the current primary's
// min_acks covers every follower the map names, no follower answered
// synced=0 (one still catching up would serve answers missing acked
// writes) and none named another operator than the fleet's; a dead
// primary keeps the last value (no write is acked meanwhile). The first
// operator a primary names becomes the fleet's, for good; a primary that
// names another keeps the shard's legs out, as their answers would not
// merge with the others'. A primary whose breaker is open, that answers as a
// replica, or that is suspect and missed its ROLE, is replaced: adopt a
// member already calling itself primary (promoted by an operator or an
// earlier round), else promote the most-caught-up replica, fenced at the
// highest applied LSN observed across the set — a lagging replica can
// never be promoted over acked writes it missed.
func (p *Proxy) track(i int, infos []roleInfo, suspect bool) {
	g, members := p.groups[i], p.shards[i].Members()
	next := g.PrimaryIndex()
	if cur := infos[next]; !cur.primary {
		if g.Len() < 2 || (!cur.ok && g.Primary().Healthy() && !suspect) {
			return // nothing to fail over to, or one missed ROLE: down once the breaker opens
		}
		if next = p.failover(g, members, infos); next < 0 {
			return
		}
	}
	if op := infos[next].op; op != "" && p.op.CompareAndSwap(nil, &op) {
		p.Log.Info("fleet operator adopted", "op", op)
	}
	op := p.fleetOp()
	if other := infos[next].op; other != op {
		p.wrongOp[i].Store(&other)
	} else {
		p.wrongOp[i].Store(nil)
	}
	reads := infos[next].minAcks >= g.Len()-1
	for _, inf := range infos {
		reads = reads && !inf.syncing && (!inf.ok || inf.op == op)
	}
	g.SetFollowerReads(reads)
}

// failover re-points g's writes (see track) and returns the new
// primary's index, its entry in infos set from its own ROLE line, or -1.
func (p *Proxy) failover(g *shardclient.Group, members []string, infos []roleInfo) int {
	best := -1
	var fence uint64
	for j, inf := range infos {
		if inf.primary {
			g.SetPrimary(j) // already promoted elsewhere: adopt, don't re-promote
			p.failovers.Inc()
			p.Log.Warn("adopted promoted primary", "shard", members[0], "new_primary", members[j])
			return j
		}
		if inf.ok && (best < 0 || inf.lsn > fence) {
			fence, best = inf.lsn, j
		}
	}
	if best < 0 {
		return -1 // no member answered
	}
	resp, err := g.Member(best).Do(context.Background(), fmt.Sprintf("PROMOTE %d", fence), false) // bounded by -shard-timeout
	if err != nil || !strings.HasPrefix(resp, "OK") {
		p.Log.Warn("promotion failed", "shard", members[0], "member", members[best], "resp", resp, "err", err)
		return -1
	}
	g.SetPrimary(best)
	infos[best] = parseRole(resp) // PROMOTE answers with the ROLE line
	p.failovers.Inc()
	p.Log.Warn("promoted replica after primary failure", "shard", members[0], "new_primary", members[best], "fence", fence)
	return best
}

func (p *Proxy) shardsUp() int {
	up := 0
	for _, g := range p.groups {
		if g.Healthy() {
			up++
		}
	}
	return up
}

// commands is histproxy's command table. INS, DEL and QRY join a unit
// in progress and none of them ends it, so a unit here is the window: the
// complete lines a connection had buffered, up to the first line of any
// other verb, which is a unit of one. Their handlers only validate and
// route; settle sends each shard's lines of the unit as one batch round
// trip. A shard's batch travels in request order on one connection — the
// primary's whenever it carries a mutation — so a QRY leg sees exactly
// the unit's earlier mutations to that shard and none of its later ones,
// and every request still observes every earlier request of its
// connection, as on histserve. EXPLAIN leaves the same pending request
// as QRY and ends its unit: a rendered trace is not worth holding
// neighbours' replies for.
func (p *Proxy) commands() []lineserver.Command {
	mut := 1 + p.dims + 1
	refuse := func(verb string) lineserver.Command {
		return lineserver.Command{Verb: verb, MaxArgs: -1, EndsUnit: true, Other: true, Handle: func(*lineserver.Request) string {
			return "ERR " + verb + " is not proxied: connect to a shard directly (see SHARDS)"
		}}
	}
	return []lineserver.Command{
		{Verb: "INS", MinArgs: mut, MaxArgs: mut, Joins: true, Handle: p.locate,
			Usage: fmt.Sprintf("INS needs time, %d coordinates and a value", p.dims)},
		{Verb: "DEL", MinArgs: mut, MaxArgs: mut, Joins: true, Handle: p.locate,
			Usage: fmt.Sprintf("DEL needs time, %d coordinates and a value", p.dims)},
		{Verb: "QRY", MaxArgs: -1, Joins: true, Handle: func(rq *lineserver.Request) string {
			return p.scatter(rq, rq.Fields[1:], false)
		}},
		{Verb: "EXPLAIN", MaxArgs: -1, EndsUnit: true, Handle: func(rq *lineserver.Request) string {
			if len(rq.Fields) < 2 || strings.ToUpper(rq.Fields[1]) != "QRY" {
				return "ERR EXPLAIN wraps a query: EXPLAIN QRY <tlo> <thi> <lo...> <hi...>"
			}
			return p.scatter(rq, rq.Fields[2:], true)
		}},
		{Verb: "STATS", Usage: "STATS takes no arguments", EndsUnit: true,
			Handle: func(rq *lineserver.Request) string { return p.mergedStats(rq.Start()) }},
		{Verb: "VERSION", Usage: "VERSION takes no arguments", EndsUnit: true, Handle: func(*lineserver.Request) string {
			return fmt.Sprintf("OK histproxy rev=%s dirty=%t go=%s shards=%d",
				p.meta.GitRev, p.meta.GitDirty, p.meta.GoVersion, p.smap.Len())
		}},
		{Verb: "SHARDS", Usage: "SHARDS takes no arguments", EndsUnit: true, Handle: p.cmdShards},
		refuse("SAVE"), refuse("CHECKPOINT"), refuse("SEAL"),
	}
}

// cmdShards answers SHARDS: the shard map with live health.
func (p *Proxy) cmdShards(*lineserver.Request) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OK n=%d up=%d\n", len(p.shards), p.shardsUp())
	for i, s := range p.shards {
		g := p.groups[i]
		state := "up"
		if !g.Healthy() {
			state = "down"
		}
		fmt.Fprintf(&b, "%s range=%s %s", s.Addr, s.Range, state)
		if g.Len() > 1 {
			// Replica sets also report per-member role and health;
			// single-member shards keep the historical line format.
			parts := make([]string, g.Len())
			for j, m := range s.Members() {
				role := "replica"
				if j == g.PrimaryIndex() {
					role = "primary"
				}
				health := "up"
				if !g.Member(j).Healthy() {
					health = "down"
				}
				parts[j] = fmt.Sprintf("%s:%s=%s", m, role, health)
			}
			fmt.Fprintf(&b, " members=%s", strings.Join(parts, ","))
		}
		b.WriteByte('\n')
	}
	b.WriteString("END")
	return b.String()
}

// routed is what a handler leaves pending: the shard-bound lines of one
// request — a mutation's single line or a query's legs — for settle to
// send with the rest of the unit's.
type routed struct {
	root    *trace.Span // proxy.insert, proxy.delete or proxy.query
	mut     bool        // INS/DEL: one send, the shard's reply relayed verbatim
	explain bool        // EXPLAIN: legs ask for EXPLAIN JSON and graft the shard's tree
	pair    bool        // AVG: legs ask for the (sum, count) pair (lineserver.PairPrefix)
	sends   []send      // in map order
}

// send is one shard-bound line and, once its round trip is over, what
// came back for it. Exactly one goroutine of settle touches it.
type send struct {
	of   *routed
	leg  shard.Leg   // Index is the shard; the clamped range matters to a query only
	line string      // as it goes out, stamped with the trace ID
	span *trace.Span // times the round trip: the root of a mutation, a proxy.leg child of a query

	reply  string  // mutation: what the client reads
	value  float64 // leg: the shard's partial aggregate (a pair's sum)
	count  float64 // leg: a pair's count
	appErr string  // leg: the shard answered ERR (application error)
	err    error   // leg: transport/timeout/breaker failure
}

// locate is the INS/DEL handler: it validates the line and finds its
// owner, and leaves the sending to settle. A line that fails here is
// answered here and leaves the others alone, exactly as if every line
// had arrived by itself.
func (p *Proxy) locate(rq *lineserver.Request) string {
	t, err := strconv.ParseInt(rq.Fields[1], 10, 64)
	if err != nil {
		return fmt.Sprintf("ERR bad integer %q", rq.Fields[1])
	}
	idx, ok := p.smap.Locate(t)
	if !ok {
		return fmt.Sprintf("ERR no shard owns time %d (the shard map starts at %d)", t, p.shards[0].Range.Lo)
	}
	var root *trace.Span
	if rq.Verb() == "DEL" {
		root = trace.NewAt("proxy.delete", rq.Start())
	} else {
		root = trace.NewAt("proxy.insert", rq.Start())
	}
	root.SetTraceID(rq.TID)
	root.SetStr("shard", p.shards[idx].Addr)
	// The owner shard's root span adopts the same trace ID via the TID=
	// token, so the mutation is correlatable end to end.
	rt := &routed{root: root, mut: true}
	rt.sends = []send{{of: rt, leg: shard.Leg{Index: idx, Addr: p.shards[idx].Addr},
		line: trace.FormatRequestID(root.TraceID()) + rq.Line, span: root}}
	rq.Pending = rt
	return ""
}

// scatter is the QRY/EXPLAIN handler: it validates the arguments as
// integers — a malformed request fails once at the proxy, not N times at
// the shards, and costs its neighbours nothing — and leaves one leg per
// overlapped shard pending. No leg at all (the range is inverted or
// precedes the map) is a request with nothing to send, which settle
// answers with the operator's zero. A leg to a shard whose primary
// serves another operator than the fleet's fails the request here. In
// an AVG fleet every leg asks for its pair.
func (p *Proxy) scatter(rq *lineserver.Request, args []string, explain bool) string {
	if len(args) != 2+2*p.dims {
		return fmt.Sprintf("ERR QRY needs tlo, thi and %d lo + %d hi coordinates", p.dims, p.dims)
	}
	nums, err := lineserver.ParseInts(args)
	if err != nil {
		return "ERR " + err.Error()
	}
	legs := p.smap.Route(nums[0], nums[1])
	for _, leg := range legs {
		if other := p.wrongOp[leg.Index].Load(); other != nil {
			return fmt.Sprintf("ERR shard %s serves op=%s, not the fleet's op=%s: its answers do not merge", leg.Addr, *other, p.fleetOp())
		}
	}
	root := trace.NewAt("proxy.query", rq.Start())
	root.SetTraceID(rq.TID)
	root.SetInt("legs", int64(len(legs)))
	// Every shard-bound line carries the request's "TID=<hex> " token so
	// the shard's spans join this trace; an EXPLAIN leg asks for the
	// structured one-line reply.
	prefix, coords := trace.FormatRequestID(root.TraceID()), strings.Join(args[2:], " ")
	pair := p.fleetOp() == "avg"
	if pair {
		prefix += lineserver.PairPrefix
	}
	if explain {
		prefix += "EXPLAIN JSON "
	}
	rt := &routed{root: root, explain: explain, pair: pair, sends: make([]send, len(legs))}
	for i, leg := range legs {
		sp := root.StartChild("proxy.leg")
		sp.SetStr("shard", leg.Addr)
		sp.SetInt("tlo", leg.TimeLo)
		sp.SetInt("thi", leg.TimeHi)
		rt.sends[i] = send{of: rt, leg: leg, span: sp,
			line: fmt.Sprintf("%sQRY %d %d %s", prefix, leg.TimeLo, leg.TimeHi, coords)}
	}
	rq.Pending = rt
	return ""
}

// settle is the table's settle function: it sends each shard's lines of
// the unit — routed mutations and query legs alike, in request order — as
// one batch round trip, every shard's batch before it reads any reply,
// then reads the shards' replies in turn and answers every request in
// request order. Mutations to different shards commute and a range
// aggregate is the sum of its per-shard legs (Sec. 2.1, 2.2), so the
// batches only have to be in flight together; within a shard the single
// connection keeps the order. The roots end at one stamp, read once every
// batch is answered, and settle returns it for the serving core's second
// stamp.
func (p *Proxy) settle(unit []*lineserver.Request) time.Time {
	batches := make([][]*send, len(p.groups))
	var live []int
	for _, rq := range unit {
		rt := rq.Pending.(*routed)
		for k := range rt.sends {
			idx := rt.sends[k].leg.Index
			if batches[idx] == nil {
				live = append(live, idx)
			}
			batches[idx] = append(batches[idx], &rt.sends[k])
		}
	}
	var rc lineserver.RequestCtx // the unit's: its deadline runs from the unit's first stamp
	ctx := p.StartRequest(&rc, nil, unit[0].Start())
	defer rc.Cancel()
	calls := make([]*shardclient.Call, len(live))
	for i, idx := range live {
		calls[i] = p.sendBatch(ctx, idx, batches[idx])
	}
	for i, idx := range live {
		p.receive(ctx, idx, batches[idx], calls[i])
	}
	answered := lineserver.StampAfter(unit[0].Start())
	for _, rq := range unit {
		rq.Reply = p.answer(rq.Line, rq.Pending.(*routed), answered)
	}
	return answered
}

// sendBatch sends one shard's share of a unit as one batch. The member
// rule is read off the batch: one that carries a mutation goes to the
// primary and is never retried or hedged — a write cannot be partial, so
// a mutation the primary did not answer is an explicit error, never a
// silent drop and never a re-send (it may or may not have been applied) —
// while a batch of legs alone goes to any healthy member, hedged and
// failed over as a batch.
func (p *Proxy) sendBatch(ctx context.Context, idx int, batch []*send) *shardclient.Call {
	lines, mutates := make([]string, len(batch)), false
	for k, s := range batch {
		lines[k], mutates = s.line, mutates || s.of.mut
	}
	return p.groups[idx].Send(ctx, lines, mutates)
}

// receive reads the replies of one shard's batch and files them with
// their sends. Legs that a broken primary connection left unanswered are
// reads: they are re-sent once, alone, which takes them down the read
// path.
func (p *Proxy) receive(ctx context.Context, idx int, batch []*send, call *shardclient.Call) {
	replies, err := call.Wait()
	var unanswered []*send
	mutates, stale := false, false
	for _, s := range batch {
		mutates = mutates || s.of.mut
	}
	for k, s := range batch {
		switch {
		case k < len(replies):
			stale = stale || (s.of.mut && strings.HasPrefix(replies[k], "ERR read-only replica"))
			p.file(s, replies[k], nil, len(batch))
		case mutates && !s.of.mut:
			unanswered = append(unanswered, s)
		default:
			p.file(s, "", err, len(batch))
		}
	}
	if mutates && (err != nil || stale) {
		// The primary may be gone, or be one no longer (a promotion the
		// proxy did not perform): poll the roles now, not at the next tick.
		p.suspect[idx].Store(true)
		select {
		case p.nudge <- struct{}{}:
		default:
		}
	}
	if len(unanswered) > 0 {
		p.receive(ctx, idx, unanswered, p.sendBatch(ctx, idx, unanswered)) // QRY lines only
	}
}

// file records what came back for one shard-bound line: reply, or err
// when its round trip broke before an answer. batch is the number of
// lines that shared the round trip — what explains a leg's wall time.
// An EXPLAIN leg's reply carries the shard's whole span tree, grafted
// under the leg's span here; a failed leg grafts nothing, so the
// surviving shard trees stay in the rendered answer and the hole is
// marked on the leg's own span.
func (p *Proxy) file(s *send, reply string, err error, batch int) {
	defer s.span.End()
	s.span.SetInt("batch", int64(batch))
	if s.of.mut {
		if s.reply = reply; err != nil {
			s.reply = fmt.Sprintf("ERR shard %s unavailable: %v", s.leg.Addr, err)
		}
		return
	}
	p.fanoutLegs.Inc()
	switch {
	case err != nil:
	case strings.HasPrefix(reply, "ERR timeout"), strings.HasPrefix(reply, "ERR canceled"):
		// The shard is slow or dying: a leg failure, degrading the answer
		// to PARTIAL. Every other ERR is deterministic and relayed as-is.
		err = errors.New(reply)
	case strings.HasPrefix(reply, "ERR"):
		s.appErr = reply
	case s.of.explain:
		if body, ok := strings.CutPrefix(reply, "OK "); !ok {
			err = fmt.Errorf("shard %s: unexpected EXPLAIN reply %q", s.leg.Addr, reply)
		} else if doc, jerr := trace.DecodeExplain([]byte(body)); jerr != nil {
			err = fmt.Errorf("shard %s: bad EXPLAIN JSON reply: %w", s.leg.Addr, jerr)
		} else {
			s.value, s.count = doc.Result, doc.Count
			s.span.Graft(doc.Trace.Span())
		}
	case s.of.pair:
		sum, count, _ := strings.Cut(reply, " ")
		var cerr error
		if s.value, err = strconv.ParseFloat(sum, 64); err == nil {
			s.count, cerr = strconv.ParseFloat(count, 64)
		}
		if err != nil || cerr != nil {
			err = fmt.Errorf("shard %s: QRY reply %q is no sum and count", s.leg.Addr, reply)
		}
	default:
		if s.value, err = strconv.ParseFloat(reply, 64); err != nil {
			err = fmt.Errorf("shard %s: non-numeric QRY reply %q", s.leg.Addr, reply)
		}
	}
	if s.err = err; err != nil {
		p.legFailures.Inc()
		s.span.SetStr("error", err.Error())
		return
	}
	s.span.SetFloat("value", s.value)
	if s.of.pair {
		s.span.SetFloat("count", s.count)
	}
}

// answer closes a request's trace at the unit's stamp at, renders its
// reply from what its sends brought back (merge), and then hands the
// trace to the feeds: a mutation's reply is the shard's own, a query's
// the merge of its legs (EXPLAIN: with the merged span tree and the
// totals over it). All legs answered -> the plain number; a failed leg
// -> a PARTIAL answer over the live ranges.
func (p *Proxy) answer(line string, rt *routed, at time.Time) string {
	rt.root.EndAt(at)
	reply := p.merge(rt)
	p.Observe(line, rt.root) // hands the tree to the ring: nothing reads it after
	return reply
}

// merge renders the reply of a request whose sends are all filed.
func (p *Proxy) merge(rt *routed) string {
	if rt.mut {
		return rt.sends[0].reply
	}
	parts := make([]shard.Partial, len(rt.sends))
	for i := range rt.sends {
		s := &rt.sends[i]
		// A deterministic application error from any shard (bad
		// coordinates, wrong arity) would be the same from every shard:
		// relay the first one in map order rather than calling it PARTIAL.
		if s.appErr != "" {
			return s.appErr
		}
		parts[i] = shard.Partial{Leg: s.leg, Value: s.value, Count: s.count, Pair: rt.pair, Err: s.err}
	}
	merged := shard.Merge(parts)
	head := strconv.FormatFloat(merged.Value, 'g', -1, 64)
	if rt.explain {
		head = "result=" + head
	}
	if !merged.Complete {
		p.partials.Inc()
		head = fmt.Sprintf("PARTIAL %s coverage=%.3f covered=%s missing=%s",
			head, merged.Coverage(), shard.FormatRanges(merged.Covered), shard.FormatMissing(merged.Missing))
	} else if rt.explain {
		head = "OK " + head
	}
	if rt.explain {
		return rt.root.Explain(head)
	}
	return head
}

// statsMaxKey names the STATS fields where summing across shards is
// wrong: sealed_through is a boundary and degraded a flag, not
// quantities, so they take the max.
func statsMaxKey(k string) bool {
	return k == "sealed_through" || k == "degraded"
}

// mergedStats fans STATS out to every shard's current primary — the
// member whose view is the shard's (a follower reports its own degraded
// flag and replica positions) and the one SetPrimary moves on failover —
// and merges the numeric fields: sums by default, max for statsMaxKey
// fields, non-numeric tokens (git_rev) skipped. Field order follows the
// first responding shard so the output stays stable and diffable.
func (p *Proxy) mergedStats(start time.Time) string {
	var rc lineserver.RequestCtx
	ctx := p.StartRequest(&rc, nil, start)
	defer rc.Cancel()
	replies := make([]string, len(p.groups))
	var wg sync.WaitGroup
	for i, g := range p.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := g.Primary().Do(ctx, "STATS", true); err == nil {
				replies[i] = resp
			}
		}()
	}
	wg.Wait()

	merged := make(map[string]float64)
	var order []string
	up := 0
	for _, resp := range replies {
		if resp == "" || strings.HasPrefix(resp, "ERR") {
			continue
		}
		up++
		for _, tok := range strings.Fields(resp) {
			k, v, ok := strings.Cut(tok, "=")
			if !ok {
				continue
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue // non-numeric (git_rev)
			}
			switch old, seen := merged[k]; {
			case !seen:
				order = append(order, k)
				merged[k] = f
			case statsMaxKey(k):
				merged[k] = max(old, f)
			default:
				merged[k] += f
			}
		}
	}
	if up == 0 {
		return "ERR no shard reachable for STATS"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d shards_up=%d partial_answers_total=%d",
		p.smap.Len(), up, p.partials.Value())
	for _, k := range order {
		v := merged[k]
		//histlint:ignore nofloateq exact integrality check choosing the render format, not a value comparison
		if v == float64(int64(v)) {
			fmt.Fprintf(&b, " %s=%d", k, int64(v))
		} else {
			fmt.Fprintf(&b, " %s=%.1f", k, v)
		}
	}
	return b.String()
}
