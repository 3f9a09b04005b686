package main

// One workload run: per session, set up a fresh server set, drive the
// timed phase, verify against the oracle, and turn what was seen from
// outside — client clocks, /proc, /metrics — into named metrics.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type runOpts struct {
	w        *workloadSpec
	seed     int64
	phase    time.Duration // timed phase of one session
	conns    int
	sessions int
}

// metrics maps a metric name from spec.go to its measured value.
type metrics map[string]float64

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	FailShare float64 `json:"fail_share"`
	FirstFail string  `json:"first_failure,omitempty"`
	Qry       digest  `json:"qry"`
	Ins       digest  `json:"ins"`
	Slices    int64   `json:"slices_at_end"`
	Server    string  `json:"server_version"`
	Metrics   metrics `json:"metrics"`

	cal []slice // the timed phase slice by slice; runWorkload pools them into the calibrated metrics
}

// slice is about a second of load between two calibration bursts: what
// was measured raw, and the speed index of the bursts around it. The
// insert epilogue of a read-only workload is a slice that is not timed:
// it carries only an insert latency.
type slice struct {
	timed    bool
	ops      float64
	secs     float64
	cpu      float64 // server CPU seconds
	qryP50US float64 // 0 without queries
	insP50US float64 // 0 without inserts
	index    float64
}

// sliceLoad is the load between two bursts; a burst takes about a fifth
// of it on the reference machine, so a slice is measured at the speed of
// its own second. slicePeriod is what a phase of --seconds is divided by
// to get its number of slices: a slice and a burst on a machine half as
// fast again as the reference. The count is fixed, not the duration, so
// that the history at the end of a phase — and with it memory and
// restart time — does not depend on the machine's speed.
const (
	sliceLoad      = 900 * time.Millisecond
	slicePeriod    = 1250 * time.Millisecond
	epilogueChunks = 3 // slices the insert epilogue of a read-only workload is cut into
)

func slicesIn(phase time.Duration) int { return max(1, int(phase/slicePeriod)) }

// calibrated names the metrics reported at reference-machine speed and,
// per slice, their value there (ok = the slice has one).
var calibrated = []struct {
	name string
	at   func(sl slice) (v float64, ok bool)
}{
	{"ops_s", func(sl slice) (float64, bool) { return sl.ops / sl.secs * sl.index, sl.timed }},
	{"cpu_s_per_kop", func(sl slice) (float64, bool) {
		return sl.cpu / (sl.ops / 1000) / sl.index, sl.timed && sl.ops > 0
	}},
	{"qry_p50_us", func(sl slice) (float64, bool) { return sl.qryP50US / sl.index, sl.qryP50US > 0 }},
	{"ins_p50_us", func(sl slice) (float64, bool) { return sl.insP50US / sl.index, sl.insP50US > 0 }},
}

// session is one set-up server set with its connected clients.
type session struct {
	fleet   *fleet
	ctl     *wire
	workers []*worker
	clk     *clock
	history []point // every point the servers acked so far
}

func (s *session) close() {
	if s == nil {
		return
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	for _, k := range s.workers {
		k.w.close()
	}
	s.fleet.stop()
}

// setup launches the workload's topology, seeds its history in
// transaction-time order and warms it up with the clock stopped.
func (e *env) setup(o runOpts) (s *session, err error) {
	f, err := e.launchWorkload(o.w)
	if err != nil {
		return nil, err
	}
	s = &session{fleet: f, clk: &clock{base: int64(o.w.SeedSlices)}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.ctl, err = dial(f.entry.addr); err != nil {
		return nil, err
	}
	s.history = seedPoints(o.seed, o.w.SeedSlices)
	var pool []query
	var expect []string
	if o.w.Query == queryPool {
		pool = buildPool(o.seed, o.w.SeedSlices, poolSize)
		expect = make([]string, len(pool))
		for i, q := range pool {
			expect[i] = formatAnswer(answer(s.history, q))
		}
	}
	for i := 0; i < o.conns; i++ {
		w, err := dial(f.entry.addr)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, &worker{
			w: w, s: newStream(o.w, o.seed, i, pool), depth: o.w.Depth, expect: expect,
		})
	}
	if err := s.seed(o); err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	warm := runPhase(s.workers, s.clk, phaseLimit{ops: o.w.WarmupOps})
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed, warm.attempted, warm.firstFail)
	}
	s.history = append(s.history, warm.acked...)
	return s, nil
}

// seed writes the seeded history. Each shard must see its slices in
// time order (anything else lands in the out-of-order buffer), so a
// single server is seeded over one connection and the two-shard fleet
// over two, one per shard's time range.
func (s *session) seed(o runOpts) error {
	const batch = 256
	if o.w.Topo != topoFleet || len(s.workers) < 2 {
		return pipeline(s.ctl, s.history, batch)
	}
	half := len(s.history) / 2 // SeedSlices/2 slices of cellsPerSlice points each
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, part := range [][]point{s.history[:half], s.history[half:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = pipeline(s.workers[i].w, part, batch)
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// ownCPU is the CPU time this process has used, user + system.
func ownCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// snapshot is the outside view of the fleet at one instant.
type snapshot struct {
	cpu    map[string]float64
	serve  map[string]float64 // summed /metrics of the write-taking histserves
	proxy  map[string]float64
	allCPU float64
}

func takeSnapshot(f *fleet) (snapshot, error) {
	var s snapshot
	var err error
	if s.cpu, err = f.cpuByRole(); err != nil {
		return s, err
	}
	for _, v := range s.cpu {
		s.allCPU += v
	}
	if s.serve, err = f.scrape(roleServe); err != nil {
		return s, err
	}
	if s.proxy, err = f.scrape(roleProxy); err != nil {
		return s, err
	}
	return s, nil
}

// runWorkload runs o.sessions independent sessions of the workload —
// each a fresh server set, its own set-up, timed phase and oracle
// check — and reports every metric as the median over the sessions, so
// one unlucky process placement or a disturbed few seconds on the host
// does not decide the run; the calibrated metrics are the median over
// the slices of all sessions. Attempted and failed ops add up.
func (e *env) runWorkload(o runOpts) (*result, error) {
	var all []*result
	for i := 0; i < o.sessions; i++ {
		res, err := e.runSession(o)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i+1, err)
		}
		all = append(all, res)
	}
	res := all[len(all)-1]
	for name := range res.Metrics {
		var vals []float64
		for _, r := range all {
			vals = append(vals, r.Metrics[name])
		}
		res.Metrics[name] = median(vals)
	}
	for _, c := range calibrated {
		var vals []float64
		for _, r := range all {
			for _, sl := range r.cal {
				if v, ok := c.at(sl); ok {
					vals = append(vals, v)
				}
			}
		}
		res.Metrics[c.name] = median(vals)
	}
	res.Metrics["traced.ops_s"] = res.Metrics["ops_s"]
	for _, r := range all[:len(all)-1] {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Qry.N += r.Qry.N
		res.Ins.N += r.Ins.N
		res.Qry.P99OK = res.Qry.P99OK && r.Qry.P99OK
		res.Ins.P99OK = res.Ins.P99OK && r.Ins.P99OK
		if r.FirstFail != "" {
			res.FirstFail = r.FirstFail
		}
	}
	res.FailShare = ratio(float64(res.Failed), float64(res.Attempted))
	return res, nil
}

// runSession is one set-up, one timed phase and the checks after it.
func (e *env) runSession(o runOpts) (*result, error) {
	began := time.Now()
	s, err := e.setup(o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	setup := time.Since(began)
	res := &result{Workload: o.w.Name, Metrics: metrics{}}
	if v, err := s.ctl.roundTrip("VERSION"); err == nil {
		res.Server = strings.TrimPrefix(v, "OK ")
	}

	before, err := takeSnapshot(s.fleet)
	if err != nil {
		return nil, err
	}
	// The timed phase: bursts of reference work with a slice of load
	// between each two. The transaction-time clock runs only under load,
	// so the slice count at the end does not depend on how long the
	// bursts took.
	timed := &tally{}
	var generatorCPU float64
	first, err := e.ref.burst()
	if err != nil {
		return nil, err
	}
	bursts := []speed{first}
	for n := slicesIn(o.phase); n > 0; n-- {
		cpu0, err := s.fleet.cpuSeconds()
		if err != nil {
			return nil, err
		}
		own0 := ownCPU()
		s.clk.tick, s.clk.start = time.Duration(o.w.TickMS)*time.Millisecond, time.Now()
		part := runPhase(s.workers, s.clk, phaseLimit{d: sliceLoad})
		s.clk.base, s.clk.tick = s.clk.now(), 0
		generatorCPU += ownCPU() - own0
		cpu1, err := s.fleet.cpuSeconds()
		if err != nil {
			return nil, err
		}
		next, err := e.ref.burst()
		if err != nil {
			return nil, err
		}
		res.cal = append(res.cal, slice{
			timed: true, ops: float64(part.ops()), secs: part.elapsed.Seconds(), cpu: cpu1 - cpu0,
			qryP50US: p50US(part.lat[opQry]), insP50US: p50US(part.lat[opIns]),
			index: between(bursts[len(bursts)-1], next).index(),
		})
		bursts = append(bursts, next)
		timed.merge(part)
		timed.elapsed += part.elapsed
	}
	after, err := takeSnapshot(s.fleet)
	if err != nil {
		return nil, err
	}
	rss, err := s.fleet.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	lag := s.fleet.followerLag()
	s.history = append(s.history, timed.acked...)
	total := &tally{}
	total.merge(timed)

	ins := timed.lat[opIns]
	if o.w.InsPct == 0 {
		ins = nil
		for n := 0; n < epilogueChunks; n++ {
			ep := s.insertOnly(1, epilogueIns/epilogueChunks/o.conns)
			total.merge(ep)
			ins = append(ins, ep.lat[opIns]...)
			next, err := e.ref.burst()
			if err != nil {
				return nil, err
			}
			res.cal = append(res.cal, slice{insP50US: p50US(ep.lat[opIns]), index: between(bursts[len(bursts)-1], next).index()})
			bursts = append(bursts, next)
		}
	}

	checks := buildChecks(o.seed, s.clk.base, checkQueries)
	checkOracle(s.ctl, s.history, checks, total)

	// Crash drill: SIGKILL the server that owns the write frontier and
	// time its restart. A durable server first takes a checkpoint and a
	// fixed tail of acked inserts, and must afterwards answer the same
	// checks from its directory alone; an in-memory one only shows what a
	// bare process start costs.
	durable := o.w.Topo == topoDurable
	if durable {
		total.attempted++
		if r, err := s.ctl.roundTrip("CHECKPOINT"); err != nil || !strings.HasPrefix(r, "OK") {
			total.fail(1, "CHECKPOINT answered %q: %v", r, err)
		}
		total.merge(s.insertOnly(o.w.Depth, restartTail/o.conns))
	}
	restart, err := s.fleet.writer.restart()
	if err != nil {
		return nil, err
	}
	if durable {
		s.ctl.close()
		if s.ctl, err = dial(s.fleet.entry.addr); err != nil {
			return nil, err
		}
		checkOracle(s.ctl, s.history, checks, total)
	}

	res.Attempted, res.Failed, res.FirstFail = total.attempted, total.failed, total.firstFail
	res.Qry, res.Ins = digestOf(timed.lat[opQry]), digestOf(ins)
	res.Slices = s.clk.base

	ops := float64(timed.ops())
	nQry, nIns := float64(len(timed.lat[opQry])), float64(len(timed.lat[opIns]))
	secs := timed.elapsed.Seconds()
	m := res.Metrics
	// ops_s, the p50s and cpu_s_per_kop are the run's: runWorkload takes
	// them from the slices of all sessions.
	m["raw.ops_s"] = ops / secs
	m["raw.qry_p50_us"], m["qry_p99_us"] = res.Qry.P50US, res.Qry.P99US
	m["raw.ins_p50_us"], m["ins_p99_us"] = res.Ins.P50US, res.Ins.P99US
	m["raw.cpu_s_per_kop"] = ratio(after.allCPU-before.allCPU, ops/1000)
	m["rss_mb"] = rss
	m["raw.setup_s"] = setup.Seconds()
	m["setup_s"] = setup.Seconds() / first.index()
	m["restart_s"] = restart.Seconds()
	var spins, echoes, fars, indexes []float64
	for _, b := range bursts {
		spins, echoes, fars = append(spins, b.spin), append(echoes, b.echo), append(fars, b.far)
		indexes = append(indexes, b.index())
	}
	m["machine.speed_index"] = median(indexes)
	m["machine.spin_ms"] = 1e3 * median(spins)
	m["machine.echo_us"] = 1e6 * median(echoes) / echoTrips
	m["machine.far_echo_us"] = 1e6 * median(fars) / farTrips

	delta := func(a, b map[string]float64, name string) float64 { return a[name] - b[name] }
	sd := func(name string) float64 { return delta(after.serve, before.serve, name) }
	pd := func(name string) float64 { return delta(after.proxy, before.proxy, name) }
	m["wal_bytes_per_ins"] = ratio(sd("histcube_wal_appended_bytes_total"), nIns)
	m["core.run_cells_per_qry"] = ratio(sd("histcube_ecube_cells_touched_total"), nQry)
	m["core.run_conversions_per_qry"] = ratio(sd(`histcube_ecube_conversions_total{trigger="query"}`), nQry)
	m["core.run_copy_cells_per_ins"] = ratio(sd("histcube_copy_forced_total")+sd("histcube_copy_ahead_total"), nIns)
	m["core.run_ooo_share"] = ratio(sd("histcube_ooo_updates_total"), nIns)
	m["wal.fsyncs_per_ins"] = ratio(sd("histcube_wal_fsyncs_total"), nIns)
	m["wal.checkpoints"] = sd("histcube_wal_checkpoints_total")
	m["wal.checkpoint_stall_share"] = sd("histcube_wal_checkpoint_duration_seconds_sum") / secs
	m["wal.segments"] = after.serve["histcube_wal_segments"]
	m["histserve.lock_wait_share"] = sd("histcube_lock_wait_seconds_total") / (float64(o.conns) * secs)
	m["histserve.cpu_s_per_kop"] = ratio(delta(after.cpu, before.cpu, roleServe)+delta(after.cpu, before.cpu, roleFollower), ops/1000)
	m["histserve.gc_cycles"] = sd("histcube_runtime_gc_cycles_total")
	m["histserve.heap_mb"] = after.serve["histcube_runtime_heap_bytes"] / (1 << 20)
	m["histserve.flushes_per_op"] = ratio(float64(timed.reads), float64(timed.attempted))
	m["histproxy.cpu_share"] = ratio(delta(after.cpu, before.cpu, roleProxy), after.allCPU-before.allCPU)
	m["histproxy.legs_per_qry"] = ratio(pd("histproxy_fanout_legs_total"), nQry)
	m["histproxy.hedged_share"] = ratio(pd("histproxy_hedged_reads"), nQry)
	m["histproxy.partials"] = pd("histproxy_partial_answers_total")
	m["histproxy.failovers"] = pd("histproxy_failovers_total")
	m["repl.lag_lsn_max"] = lag
	m["client.cpu_s_per_kop"] = ratio(generatorCPU, ops/1000)
	m["client.cpu_share"] = generatorCPU / (float64(o.conns) * secs)
	return res, nil
}

// insertOnly switches the workload's connections to 100% inserts at
// window depth depth and drives n per connection at the stopped
// frontier. Nothing runs the original mix afterwards.
func (s *session) insertOnly(depth, n int) *tally {
	for _, k := range s.workers {
		k.s.insPct, k.depth = 100, depth
	}
	t := runPhase(s.workers, s.clk, phaseLimit{ops: n})
	s.history = append(s.history, t.acked...)
	return t
}

// followerLag is the largest replica_lag_lsn any follower reports.
func (f *fleet) followerLag() float64 {
	var worst float64
	for _, p := range f.byRole(roleFollower) {
		c, err := dial(p.addr)
		if err != nil {
			continue
		}
		stats, err := c.roundTrip("STATS")
		c.close()
		if err != nil {
			continue
		}
		for _, kv := range strings.Fields(stats) {
			if v, ok := strings.CutPrefix(kv, "replica_lag_lsn="); ok {
				if n, err := strconv.ParseFloat(v, 64); err == nil && n > worst {
					worst = n
				}
			}
		}
	}
	return worst
}
