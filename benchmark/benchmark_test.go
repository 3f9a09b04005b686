package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"histcube/internal/trace"
)

// The calibration reference re-executes this binary as its echo child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == refServerArg {
		refServerMain()
		return
	}
	os.Exit(m.Run())
}

// A machine that runs everything 25% slower moves the raw numbers and
// the bursts alike, and the calibrated metrics not at all; a slower
// server moves only the load, so it shows in full.
func TestCalibrationCancelsMachineSpeedOnly(t *testing.T) {
	ref := speed{nominalSpinS, nominalEchoS, nominalFarS}
	if got := ref.index(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("index on the reference machine = %g, want 1", got)
	}
	slow := speed{1.25 * nominalSpinS, 1.25 * nominalEchoS, 1.25 * nominalFarS}
	if got := between(ref, slow).index(); math.Abs(got-1.125) > 1e-12 {
		t.Errorf("index between a 1.0 and a 1.25 burst = %g, want 1.125", got)
	}
	at := func(sl slice) map[string]float64 {
		out := map[string]float64{}
		for _, c := range calibrated {
			if v, ok := c.at(sl); ok {
				out[c.name] = v
			}
		}
		return out
	}
	base := at(slice{timed: true, ops: 30000, secs: 1, cpu: 0.75, qryP50US: 40, insP50US: 36, index: 1})
	drift := at(slice{timed: true, ops: 24000, secs: 1, cpu: 0.75, qryP50US: 50, insP50US: 45, index: 1.25})
	worse := at(slice{timed: true, ops: 24000, secs: 1, cpu: 0.75, qryP50US: 50, insP50US: 45, index: 1})
	for _, c := range calibrated {
		if math.Abs(drift[c.name]-base[c.name]) > 1e-9*base[c.name] {
			t.Errorf("%s: %g on the reference machine, %g on one 25%% slower", c.name, base[c.name], drift[c.name])
		}
		//histlint:ignore nofloateq exact inputs; any difference at all is what is asserted
		if worse[c.name] == base[c.name] {
			t.Errorf("%s does not move when the servers get slower on the same machine", c.name)
		}
	}
	// The untimed insert epilogue of a read-only workload carries an
	// insert latency and nothing else.
	if got := at(slice{insP50US: 45, index: 1.25}); len(got) != 1 || got["ins_p50_us"] != 36 {
		t.Errorf("epilogue slice reports %v, want only ins_p50_us = 36", got)
	}
}

// Same seed, same frontier sequence: byte-identical op stream; another
// seed: a different one.
func TestStreamIsAFunctionOfSeed(t *testing.T) {
	gen := func(w *workloadSpec, seed int64) []byte {
		var pool []query
		if w.Query == queryPool {
			pool = buildPool(seed, w.SeedSlices, poolSize)
		}
		var out []byte
		for conn := 0; conn < 2; conn++ {
			s := newStream(w, seed, conn, pool)
			for i := 0; i < 5000; i++ {
				out, _ = s.next(out, int64(w.SeedSlices+i/100))
			}
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := gen(w, 7), gen(w, 7), gen(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
		if !bytes.Equal(seedLines(7, w.SeedSlices), seedLines(7, w.SeedSlices)) {
			t.Errorf("%s: seeding is not deterministic", w.Name)
		}
	}
}

func seedLines(seed int64, slices int) []byte {
	var out []byte
	for _, p := range seedPoints(seed, slices) {
		out = p.appendLine(out)
	}
	return out
}

// The generated shapes the workloads promise: fleet queries span both
// shards, recent queries stay historic and near the frontier.
func TestQueryShapes(t *testing.T) {
	for _, name := range []string{"mixed_live", "fleet_mixed"} {
		w := findWorkload(name)
		s := newStream(w, 1, 0, nil)
		s.insPct = 0
		frontier := int64(w.SeedSlices + 300)
		for i := 0; i < 2000; i++ {
			line, _ := s.next(nil, frontier)
			var q query
			if _, err := sscanQuery(line, &q); err != nil {
				t.Fatal(err)
			}
			if q.tlo < 1 || q.tlo > q.thi || q.thi > frontier || q.x0 > q.x1 || q.y1 >= dimSize {
				t.Fatalf("%s: malformed query %s", name, line)
			}
			half := int64(w.SeedSlices / 2)
			if w.Query == querySpan && (q.tlo > half || q.thi <= half) {
				t.Fatalf("fleet query %s does not span the shard boundary %d", line, half)
			}
			if w.Query == queryRecent && (q.thi >= frontier || q.thi < frontier-recentSlices-1) {
				t.Fatalf("recent query %s is not just behind frontier %d", line, frontier)
			}
		}
	}
}

func sscanQuery(line []byte, q *query) (int, error) {
	return fmt.Sscanf(string(line), "QRY %d %d %d %d %d %d", &q.tlo, &q.thi, &q.x0, &q.y0, &q.x1, &q.y1)
}

func TestOracleAnswer(t *testing.T) {
	pts := []point{{t: 1, x: 0, y: 0, v: 3}, {t: 2, x: 5, y: 5, v: 4}, {t: 2, x: 6, y: 5, v: 5}, {t: 3, x: 5, y: 5, v: 6}}
	for _, c := range []struct {
		q    query
		want float64
	}{
		{query{1, 3, 0, 0, 63, 63}, 18},
		{query{2, 2, 5, 5, 5, 5}, 4},
		{query{2, 3, 5, 5, 6, 5}, 15},
		{query{4, 9, 0, 0, 63, 63}, 0},
	} {
		if got := answer(pts, c.q); got != c.want {
			t.Errorf("answer(%+v) = %g, want %g", c.q, got, c.want)
		}
	}
	// A reply that differs from the oracle fails the op.
	expect := []string{"18"}
	tl := &tally{}
	account(tl, op{kind: opQry, pool: 0}, []byte("18"), expect)
	account(tl, op{kind: opQry, pool: 0}, []byte("17"), expect)
	account(tl, op{kind: opQry, pool: -1}, []byte("PARTIAL 3 coverage=0.5"), expect)
	account(tl, op{kind: opIns, pool: -1}, []byte("ERR sealed"), expect)
	if tl.failed != 3 {
		t.Errorf("failed = %d, want 3 (mismatch, PARTIAL, ERR)", tl.failed)
	}
}

// p50/p99 by nearest rank, and p99 quoted as supported only with at
// least ten samples beyond it.
func TestDigest(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[len(ns)-1-i] = int64(i+1) * 1000 // 1..1000 us, descending
	}
	d := digestOf(ns)
	if d.N != 1000 || d.P50US != 501 || d.P99US != 991 || !d.P99OK {
		t.Errorf("digest of 1..1000us = %+v", d)
	}
	if d := digestOf(ns[:999]); d.P99OK {
		t.Errorf("999 samples leave %g beyond p99; it must not count as supported", 999*0.01)
	}
	if d := digestOf(nil); d.N != 0 || d.P50US != 0 || d.P99OK {
		t.Errorf("empty digest = %+v", d)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

// Self time is duration minus the union of the children's intervals,
// children clipped to the parent.
func TestSelfTime(t *testing.T) {
	sp := func(name string, start, dur int64, kids ...*trace.SpanJSON) *trace.SpanJSON {
		return &trace.SpanJSON{Name: name, StartNano: start, DurationNS: dur, Children: kids}
	}
	root := sp("bench.request", 1000, 100,
		sp("core.query", 1020, 30, sp("inner", 1025, 10)), // [20,50)
		sp("bench.parse", 1010, 20),                       // [10,30) overlaps core.query by 10
		sp("bench.reply", 1090, 30),                       // [90,120) clipped to [90,100)
	)
	if got := selfNS(root); got != 100-(40+10) {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := selfNS(root.Children[0]); got != 20 {
		t.Errorf("core.query self = %d, want 20", got)
	}
	stats := selfTimes([]*trace.SpanJSON{root, sp("bench.request", 0, 10)})
	want := map[string]selfStat{
		"bench.request": {Spans: 2, SelfUS: 0.030},
		"core.query":    {Spans: 1, SelfUS: 0.020},
		"inner":         {Spans: 1, SelfUS: 0.010},
		"bench.parse":   {Spans: 1, SelfUS: 0.020},
		"bench.reply":   {Spans: 1, SelfUS: 0.030},
	}
	if len(stats) != len(want) {
		t.Fatalf("got %d span names, want %d", len(stats), len(want))
	}
	for _, st := range stats {
		if w := want[st.Name]; st.Spans != w.Spans || st.SelfUS != w.SelfUS {
			t.Errorf("%s: %d spans %g us, want %d spans %g us", st.Name, st.Spans, st.SelfUS, w.Spans, w.SelfUS)
		}
	}
}

func TestCompareFlagsOnlyPairsBeyondTheirBound(t *testing.T) {
	mk := func(ops, rss float64) *report {
		r := &report{Untraced: map[string]*result{}}
		for _, w := range workloads {
			r.Untraced[w.Name] = &result{Metrics: metrics{"ops_s": ops, "rss_mb": rss}}
		}
		return r
	}
	base := mk(1000, 100)
	if !compareReports(base, mk(800, 110), false) {
		t.Error("20% fewer ops and 10% more memory are inside the 25% and 15% bounds")
	}
	if compareReports(base, mk(700, 100), false) {
		t.Error("30% fewer ops must exceed the 25% bound")
	}
	if compareReports(base, mk(1000, 120), false) {
		t.Error("20% more memory must exceed the 15% bound")
	}
	if !compareReports(base, mk(1400, 100), false) {
		t.Error("a candidate that is better must pass a directional compare")
	}
	if compareReports(base, mk(1400, 100), true) {
		t.Error("two runs of one commit 40% apart must fail the symmetric compare")
	}
	worse := mk(1000, 100)
	worse.Untraced["fleet_mixed"].FailShare = 0.002
	if compareReports(base, worse, false) {
		t.Error("fail_share above +0.001 must be flagged")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is generated from spec.go and obeys the driver's
// limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `benchmark/run.sh --spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) != 4 {
		t.Errorf("%d workloads, want 4", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes at most 128", len(perLayer))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("%s: a per-layer metric names its layer and the end-to-end metric it should move", m.Name)
		}
	}
}

// A --smoke set emits exactly the names in the spec: every end-to-end
// metric from each untraced run, every per-layer metric from each
// traced run with the ladder, and no name the spec does not list.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real servers")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/histserve", "./cmd/histproxy")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the servers: %v\n%s", err, out)
	}
	e, err := newEnv(bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	h := &harness{env: e, outDir: t.TempDir(), seed: 3, seconds: 3, smoke: true, conns: 2}
	known := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		known[m.Name] = true
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			var res *result
			list := endToEnd
			if traced {
				list = perLayer
				res, err = h.tracedRun(w, true)
			} else {
				res, err = e.runWorkload(h.opts(w))
			}
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%t: %d of %d ops failed: %s", w.Name, traced, res.Failed, res.Attempted, res.FirstFail)
			}
			for _, m := range list {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%t: metric %s not emitted", w.Name, traced, m.Name)
				}
			}
			for name := range res.Metrics {
				if !known[name] {
					t.Errorf("%s traced=%t: emitted %s, which the spec does not list", w.Name, traced, name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, m.Name, res.Metrics[m.Name])
					}
				}
			}
		}
	}
}
