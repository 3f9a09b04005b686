package main

// The benchmark's own spans. Stage timers inside histserve/histproxy
// are a later issue, so the traced run replays the workload's op stream
// in process — parse, wal.Log.Append, core.Cube.Insert/Query, format —
// and records a span at each of those call boundaries: bench.request
// around bench.parse, wal.append, core.insert | core.query and
// bench.reply. One trace id per request, one request in sampleEvery
// sampled, spans kept in memory and written out when the run ends.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"histcube/internal/core"
	"histcube/internal/dims"
	"histcube/internal/trace"
	"histcube/internal/wal"
)

const (
	sampleEvery    = 16
	replayOps      = 20000
	replayOpsFsync = 4000 // every insert of a durable replay pays an fsync
	replayPerSlice = 256  // ops between ticks of the replay's synthetic clock
)

// replay is the in-process request pipeline.
type replay struct {
	cube *core.Cube
	log  *wal.Log // nil for an in-memory workload
}

// stage opens one of the benchmark's own spans under root.
func stage(root *trace.Span, name string) *trace.Span {
	//histlint:ignore metricname issue 11 names the benchmark's own spans bench.*, wal.append and core.*; they never reach a server's EXPLAIN or slow log
	return root.StartChild(name)
}

// do answers one request line the way histserve would, under root (nil
// when the request is not sampled; every span method is nil-safe).
func (r *replay) do(line string, root *trace.Span) (string, error) {
	sp := stage(root, "bench.parse")
	f := strings.Fields(line)
	nums := make([]int64, len(f)-1)
	for i, s := range f[1:] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return "", err
		}
		nums[i] = n
	}
	// INS t x y v | QRY tlo thi x0 y0 x1 y1
	ins := f[0] == "INS" && len(nums) == 4
	if !ins && (f[0] != "QRY" || len(nums) != 6) {
		return "", fmt.Errorf("replay cannot parse %q", line)
	}
	raw := nums[2:]
	if ins {
		raw = nums[1:3]
	}
	coords := make([]int, len(raw))
	for i, n := range raw {
		c, ok := dims.ToCoord(n)
		if !ok {
			return "", fmt.Errorf("coordinate %d overflows", n)
		}
		coords[i] = c
	}
	sp.End()

	if !ins {
		sp = stage(root, "core.query")
		v, err := r.cube.Query(core.Range{TimeLo: nums[0], TimeHi: nums[1], Lo: coords[:2], Hi: coords[2:]})
		sp.End()
		if err != nil {
			return "", err
		}
		sp = stage(root, "bench.reply")
		reply := formatAnswer(v)
		sp.End()
		return reply, nil
	}
	val := float64(nums[3])
	if r.log != nil {
		sp = stage(root, "wal.append")
		_, err := r.log.Append(core.Op{Kind: core.OpInsert, Time: nums[0], Coords: coords, Value: val})
		sp.End()
		if err != nil {
			return "", err
		}
	}
	sp = stage(root, "core.insert")
	err := r.cube.Insert(nums[0], coords, val)
	sp.End()
	if err != nil {
		return "", err
	}
	stage(root, "bench.reply").End()
	return "OK", nil
}

// replayWorkload runs the workload's seeding and connection-0 op stream
// through the in-process pipeline and returns the sampled request
// trees. The clock is synthetic: a new slice every replayPerSlice ops
// for a live workload.
func (h *harness) replayWorkload(w *workloadSpec) ([]*trace.SpanJSON, error) {
	cube, err := newCube()
	if err != nil {
		return nil, err
	}
	r := &replay{cube: cube}
	n := h.scale(replayOps)
	if w.Topo != topoMemory {
		dir, err := h.env.newDir("replay")
		if err != nil {
			return nil, err
		}
		if _, r.log, _, err = wal.Recover(dir, wal.Options{Sync: wal.SyncAlways}, newCube); err != nil {
			return nil, err
		}
		n = h.scale(replayOpsFsync)
	}
	roots, err := r.run(w, h.seed, n)
	if r.log != nil {
		if cerr := r.log.Close(); err == nil {
			err = cerr
		}
	}
	return roots, err
}

func (r *replay) run(w *workloadSpec, seed int64, n int) ([]*trace.SpanJSON, error) {
	for _, p := range seedPoints(seed, w.SeedSlices) {
		if err := r.cube.Insert(p.t, []int{p.x, p.y}, float64(p.v)); err != nil {
			return nil, err
		}
	}
	var pool []query
	if w.Query == queryPool {
		pool = buildPool(seed, w.SeedSlices, poolSize)
	}
	s := newStream(w, seed, 0, pool)
	var roots []*trace.SpanJSON
	var line []byte
	for i := 0; i < w.WarmupOps+n; i++ {
		frontier := int64(w.SeedSlices)
		if w.TickMS > 0 && i > w.WarmupOps {
			frontier += int64((i - w.WarmupOps) / replayPerSlice)
		}
		line, _ = s.next(line[:0], frontier)
		var root *trace.Span
		if i >= w.WarmupOps && i%sampleEvery == 0 {
			//histlint:ignore metricname see stage
			root = trace.New("bench.request")
		}
		if _, err := r.do(string(line), root); err != nil {
			return nil, err
		}
		if root != nil {
			root.End()
			roots = append(roots, root.JSON())
		}
	}
	return roots, nil
}

// selfNS is a span's self time: its duration minus the part of its
// interval that its children cover (overlapping children are not
// counted twice, and a child is clipped to its parent).
func selfNS(s *trace.SpanJSON) int64 {
	type iv struct{ lo, hi int64 }
	lo, hi := s.StartNano, s.StartNano+s.DurationNS
	var kids []iv
	for _, c := range s.Children {
		k := iv{max(c.StartNano, lo), min(c.StartNano+c.DurationNS, hi)}
		if k.hi > k.lo {
			kids = append(kids, k)
		}
	}
	slices.SortFunc(kids, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered, end int64 = 0, lo
	for _, k := range kids {
		if k.hi > end {
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
	}
	return s.DurationNS - covered
}

// selfStat is the self time of every span with one name.
type selfStat struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfUS float64 `json:"self_us_mean"`
	total  int64
}

// selfTimes walks the trees and sums self time per span name.
func selfTimes(roots []*trace.SpanJSON) []selfStat {
	acc := map[string]*selfStat{}
	var walk func(s *trace.SpanJSON)
	walk = func(s *trace.SpanJSON) {
		st := acc[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			acc[s.Name] = st
		}
		st.Spans++
		st.total += selfNS(s)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	out := make([]selfStat, 0, len(acc))
	for _, st := range acc {
		st.SelfUS = float64(st.total) / float64(st.Spans) / 1e3
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfStat) int { return strings.Compare(a.Name, b.Name) })
	return out
}
