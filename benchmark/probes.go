package main

// In-process probes: the exported functions of core, wal, shard, trace
// and perf called directly with fixed op counts, so each layer has a
// cost of its own next to the wire numbers.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"histcube/internal/core"
	"histcube/internal/perf"
	"histcube/internal/shard"
	"histcube/internal/trace"
	"histcube/internal/wal"
)

const (
	probeSlices   = 256 // x cellsPerSlice inserts build the probed cube
	probeQueries  = 20000
	probeWALRecs  = 5000 // also the recovery tail and the streamed records
	probeFsyncs   = 2000
	probeTightOps = 200000
)

// perOp is the mean cost of n calls in the given unit.
func perOp(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

func (h *harness) scale(n int) int {
	if h.smoke {
		return max(1, n/10)
	}
	return n
}

// runProbes fills m with every in-process per-layer metric.
func (h *harness) runProbes(m metrics) error {
	cube, err := h.probeCore(m)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	if err := h.probeWAL(m, cube); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := h.probeShard(m); err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	h.probeTracePerf(m)
	return nil
}

func (h *harness) probeCore(m metrics) (*core.Cube, error) {
	cube, err := newCube()
	if err != nil {
		return nil, err
	}
	nSlices := h.scale(probeSlices)
	pts := seedPoints(h.seed, nSlices)
	coords := make([]int, 2)
	began := time.Now()
	for _, p := range pts {
		coords[0], coords[1] = p.x, p.y
		if err := cube.Insert(p.t, coords, float64(p.v)); err != nil {
			return nil, err
		}
	}
	m["core.insert_us"] = perOp(time.Since(began), len(pts), time.Microsecond)
	st := cube.Stats()
	m["core.copy_cells_per_ins"] = float64(st.ForcedCopies+st.CopyAheadWork) / float64(len(pts))
	m["core.cache_cells_per_ins"] = float64(st.CacheAccesses) / float64(len(pts))

	pool := buildPool(h.seed, nSlices, poolSize)
	ranges := make([]core.Range, len(pool))
	for i, q := range pool {
		ranges[i] = q.coreRange()
	}
	pass := func(n int) (time.Duration, core.Stats, error) {
		before := cube.Stats()
		began := time.Now()
		for i := 0; i < n; i++ {
			if _, err := cube.Query(ranges[i%len(ranges)]); err != nil {
				return 0, core.Stats{}, err
			}
		}
		took := time.Since(began)
		after := cube.Stats()
		after.ECubeCellsTouched -= before.ECubeCellsTouched
		after.ECubeConversions -= before.ECubeConversions
		return took, after, nil
	}
	took, d, err := pass(len(ranges)) // every pooled query once, on unconverted slices
	if err != nil {
		return nil, err
	}
	m["core.query_cold_us"] = perOp(took, len(ranges), time.Microsecond)
	m["core.cells_per_qry_cold"] = float64(d.ECubeCellsTouched) / float64(len(ranges))
	m["core.conversions_per_qry_cold"] = float64(d.ECubeConversions) / float64(len(ranges))
	for i := 0; i < 64 && d.ECubeConversions > 0; i++ { // until the pool's cells are all PS
		if _, d, err = pass(len(ranges)); err != nil {
			return nil, err
		}
	}
	n := h.scale(probeQueries)
	if took, d, err = pass(n); err != nil {
		return nil, err
	}
	m["core.query_conv_us"] = perOp(took, n, time.Microsecond)
	m["core.cells_per_qry_conv"] = float64(d.ECubeCellsTouched) / float64(n)

	var snap bytes.Buffer
	began = time.Now()
	if err := cube.Save(&snap); err != nil {
		return nil, err
	}
	m["core.save_ms"] = perOp(time.Since(began), 1, time.Millisecond)
	m["core.snapshot_bytes_per_slice"] = float64(snap.Len()) / float64(nSlices)
	began = time.Now()
	if _, err := core.Load(bytes.NewReader(snap.Bytes())); err != nil {
		return nil, err
	}
	m["core.load_ms"] = perOp(time.Since(began), 1, time.Millisecond)
	return cube, nil
}

// probeWAL times appends under both fsync policies, then a checkpoint of
// cube, streaming of a fixed tail, and recovery from checkpoint + tail.
func (h *harness) probeWAL(m metrics, cube *core.Cube) error {
	open := func(policy wal.SyncPolicy) (*wal.Log, string, error) {
		dir, err := h.env.newDir("walprobe")
		if err != nil {
			return nil, "", err
		}
		_, log, _, err := wal.Recover(dir, wal.Options{Sync: policy}, newCube)
		return log, dir, err
	}
	frontier := int64(h.scale(probeSlices))
	rng := subRand(h.seed, subSeedConn)
	appendN := func(log *wal.Log, n int) (time.Duration, error) {
		coords := make([]int, 2)
		began := time.Now()
		for i := 0; i < n; i++ {
			p := randPoint(rng, frontier)
			coords[0], coords[1] = p.x, p.y
			if _, err := log.Append(core.Op{Kind: core.OpInsert, Time: p.t, Coords: coords, Value: float64(p.v)}); err != nil {
				return 0, err
			}
		}
		return time.Since(began), nil
	}

	synced, _, err := open(wal.SyncAlways)
	if err != nil {
		return err
	}
	n := h.scale(probeFsyncs)
	took, err := appendN(synced, n)
	if cerr := synced.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["wal.append_fsync_us"] = perOp(took, n, time.Microsecond)

	log, dir, err := open(wal.SyncNever)
	if err != nil {
		return err
	}
	n = h.scale(probeWALRecs)
	ckpt, err := h.probeOpenLog(m, log, cube, n, appendN)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	began := time.Now()
	_, relog, res, err := wal.Recover(dir, wal.Options{Sync: wal.SyncNever}, newCube)
	if err != nil {
		return err
	}
	m["wal.recover_ms"] = perOp(time.Since(began), 1, time.Millisecond)
	if res.Replayed != n || res.CheckpointLSN != ckpt {
		return fmt.Errorf("recovery replayed %d records from checkpoint %d, want %d from %d", res.Replayed, res.CheckpointLSN, n, ckpt)
	}
	return relog.Close()
}

// probeOpenLog times n unsynced appends, a checkpoint of cube, and the
// streaming of a further n-record tail; it returns the checkpoint LSN.
func (h *harness) probeOpenLog(m metrics, log *wal.Log, cube *core.Cube, n int, appendN func(*wal.Log, int) (time.Duration, error)) (uint64, error) {
	took, err := appendN(log, n)
	if err != nil {
		return 0, err
	}
	m["wal.append_us"] = perOp(took, n, time.Microsecond)
	m["wal.fsync_us"] = m["wal.append_fsync_us"] - m["wal.append_us"]
	m["wal.bytes_per_rec"] = float64(log.AppendedBytes()) / float64(n)

	began := time.Now()
	ckpt, err := log.Checkpoint(cube.Save)
	if err != nil {
		return 0, err
	}
	m["wal.checkpoint_ms"] = perOp(time.Since(began), 1, time.Millisecond)
	if _, err := appendN(log, n); err != nil {
		return 0, err
	}
	st, err := log.SubscribeFrom(ckpt + 1)
	if err != nil {
		return 0, err
	}
	began = time.Now()
	for i := 0; i < n; i++ {
		if _, err := st.Next(context.Background()); err != nil {
			return 0, err
		}
	}
	m["wal.stream_rec_us"] = perOp(time.Since(began), n, time.Microsecond)
	return ckpt, nil
}

func (h *harness) probeShard(m metrics) error {
	smap, err := shard.Parse("127.0.0.1:1=0-32,127.0.0.1:2=33-")
	if err != nil {
		return err
	}
	n := h.scale(probeTightOps)
	var legs []shard.Leg
	began := time.Now()
	for i := 0; i < n; i++ {
		legs = smap.Route(int64(1+i%32), int64(40+i%32))
	}
	m["shard.route_ns"] = perOp(time.Since(began), n, time.Nanosecond)
	if len(legs) != 2 {
		return fmt.Errorf("2-shard map routed a spanning query to %d legs", len(legs))
	}
	parts := []shard.Partial{{Leg: legs[1], Value: 2}, {Leg: legs[0], Value: 1}}
	complete := 0
	began = time.Now()
	for i := 0; i < n; i++ {
		if shard.Merge(parts).Complete {
			complete++
		}
	}
	m["shard.merge_ns"] = perOp(time.Since(began), n, time.Nanosecond)
	if complete != n {
		return fmt.Errorf("%d of %d two-leg merges were complete", complete, n)
	}
	return nil
}

// probeTracePerf prices the always-on observability every request
// pays: a request-shaped span tree and one latency-window record.
func (h *harness) probeTracePerf(m metrics) {
	n := h.scale(probeTightOps)
	began := time.Now()
	for i := 0; i < n; i++ {
		root := trace.New("histserve.query")
		q := root.StartChild("histcube.query")
		q.SetInt("time_lo", 1)
		q.SetInt("time_hi", 2)
		q.Add(trace.CellsTouched, 8)
		q.StartChild("histcube.ooo_buffer").End()
		q.End()
		root.End()
	}
	m["trace.span_ns"] = perOp(time.Since(began), n, time.Nanosecond)
	rec := perf.New(10 * time.Second)
	began = time.Now()
	for i := 0; i < n; i++ {
		rec.Record(time.Duration(i))
	}
	m["perf.record_ns"] = perOp(time.Since(began), n, time.Nanosecond)
}
