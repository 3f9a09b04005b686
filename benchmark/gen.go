package main

// Input generation and the oracle. Everything the servers see is a
// function of (--seed, connection index, op index, frontier time); the
// servers receive only the generated lines. Values are small integers,
// so every SUM is exact in float64 whatever order shards add it in and
// a naive scan of the acked points must reproduce each reply bit for
// bit.

import (
	"math/rand"
	"strconv"
)

const (
	dimSize       = 64 // cube is -dims 64,64
	cellsPerSlice = 64 // seeded upserts per slice
	recentSlices  = 64 // queryRecent/querySpan stay this close to the frontier
)

type point struct {
	t    int64
	x, y int
	v    int64
}

type query struct {
	tlo, thi       int64
	x0, y0, x1, y1 int
}

func (q query) appendLine(b []byte) []byte {
	b = append(b, "QRY "...)
	b = strconv.AppendInt(b, q.tlo, 10)
	for _, n := range [...]int64{q.thi, int64(q.x0), int64(q.y0), int64(q.x1), int64(q.y1)} {
		b = append(b, ' ')
		b = strconv.AppendInt(b, n, 10)
	}
	return append(b, '\n')
}

func (p point) appendLine(b []byte) []byte {
	b = append(b, "INS "...)
	b = strconv.AppendInt(b, p.t, 10)
	for _, n := range [...]int64{int64(p.x), int64(p.y), p.v} {
		b = append(b, ' ')
		b = strconv.AppendInt(b, n, 10)
	}
	return append(b, '\n')
}

func randPoint(rng *rand.Rand, t int64) point {
	return point{t: t, x: rng.Intn(dimSize), y: rng.Intn(dimSize), v: 1 + rng.Int63n(9)}
}

func randBox(rng *rand.Rand, q *query) {
	q.x0 = rng.Intn(dimSize)
	q.x1 = q.x0 + rng.Intn(dimSize-q.x0)
	q.y0 = rng.Intn(dimSize)
	q.y1 = q.y0 + rng.Intn(dimSize-q.y0)
}

// Sub-seeds keep the seeding, pool, check and per-connection streams
// independent of each other while all deriving from --seed.
const (
	subSeedData  = 1
	subSeedPool  = 2
	subSeedCheck = 3
	subSeedConn  = 16 // + connection index
)

func subRand(seed int64, sub int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(sub)))
}

// seedPoints is the history written during set-up: slices 1..slices in
// transaction-time order.
func seedPoints(seed int64, slices int) []point {
	rng := subRand(seed, subSeedData)
	pts := make([]point, 0, slices*cellsPerSlice)
	for t := int64(1); t <= int64(slices); t++ {
		for i := 0; i < cellsPerSlice; i++ {
			pts = append(pts, randPoint(rng, t))
		}
	}
	return pts
}

// buildPool returns n historic queries over slices 1..slices-1 (the
// last seeded slice is still open, so it is left out).
func buildPool(seed int64, slices, n int) []query {
	rng := subRand(seed, subSeedPool)
	pool := make([]query, n)
	for i := range pool {
		q := &pool[i]
		q.tlo = 1 + rng.Int63n(int64(slices)-1)
		q.thi = q.tlo + rng.Int63n(int64(slices)-q.tlo)
		randBox(rng, q)
	}
	return pool
}

// buildChecks returns the oracle-check queries over the whole history
// 1..frontier.
func buildChecks(seed, frontier int64, n int) []query {
	rng := subRand(seed, subSeedCheck)
	qs := make([]query, n)
	for i := range qs {
		q := &qs[i]
		q.tlo = 1 + rng.Int63n(frontier)
		q.thi = q.tlo + rng.Int63n(frontier-q.tlo+1)
		randBox(rng, q)
	}
	return qs
}

// answer is the naive oracle: a scan of every acked point.
func answer(pts []point, q query) float64 {
	var sum int64
	for _, p := range pts {
		if p.t >= q.tlo && p.t <= q.thi && p.x >= q.x0 && p.x <= q.x1 && p.y >= q.y0 && p.y <= q.y1 {
			sum += p.v
		}
	}
	return float64(sum)
}

type opKind uint8

const (
	opQry opKind = iota
	opIns
	numKinds
)

// op describes one generated line: what to fold into the oracle when
// it is acked, or which pooled answer the reply must equal.
type op struct {
	kind opKind
	pt   point // opIns
	pool int   // opQry from the pool, else -1
}

// stream is one connection's op generator.
type stream struct {
	w      *workloadSpec
	rng    *rand.Rand
	pool   []query
	insPct int
}

func newStream(w *workloadSpec, seed int64, conn int, pool []query) *stream {
	return &stream{w: w, rng: subRand(seed, subSeedConn+conn), pool: pool, insPct: w.InsPct}
}

// next appends the stream's next line to b. frontier is the open
// slice's time: inserts land on it, live queries end just behind it.
func (s *stream) next(b []byte, frontier int64) ([]byte, op) {
	if s.rng.Intn(100) < s.insPct {
		p := randPoint(s.rng, frontier)
		return p.appendLine(b), op{kind: opIns, pt: p, pool: -1}
	}
	var q query
	switch s.w.Query {
	case queryPool:
		i := s.rng.Intn(len(s.pool))
		return s.pool[i].appendLine(b), op{kind: opQry, pool: i}
	case queryRecent:
		q.thi = max(1, frontier-1-s.rng.Int63n(recentSlices))
		q.tlo = max(1, q.thi-s.rng.Int63n(recentSlices))
	case querySpan:
		half := int64(s.w.SeedSlices / 2)
		q.tlo = 1 + s.rng.Int63n(half)
		q.thi = max(half+1, frontier-s.rng.Int63n(recentSlices))
	}
	randBox(s.rng, &q)
	return q.appendLine(b), op{kind: opQry, pool: -1}
}
