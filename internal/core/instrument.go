package core

import (
	"histcube/internal/obs"
)

// RegisterStatsMetrics registers the cube's state gauges and
// cumulative cost counters on reg, reading them from snapshot at
// scrape time. snapshot must be safe to call from the scrape
// goroutine — callers that mutate the cube concurrently pass a closure
// taking the same lock that guards the cube (see internal/histserve). Going
// through a snapshot function rather than a captured *Cube also keeps
// the metrics correct when the caller swaps cubes on snapshot resume.
//
// Metric names are spelled out as literals at each registration site:
// the histlint metricname analyzer checks the naming contract per call,
// and dashboards grep for the literal strings. The cube keeps no
// latency instrument: a server times its calls from the spans they open.
func RegisterStatsMetrics(reg *obs.Registry, snapshot func() Stats) {
	reg.NewGaugeFunc("histcube_slices",
		"Occurring time slices (time directory entries).",
		func() float64 { return float64(snapshot().Slices) })
	reg.NewGaugeFunc("histcube_ooo_pending",
		"Out-of-order updates buffered in the R*-tree (Section 2.5's G_d).",
		func() float64 { return float64(snapshot().PendingOutOfOrder) })
	reg.NewCounterFunc("histcube_appended_updates_total",
		"Updates appended in time order.",
		func() int64 { return snapshot().AppendedUpdates })
	reg.NewCounterFunc("histcube_ooo_updates_total",
		"Updates routed to the out-of-order buffer.",
		func() int64 { return snapshot().OutOfOrderUpdates })
	// Queries are the only conversion trigger on a served cube (Sec.
	// 3.2); the label stays because benchmark/ reads this series by it.
	reg.NewCounterFunc("histcube_ecube_conversions_total",
		"Historic cells lazily converted from DDC to PS while answering queries (the Fig. 10/11 convergence signal).",
		func() int64 { return snapshot().ECubeConversions },
		obs.Label{Key: "trigger", Value: "query"})
	reg.NewCounterFunc("histcube_ecube_cells_touched_total",
		"Historic-slice cells loaded by the eCube query algorithm.",
		func() int64 { return snapshot().ECubeCellsTouched })
	reg.NewCounterFunc("histcube_copy_forced_total",
		"Forced lazy copies of overwritten cache cells (Fig. 8 step 3).",
		func() int64 { return snapshot().ForcedCopies })
	reg.NewCounterFunc("histcube_copy_ahead_total",
		"Copy-ahead work riding on updates (Fig. 8 step 4).",
		func() int64 { return snapshot().CopyAheadWork })
}
