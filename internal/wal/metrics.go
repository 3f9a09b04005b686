package wal

import "histcube/internal/obs"

// Metrics bundles the WAL's counters and histograms. Pass one (from
// NewMetrics) in Options to instrument a log; a nil Metrics disables
// instrumentation with a single branch per event. Series read from
// live log state are registered separately via RegisterStateMetrics.
type Metrics struct {
	Appends          *obs.Counter
	Fsyncs           *obs.Counter
	Rotations        *obs.Counter
	Checkpoints      *obs.Counter
	CheckpointErrors *obs.Counter
	Replayed         *obs.Counter
	ReplaySkipped    *obs.Counter
	TornTruncations  *obs.Counter
	SyncFailures     *obs.Counter
	QuarantinedCkpts *obs.Counter

	CheckpointDuration *obs.Histogram
	// CommitRecords is the live group-commit size: records made durable
	// by each successful fsync.
	CommitRecords *obs.Histogram
}

// NewMetrics registers the WAL metric families on reg under the
// histcube_wal_ prefix.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appends:     reg.NewCounter("histcube_wal_appends_total", "Records appended to the write-ahead log."),
		Fsyncs:      reg.NewCounter("histcube_wal_fsyncs_total", "Successful fsyncs of the active segment."),
		Rotations:   reg.NewCounter("histcube_wal_segment_rotations_total", "Segment rotations."),
		Checkpoints: reg.NewCounter("histcube_wal_checkpoints_total", "Checkpoints written."),
		CheckpointErrors: reg.NewCounter("histcube_wal_checkpoint_errors_total",
			"Checkpoint attempts that failed (the log keeps growing)."),
		Replayed: reg.NewCounter("histcube_wal_replayed_records_total",
			"Log records re-applied during crash recovery."),
		ReplaySkipped: reg.NewCounter("histcube_wal_replay_skipped_total",
			"Replayed records whose re-apply failed (they failed identically when first logged)."),
		TornTruncations: reg.NewCounter("histcube_wal_torn_truncations_total",
			"Torn final records truncated during recovery."),
		SyncFailures: reg.NewCounter("histcube_wal_sync_failures_total",
			"fsync failures that latched the log until the segment was reopened."),
		QuarantinedCkpts: reg.NewCounter("histcube_wal_quarantined_checkpoints_total",
			"Checkpoint files proven corrupt and renamed aside during recovery."),
		CheckpointDuration: reg.NewHistogram("histcube_wal_checkpoint_duration_seconds",
			"Duration of checkpoint writes (snapshot + fsync + prune).", nil),
		CommitRecords: reg.NewHistogram("histcube_wal_commit_records",
			"Records made durable per fsync of the active segment (the group-commit size).",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
	}
}
