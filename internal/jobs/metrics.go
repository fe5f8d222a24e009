package jobs

import (
	"hwgc/internal/stats"
)

// Metrics is the job subsystem's counter set, declared against a
// stats.Registry and written as part of gcserved's /metrics scrape.
// Following the paper's stall-accounting discipline, every reason a job is
// not running is attributable: queued behind its class (per-class depth),
// preempted for higher-priority work, waiting out a WAL fsync, or
// recovering after a crash (replays, resumes, reclaimed checkpoint files).
type Metrics struct {
	stats.Registry

	running         *stats.Int
	submitted       *stats.Int // jobs accepted with a new ID
	deduped         *stats.Int // submissions coalesced onto an existing job
	completed       *stats.Int
	failed          *stats.Int
	cancelled       *stats.Int
	migrated        *stats.Int // jobs released after a verified handoff elsewhere
	exports         *stats.Int
	imports         *stats.Int
	importsDeduped  *stats.Int
	importsRejected *stats.Int
	preemptions     *stats.Int
	resumes         *stats.Int
	freshStarts     *stats.Int
	checkpoints     *stats.Int
	ckptReclaims    *stats.Int // checkpoint files swept (terminal, unknown or unreadable)

	walRecords         *stats.Int
	walReplays         *stats.Int
	walReplayedRecords *stats.Int
	walTruncatedBytes  *stats.Int
	walCompactions     *stats.Int
	fsync              *stats.Summary
	firstCkpt          *stats.Summary // dispatch-to-first-checkpoint latency
}

// NewMetrics returns an empty counter set whose per-class queue depth is
// sampled from depths at scrape time.
func NewMetrics(depths func() map[string]int64) *Metrics {
	m := &Metrics{}
	r := &m.Registry
	r.GaugeVecFunc("gcjobs_queue_depth", "Queued jobs per priority class.", "class", depths)
	m.running = r.Gauge("gcjobs_running", "Jobs currently executing on the runner pool.")
	m.submitted = r.Counter("gcjobs_submitted_total", "Jobs accepted with a new ID.")
	m.deduped = r.Counter("gcjobs_deduped_total", "Submissions coalesced onto an existing job by content key.")
	m.completed = r.Counter("gcjobs_completed_total", "Jobs that reached the done state.")
	m.failed = r.Counter("gcjobs_failed_total", "Jobs that reached the failed state.")
	m.cancelled = r.Counter("gcjobs_cancelled_total", "Jobs cancelled by DELETE.")
	m.migrated = r.Counter("gcjobs_migrated_total", "Jobs released locally after a verified handoff to another backend.")
	m.exports = r.Counter("gcjobs_checkpoint_exports_total", "Checkpoint envelopes served for migration.")
	m.imports = r.Counter("gcjobs_checkpoint_imports_total", "Foreign checkpoint envelopes adopted as local jobs.")
	m.importsDeduped = r.Counter("gcjobs_checkpoint_imports_deduped_total", "Imports coalesced onto an existing job by content key.")
	m.importsRejected = r.Counter("gcjobs_checkpoint_imports_rejected_total", "Checkpoint envelopes rejected by validation.")
	m.preemptions = r.Counter("gcjobs_preemptions_total", "Checkpoint-boundary yields to higher-priority work or drain.")
	m.resumes = r.Counter("gcjobs_resumes_total", "Dispatches that continued a job from its checkpoint.")
	m.freshStarts = r.Counter("gcjobs_fresh_starts_total", "Dispatches that started a job from scratch.")
	m.checkpoints = r.Counter("gcjobs_checkpoints_saved_total", "Job snapshots persisted to the jobs directory.")
	m.ckptReclaims = r.Counter("gcjobs_checkpoint_files_reclaimed_total", "Checkpoint files swept for terminal, unknown or unreadable jobs.")
	m.walRecords = r.Counter("gcjobs_wal_records_total", "Records appended to the write-ahead log.")
	m.walReplays = r.Counter("gcjobs_wal_replays_total", "WAL replays performed at startup.")
	m.walReplayedRecords = r.Counter("gcjobs_wal_replayed_records_total", "Records rebuilt from the WAL at startup.")
	m.walTruncatedBytes = r.Counter("gcjobs_wal_truncated_bytes_total", "Torn-tail bytes truncated from the WAL on replay.")
	m.walCompactions = r.Counter("gcjobs_wal_compactions_total", "WAL compaction rewrites.")
	m.fsync = r.Summary("gcjobs_wal_fsync_seconds", "WAL fsync latency (upper-bound quantile estimates).", 0.5, 0.99)
	// Time to first checkpoint is the window in which a crash or preemption
	// still loses work: the subsystem's exposure time.
	m.firstCkpt = r.Summary("gcjobs_time_to_first_checkpoint_seconds", "Latency from fresh dispatch to first persisted checkpoint.", 0.5, 0.99)
	return m
}
