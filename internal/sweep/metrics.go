package sweep

import (
	"hwgc/internal/stats"
)

// Metrics is the sweep subsystem's counter set, declared against a
// stats.Registry and written as part of the /metrics scrape (gcserved
// and gcfleet each write their coordinator's set).
type Metrics struct {
	stats.Registry

	sweepsActive    *stats.Int
	sweepsSubmitted *stats.Int
	sweepsDeduped   *stats.Int
	sweepsCompleted *stats.Int
	sweepsCancelled *stats.Int
	pointsPlanned   *stats.Int
	pointsDeduped   *stats.Int // points satisfied without a new job execution
	pointsCompleted *stats.Int
	pointsFailed    *stats.Int
	pointsCancelled *stats.Int
	frontierUpdates *stats.Int // frontier recomputations that changed the ranking
	latency         *stats.Summary
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.Registry
	m.sweepsActive = r.Gauge("gcsweep_sweeps_active", "Sweeps currently tracking outstanding points.")
	m.sweepsSubmitted = r.Counter("gcsweep_sweeps_submitted_total", "Sweeps accepted with a new ID.")
	m.sweepsDeduped = r.Counter("gcsweep_sweeps_deduped_total", "Sweep submissions coalesced onto an existing sweep by content key.")
	m.sweepsCompleted = r.Counter("gcsweep_sweeps_completed_total", "Sweeps that finished with every point terminal.")
	m.sweepsCancelled = r.Counter("gcsweep_sweeps_cancelled_total", "Sweeps cancelled by DELETE.")
	m.pointsPlanned = r.Counter("gcsweep_points_planned_total", "Points expanded from accepted sweep spaces.")
	m.pointsDeduped = r.Counter("gcsweep_points_deduped_total", "Points satisfied from cached or already-submitted results, without a new execution.")
	m.pointsCompleted = r.Counter("gcsweep_points_completed_total", "Points that reached a result.")
	m.pointsFailed = r.Counter("gcsweep_points_failed_total", "Points whose execution failed.")
	m.pointsCancelled = r.Counter("gcsweep_points_cancelled_total", "Points cancelled before completing.")
	m.frontierUpdates = r.Counter("gcsweep_frontier_updates_total", "Frontier recomputations that changed the ranking.")
	m.latency = r.Summary("gcsweep_sweep_seconds", "Submit-to-finish sweep latency (upper-bound quantile estimates).", 0.5, 0.99)
	return m
}
