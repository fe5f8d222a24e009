package elastic

import (
	"hwgc/internal/stats"
)

// Metrics is the migration driver's counter set, declared against a
// stats.Registry and written as gcelastic_* series in gcfleet's /metrics
// scrape. The accounting mirrors the repo's stall discipline: every job
// displaced by a topology change is attributable to a migration
// (checkpoint shipped), a rescue (resubmitted from the registry) or a
// failure awaiting the next pass.
type Metrics struct {
	stats.Registry

	rebalances         *stats.Int
	jobsMigrated       *stats.Int // jobs moved by checkpoint transfer
	jobsResubmitted    *stats.Int // jobs rescued via registry resubmission
	migrationsVerified *stats.Int // import receipts matching the export
	migrationsFailed   *stats.Int // migrations or rescues that failed a pass
	migrationBytes     *stats.Int
	keysRemapped       *stats.Float // measured over a deterministic key sample
	latency            *stats.Summary
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.Registry
	m.rebalances = r.Counter("gcelastic_rebalances_total", "Migration passes run after topology changes.")
	m.jobsMigrated = r.Counter("gcelastic_jobs_migrated_total", "Jobs moved between backends by checkpoint transfer.")
	m.jobsResubmitted = r.Counter("gcelastic_jobs_resubmitted_total", "Jobs rescued by registry resubmission after their owner died.")
	m.migrationsVerified = r.Counter("gcelastic_migrations_verified_total", "Import receipts that matched the exported position.")
	m.migrationsFailed = r.Counter("gcelastic_migrations_failed_total", "Migrations or rescues that failed a pass.")
	m.migrationBytes = r.Counter("gcelastic_migration_bytes_total", "Checkpoint envelope bytes shipped between backends.")
	m.keysRemapped = r.FloatGauge("gcelastic_keys_remapped_fraction", "Fraction of sampled keys whose owner changed in the last topology change.")
	m.latency = r.Summary("gcelastic_migration_seconds", "Per-job migration latency, export to release (upper-bound quantile estimates).", 0.5, 0.99)
	return m
}

// SetKeysRemappedFraction records the fraction of sampled keys whose owner
// changed in the most recent topology change.
func (m *Metrics) SetKeysRemappedFraction(f float64) { m.keysRemapped.Set(f) }

// KeysRemappedFraction returns the last recorded remap fraction.
func (m *Metrics) KeysRemappedFraction() float64 { return m.keysRemapped.Load() }
