package registry

import "github.com/flashmark/flashmark/internal/metrics"

// RegisterMetrics exposes store's Stats on reg as the fmregistry_*
// gauges. Both daemons that hold a store — fmverifyd for its
// provenance backend and fmregistryd for its shard — call it, so the
// names and help text are defined once.
func RegisterMetrics(reg *metrics.Registry, store Store) {
	reg.GaugeFunc("fmregistry_keys", "distinct die identities on file",
		func() int64 { return store.Stats().Keys })
	reg.GaugeFunc("fmregistry_enrollments", "enrollments applied, duplicates included",
		func() int64 { return store.Stats().Enrollments })
	reg.GaugeFunc("fmregistry_conflicts", "die identities claimed by multiple physical fingerprints",
		func() int64 { return store.Stats().Conflicts })
	reg.GaugeFunc("fmregistry_lookups", "registry lookups served",
		func() int64 { return store.Stats().Lookups })
	reg.GaugeFunc("fmregistry_wal_appends_total", "records appended to the registry WAL",
		func() int64 { return store.Stats().WALAppends })
	reg.GaugeFunc("fmregistry_wal_fsyncs_total", "fsyncs of the registry WAL (group commit batches these)",
		func() int64 { return store.Stats().WALFsyncs })
	reg.GaugeFunc("fmregistry_compactions_total", "registry snapshot compactions completed",
		func() int64 { return store.Stats().Compactions })
	reg.GaugeFunc("fmregistry_wal_segments", "WAL generation files on disk (growth with flat compactions means compaction is failing)",
		func() int64 { return store.Stats().WALSegments })
	reg.GaugeFunc("fmregistry_last_compaction_gen", "generation of the newest on-disk snapshot (0 = never compacted)",
		func() int64 { return int64(store.Stats().LastCompaction) })
	reg.GaugeFunc("fmregistry_recovery_us", "microseconds the last Open spent rebuilding registry state",
		func() int64 { return store.Stats().Recovery.Microseconds() })
}
