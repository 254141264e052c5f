//! Engine-wide statistics.
//!
//! Byte counters are exact (they drive the write-amplification
//! experiments); latency distributions are virtual-clock durations
//! unless their field says wall-clock.
//!
//! [`EngineMetrics`] is the one home of every metric the engine itself
//! updates: typed handles onto series owned jointly with the
//! [`MetricsRegistry`], resolved once by [`EngineMetrics::register`] at
//! open, so `db.stats()` and `db.metrics_snapshot()` read the same
//! atomics and no hot path touches the registry map.

use std::sync::{Arc, OnceLock};

use sim::Counter;

use crate::telemetry::{Gauge, LatencyRecorder, MetricKey, MetricsRegistry};

/// Where a read was ultimately served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadSource {
    /// The DRAM memtable (active or immutable).
    MemTable,
    /// The PM level-0.
    Pm,
    /// An SSD level.
    Ssd,
    /// Key not found anywhere.
    Miss,
}

/// Every metric the engine updates, by field (see the module doc).
#[derive(Debug)]
pub struct EngineMetrics {
    /// User payload bytes accepted by `put`/`delete` (the denominator of
    /// write amplification).
    pub user_bytes_written: Arc<Counter>,
    /// Foreground operations.
    pub puts: Arc<Counter>,
    pub gets: Arc<Counter>,
    pub deletes: Arc<Counter>,
    pub scans: Arc<Counter>,
    /// Reads by serving tier.
    pub reads_from_memtable: Arc<Counter>,
    pub reads_from_pm: Arc<Counter>,
    pub reads_from_ssd: Arc<Counter>,
    pub read_misses: Arc<Counter>,
    /// Compaction activity.
    pub minor_compactions: Arc<Counter>,
    pub internal_compactions: Arc<Counter>,
    pub major_compactions: Arc<Counter>,
    /// Bytes reclaimed on PM by internal compaction (Table IV).
    pub internal_space_released: Arc<Counter>,
    /// Records dropped as duplicates by internal compaction.
    pub internal_dropped_records: Arc<Counter>,
    /// Internal compactions that found no PM room for their sorted run
    /// and fell back to a major compaction.
    pub internal_out_of_pm_fallbacks: Arc<Counter>,
    /// Group-commit activity: commit groups flushed by a leader, total
    /// write operations that rode in those groups, and `WriteBatch`
    /// submissions (a batch of N ops counts once here, N times in
    /// `grouped_writes`).
    pub group_commits: Arc<Counter>,
    pub grouped_writes: Arc<Counter>,
    pub batch_writes: Arc<Counter>,
    /// Foreground latencies: every `get`, `put`/`delete`/`write_batch`
    /// and `scan` (`read_latency`, `write_latency`, `scan_latency`).
    pub lat_reads: Arc<LatencyRecorder>,
    pub lat_writes: Arc<LatencyRecorder>,
    pub lat_scans: Arc<LatencyRecorder>,
    /// `group_commit_latency` and `wal_sync_latency`.
    pub commit_latency: Arc<LatencyRecorder>,
    pub wal_sync_latency: Arc<LatencyRecorder>,
    pub wal_appends: Arc<Counter>,
    pub wal_syncs: Arc<Counter>,
    /// Edits applied to the manifest (replayed at open + appended).
    pub manifest_edits: Arc<Counter>,
    /// Sealed WAL segments deleted because a flush checkpoint covered
    /// every record they held.
    pub wal_segments_deleted: Arc<Counter>,
    /// What the open pass recovered, set once by it (zero without a
    /// `wal_dir`); `recovery_wall` is wall-clock.
    pub recovery_wal_records_replayed: Arc<Counter>,
    pub recovery_tables_reopened: Arc<Counter>,
    pub recovery_wall: Arc<LatencyRecorder>,
    /// PM-L0 key-sketch lookups.
    pub pm_sketch_probes: Arc<Counter>,
    /// PM-L0 per-table verdicts, by the key sketch or a bloom filter.
    pub pm_filter_checked: Arc<Counter>,
    pub pm_filter_useful: Arc<Counter>,
    pub pm_filter_miss: Arc<Counter>,
    /// Gets that read the memtable's key filter, and those it ruled
    /// out, which skip the skiplist descent.
    pub memtable_filter_checked: Arc<Counter>,
    pub memtable_filter_skipped: Arc<Counter>,
    /// Distribution of PM tables actually probed per PM-L0 lookup (a
    /// count, not a duration).
    pub pm_tables_probed: Arc<LatencyRecorder>,
    /// Unsorted PM tables in scans' ranges, held behind the merged key
    /// column, and the ones among them the merge reached and opened.
    pub pm_scan_tables: Arc<Counter>,
    pub pm_scan_tables_sought: Arc<Counter>,
    /// Table-read failures surfaced by the SSD read path (these
    /// propagate to the caller instead of being swallowed as misses).
    pub ssd_read_errors: Arc<Counter>,
    /// Compaction inputs (SSTables) that could not be read; the
    /// compaction aborted with every input table still in place.
    pub compaction_input_errors: Arc<Counter>,
    /// Retired SSTables and PM regions (after a compaction, or orphans
    /// at open) whose backing file could not be removed: each one
    /// stays on disk, though the engine no longer accounts for it.
    pub media_retire_errors: Arc<Counter>,
    pub write_slowdowns: Arc<Counter>,
    pub write_stalls: Arc<Counter>,
    /// Cost-model verdicts that fired, by rule (`cost_*`), and the
    /// codec each flush chose, indexed like [`pmtable::CODEC_NAMES`].
    pub(crate) cost_eq1_triggers: Arc<Counter>,
    pub(crate) cost_eq2_triggers: Arc<Counter>,
    pub(crate) cost_hard_cap_triggers: Arc<Counter>,
    pub(crate) cost_retention_passes: Arc<Counter>,
    pub(crate) cost_codec_choices: Arc<Counter>,
    pub(crate) cost_cache_split_steps: Arc<Counter>,
    pub(crate) codec_chosen: [Arc<Counter>; pmtable::CODEC_COUNT],
    /// Wall-clock (not virtual) stall durations: stalls park the real
    /// thread, so the histogram measures what a client would feel.
    pub stall_wall: Arc<LatencyRecorder>,
    /// Point-in-time gauges, refreshed by `metrics_snapshot()`.
    pub(crate) pm_used_bytes: Arc<Gauge>,
    pub(crate) block_cache_used_bytes: Arc<Gauge>,
    pub(crate) pm_group_cache_used_bytes: Arc<Gauge>,
    /// Each cache's share of the one DRAM budget, as the tuner left it.
    pub(crate) block_cache_capacity_bytes: Arc<Gauge>,
    pub(crate) pm_group_cache_capacity_bytes: Arc<Gauge>,
    /// DRAM held by every partition's PM-L0 key sketch, by its merged
    /// key column, and by every PM-L0 index: those two plus each
    /// table's group fences and decoded bloom filter.
    pub(crate) pm_l0_sketch_bytes: Arc<Gauge>,
    pub(crate) pm_l0_key_column_bytes: Arc<Gauge>,
    pub(crate) pm_l0_index_bytes: Arc<Gauge>,
    /// Pool bytes in use that no live level-0 references: 0 at
    /// quiescence, when every region is a level-0 table or matrix row.
    pub(crate) pm_pool_unreferenced_bytes: Arc<Gauge>,
    pub(crate) partitions: Vec<PartitionMetrics>,
}

/// One partition's read-source counters and gauges.
#[derive(Debug)]
pub(crate) struct PartitionMetrics {
    pub(crate) reads: Arc<Counter>,
    memtable: Arc<Counter>,
    pm: Arc<Counter>,
    miss: Arc<Counter>,
    /// `read_source_ssd` by level (0 = an SSD level-0 table). Level 1 is
    /// registered at open, so a snapshot taken before any read lists it
    /// at zero; the others are resolved from the registry on the level's
    /// first hit, and levels past the array on every hit.
    ssd: [OnceLock<Arc<Counter>>; 8],
    pub(crate) memtable_bytes: Arc<Gauge>,
    pub(crate) pm_l0_bytes: Arc<Gauge>,
    pub(crate) l0_unsorted_tables: Arc<Gauge>,
    pub(crate) ssd_level_bytes: Arc<Gauge>,
}

impl EngineMetrics {
    /// Resolve every handle from `registry`, creating its series — all
    /// of them, in every mode, so a scrape lists the same set whether or
    /// not the engine has a WAL or background workers.
    pub fn register(registry: &MetricsRegistry, partitions: usize) -> Self {
        let counter = |name| registry.counter(MetricKey::global(name));
        let histogram = |name| registry.histogram(MetricKey::global(name));
        let gauge = |name| registry.gauge(MetricKey::global(name));
        EngineMetrics {
            user_bytes_written: counter("user_bytes_written"),
            puts: counter("puts"),
            gets: counter("gets"),
            deletes: counter("deletes"),
            scans: counter("scans"),
            reads_from_memtable: counter("reads_from_memtable"),
            reads_from_pm: counter("reads_from_pm"),
            reads_from_ssd: counter("reads_from_ssd"),
            read_misses: counter("read_misses"),
            minor_compactions: counter("minor_compactions"),
            internal_compactions: counter("internal_compactions"),
            major_compactions: counter("major_compactions"),
            internal_space_released: counter("internal_space_released"),
            internal_dropped_records: counter("internal_dropped_records"),
            internal_out_of_pm_fallbacks: counter("internal_out_of_pm_fallbacks"),
            group_commits: counter("group_commits"),
            grouped_writes: counter("grouped_writes"),
            batch_writes: counter("batch_writes"),
            lat_reads: histogram("read_latency"),
            lat_writes: histogram("write_latency"),
            lat_scans: histogram("scan_latency"),
            commit_latency: histogram("group_commit_latency"),
            wal_sync_latency: histogram("wal_sync_latency"),
            wal_appends: counter("wal_appends"),
            wal_syncs: counter("wal_syncs"),
            manifest_edits: counter("manifest_edits_total"),
            wal_segments_deleted: counter("wal_segments_deleted_total"),
            recovery_wal_records_replayed: counter("recovery_wal_records_replayed"),
            recovery_tables_reopened: counter("recovery_tables_reopened"),
            recovery_wall: histogram("recovery_wall_nanos"),
            pm_sketch_probes: counter("pm_l0_sketch_probes_total"),
            pm_filter_checked: counter("pm_filter_checked_total"),
            pm_filter_useful: counter("pm_filter_useful_total"),
            pm_filter_miss: counter("pm_filter_miss_total"),
            memtable_filter_checked: counter("memtable_filter_checked_total"),
            memtable_filter_skipped: counter("memtable_filter_skipped_total"),
            pm_tables_probed: histogram("pm_tables_probed_per_get"),
            pm_scan_tables: counter("pm_scan_tables_total"),
            pm_scan_tables_sought: counter("pm_scan_tables_sought_total"),
            ssd_read_errors: counter("ssd_read_errors_total"),
            compaction_input_errors: counter("compaction_input_errors_total"),
            media_retire_errors: counter("media_retire_errors_total"),
            write_slowdowns: counter("write_slowdowns"),
            write_stalls: counter("write_stalls"),
            cost_eq1_triggers: counter("cost_eq1_triggers"),
            cost_eq2_triggers: counter("cost_eq2_triggers"),
            cost_hard_cap_triggers: counter("cost_hard_cap_triggers"),
            cost_retention_passes: counter("cost_retention_passes"),
            cost_codec_choices: counter("cost_codec_choices"),
            cost_cache_split_steps: counter("cost_cache_split_steps"),
            codec_chosen: pmtable::CODEC_NAMES
                .map(|codec| registry.counter(MetricKey::codec("pm_codec_chosen_total", codec))),
            stall_wall: histogram("write_stall_wall_nanos"),
            pm_used_bytes: gauge("pm_used_bytes"),
            block_cache_used_bytes: gauge("block_cache_used_bytes"),
            pm_group_cache_used_bytes: gauge("pm_group_cache_used_bytes"),
            block_cache_capacity_bytes: gauge("block_cache_capacity_bytes"),
            pm_group_cache_capacity_bytes: gauge("pm_group_cache_capacity_bytes"),
            pm_l0_sketch_bytes: gauge("pm_l0_sketch_bytes"),
            pm_l0_key_column_bytes: gauge("pm_l0_key_column_bytes"),
            pm_l0_index_bytes: gauge("pm_l0_index_bytes"),
            pm_pool_unreferenced_bytes: gauge("pm_pool_unreferenced_bytes"),
            partitions: (0..partitions)
                .map(|pid| PartitionMetrics::register(registry, pid))
                .collect(),
        }
    }

    /// Record a read on partition `pid` and where it was served from.
    /// `level` is 0 for an SSD level-0 table hit, 1+ for the sorted
    /// levels; `registry` resolves a level's counter on its first hit.
    pub fn note_read(
        &self,
        registry: &MetricsRegistry,
        pid: usize,
        source: ReadSource,
        level: Option<usize>,
    ) {
        let m = &self.partitions[pid];
        self.gets.incr();
        m.reads.incr();
        match source {
            ReadSource::MemTable => {
                self.reads_from_memtable.incr();
                m.memtable.incr();
            }
            ReadSource::Pm => {
                self.reads_from_pm.incr();
                m.pm.incr();
            }
            ReadSource::Miss => {
                self.read_misses.incr();
                m.miss.incr();
            }
            ReadSource::Ssd => {
                self.reads_from_ssd.incr();
                let level = level.unwrap_or(0);
                let resolve = || registry.counter(MetricKey::level("read_source_ssd", pid, level));
                match m.ssd.get(level) {
                    Some(slot) => slot.get_or_init(resolve).incr(),
                    None => resolve().incr(),
                }
            }
        }
    }

    /// Fraction of successful reads served without touching the SSD
    /// (memtable + PM) — the paper's "proportion of reads hitting PM".
    pub fn pm_hit_ratio(&self) -> f64 {
        let fast = self.reads_from_memtable.get() + self.reads_from_pm.get();
        let total = fast + self.reads_from_ssd.get();
        if total == 0 {
            0.0
        } else {
            fast as f64 / total as f64
        }
    }
}

impl PartitionMetrics {
    fn register(registry: &MetricsRegistry, pid: usize) -> Self {
        let counter = |name| registry.counter(MetricKey::partition(name, pid));
        let gauge = |name| registry.gauge(MetricKey::partition(name, pid));
        PartitionMetrics {
            reads: counter("partition_reads"),
            memtable: counter("read_source_memtable"),
            pm: counter("read_source_pm"),
            miss: counter("read_source_miss"),
            ssd: std::array::from_fn(|level| match level {
                1 => registry
                    .counter(MetricKey::level("read_source_ssd", pid, 1))
                    .into(),
                _ => OnceLock::new(),
            }),
            memtable_bytes: gauge("memtable_bytes"),
            pm_l0_bytes: gauge("pm_l0_bytes"),
            l0_unsorted_tables: gauge("l0_unsorted_tables"),
            ssd_level_bytes: gauge("ssd_level_bytes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_accounting_routes_by_source() {
        let registry = MetricsRegistry::new();
        let s = EngineMetrics::register(&registry, 2);
        s.note_read(&registry, 0, ReadSource::MemTable, None);
        s.note_read(&registry, 1, ReadSource::Pm, None);
        s.note_read(&registry, 1, ReadSource::Pm, None);
        s.note_read(&registry, 0, ReadSource::Ssd, Some(3));
        s.note_read(&registry, 0, ReadSource::Miss, None);
        assert_eq!(s.gets.get(), 5);
        assert_eq!(s.reads_from_memtable.get(), 1);
        assert_eq!(s.reads_from_pm.get(), 2);
        assert_eq!(s.reads_from_ssd.get(), 1);
        assert_eq!(s.read_misses.get(), 1);
        // 3 of 4 located reads avoided the SSD.
        assert!((s.pm_hit_ratio() - 0.75).abs() < 1e-9);
        // The same reads, by partition and level.
        let (counters, _, _) = registry.collect();
        assert_eq!(counters[&MetricKey::partition("partition_reads", 0)], 3);
        assert_eq!(counters[&MetricKey::partition("read_source_pm", 1)], 2);
        assert_eq!(counters[&MetricKey::level("read_source_ssd", 0, 3)], 1);
    }

    #[test]
    fn empty_stats_ratio_is_zero() {
        let s = EngineMetrics::register(&MetricsRegistry::new(), 1);
        assert_eq!(s.pm_hit_ratio(), 0.0);
    }

    #[test]
    fn registered_stats_share_the_registry_counters() {
        let registry = MetricsRegistry::new();
        let s = EngineMetrics::register(&registry, 2);
        s.puts.add(3);
        registry.counter(MetricKey::global("puts")).incr();
        assert_eq!(s.puts.get(), 4);
        let (counters, gauges, histograms) = registry.collect();
        assert_eq!(counters[&MetricKey::global("puts")], 4);
        // Every field is registered: the global series (six cost rules
        // and three codecs among them) plus, for each partition, four
        // read counters, the level-1 SSD source and four gauges.
        assert_eq!(counters.len(), 46 + 2 * 5);
        assert_eq!(gauges.len(), 9 + 2 * 4);
        assert_eq!(histograms.len(), 8);
    }
}
