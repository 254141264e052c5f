//! Open and recovery: rebuild every partition from the manifest and
//! replay the WAL suffix — plus the manifest appends that record what
//! the next open will rebuild. Runs before the engine is shared (open)
//! or takes the manifest mutex with no partition or WAL-ring lock held.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use encoding::hash::HashSet;
use encoding::key::SequenceNumber;
use memtable::Wal;
use parking_lot::{Mutex, RwLock};
use pm_device::PmPool;
use pmtable::TableKeys;
use sim::{SimInstant, Timeline};
use ssd_device::SsdDevice;
use sstable::{BlockCache, SsTable};

use super::wal_ring::{wal_segment_file, SealedSegment, WalRing};
use super::{DbCore, DbError};
use crate::commit::{CommitMetrics, Committer};
use crate::costmodel::CodecCostTable;
use crate::groupcache::PmGroupCache;
use crate::handle::{reopen_pm_table, CacheIds, PmTableHandle, SsTableHandle};
use crate::maintenance::{MaintenanceShared, QueueMetrics};
use crate::manifest::{Manifest, PartitionVersion, SsdMeta, VersionEdit};
use crate::options::{MaintenanceMode, Mode, Options};
use crate::partition::{Level0, Partition};
use crate::stats::EngineMetrics;
use crate::telemetry::{EventRing, MetricKey, MetricsRegistry, Tracer};

/// Manifest edits between full-snapshot rewrites (and `CURRENT` swaps),
/// which bounds how much of the log an open replays.
const MANIFEST_SNAPSHOT_EVERY: u64 = 64;

/// Reopen one PM region as a level-0 table handle, with what level-0's
/// DRAM indexes need of its keys (recovery path).
fn recover_pm_handle(
    pool: &PmPool,
    id: u64,
    ids: &CacheIds,
) -> Result<(PmTableHandle, TableKeys), DbError> {
    let region = pool.get(id).ok_or_else(|| {
        DbError::Corrupt(format!(
            "manifest names PM region {id} but the pool does not hold it"
        ))
    })?;
    reopen_pm_table(region, None, ids).map_err(DbError::Corrupt)
}

/// Reopen one SSTable from its manifest metadata (recovery path).
fn recover_ss_handle(
    device: &Arc<SsdDevice>,
    cache: &Arc<BlockCache>,
    meta: &SsdMeta,
    tl: &mut Timeline,
) -> Result<SsTableHandle, DbError> {
    let table = SsTable::open(device, &meta.name, Arc::clone(cache), tl)?;
    Ok(SsTableHandle {
        table: Arc::new(table),
        name: meta.name.clone(),
        first: meta.first.clone(),
        last: meta.last.clone(),
        bytes: meta.bytes,
        max_seq: meta.max_seq,
    })
}

/// Rebuild one partition's table set from its last manifest version.
/// Returns `(tables_reopened, max_seq_recovered)`.
fn rebuild_partition(
    p: &mut Partition,
    version: &PartitionVersion,
    pool: &PmPool,
    device: &Arc<SsdDevice>,
    cache: &Arc<BlockCache>,
    cache_ids: &CacheIds,
    tl: &mut Timeline,
) -> Result<(u64, u64), DbError> {
    let mismatch = |what: &str| {
        DbError::Corrupt(format!(
            "manifest version for partition {} holds {what} tables the \
             configured mode has no container for",
            p.id
        ))
    };
    let mut count = 0u64;
    let mut max_seq = 0u64;
    match &mut p.level0 {
        Level0::Pm(l0) => {
            if !version.matrix.is_empty() || !version.l0_tables.is_empty() {
                return Err(mismatch("matrix/SSD level-0"));
            }
            // Codec ids were logged in unsorted-then-sorted order; a
            // pre-encoding-v2 manifest logged none (empty = unchecked).
            // When present, each reopened table's self-described
            // dominant codec must match what the manifest recorded —
            // a mismatch means the region was swapped or corrupted.
            let check_codec = |idx: usize, h: &PmTableHandle| match version.codecs.get(idx) {
                Some(&logged) if logged != h.codec as u64 => Err(DbError::Corrupt(format!(
                    "partition {}: manifest logged codec {logged} for PM region {} \
                         but the reopened table decodes as codec {}",
                    p.id, h.region, h.codec
                ))),
                _ => Ok(()),
            };
            for (idx, &id) in version.unsorted.iter().enumerate() {
                let (h, keys) = recover_pm_handle(pool, id, cache_ids)?;
                check_codec(idx, &h)?;
                max_seq = max_seq.max(h.max_seq);
                l0.push_unsorted(h, keys);
                count += 1;
            }
            let mut run = Vec::with_capacity(version.sorted.len());
            for (idx, &id) in version.sorted.iter().enumerate() {
                let (h, _) = recover_pm_handle(pool, id, cache_ids)?;
                check_codec(version.unsorted.len() + idx, &h)?;
                max_seq = max_seq.max(h.max_seq);
                run.push(h);
                count += 1;
            }
            if !run.is_empty() {
                l0.set_sorted_run(run);
            }
        }
        Level0::Matrix(m) => {
            if !version.unsorted.is_empty()
                || !version.sorted.is_empty()
                || !version.l0_tables.is_empty()
            {
                return Err(mismatch("PM/SSD level-0"));
            }
            for &id in &version.matrix {
                let region = pool.get(id).ok_or_else(|| {
                    DbError::Corrupt(format!(
                        "manifest names matrix region {id} but the pool does not hold it"
                    ))
                })?;
                m.push_recovered_row(region)?;
                count += 1;
            }
        }
        Level0::Ssd(tables) => {
            if !version.unsorted.is_empty()
                || !version.sorted.is_empty()
                || !version.matrix.is_empty()
            {
                return Err(mismatch("PM level-0"));
            }
            for meta in &version.l0_tables {
                let h = recover_ss_handle(device, cache, meta, tl)?;
                max_seq = max_seq.max(h.max_seq);
                tables.push(h);
                count += 1;
            }
        }
    }
    for (i, level) in version.levels.iter().enumerate() {
        let mut handles = Vec::with_capacity(level.len());
        for meta in level {
            let h = recover_ss_handle(device, cache, meta, tl)?;
            max_seq = max_seq.max(h.max_seq);
            handles.push(h);
            count += 1;
        }
        p.levels.replace_level(i + 1, handles);
    }
    Ok((count, max_seq))
}

/// The numeric suffix of an SSTable name (`p000-L1-00000042.sst` → 42),
/// used to re-seed the name counter on recovery.
fn table_name_counter(name: &str) -> u64 {
    name.strip_suffix(".sst")
        .and_then(|s| s.rsplit('-').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

impl DbCore {
    /// Build the engine core. Callers almost always want [`Db::open`],
    /// which also spawns the background workers.
    ///
    /// With [`Options::wal_dir`] set this is a full recovery path:
    /// load the `CURRENT` manifest, rebuild every partition's table set
    /// from its last logged version (reopening PM regions and SSTables
    /// from the backing directories), garbage-collect media objects the
    /// manifest does not reference, then replay only the WAL records
    /// newer than each partition's flush checkpoint.
    pub(super) fn open(opts: Options) -> Result<DbCore, DbError> {
        let recovery_start = std::time::Instant::now();
        // For any codec beyond plain prefix groups, calibrate the
        // per-codec decode-cost table once, on the virtual clock, so Auto
        // selection and the Eq 1/2 decode terms see measured numbers
        // instead of zeros. SSD level-0 mode never builds PM tables, so
        // it skips the work.
        let codec_costs =
            if opts.mode != Mode::SsdLevel0 && opts.pm_codec_mode != pmtable::CodecMode::Prefix {
                CodecCostTable::calibrate(&opts.cost)
            } else {
                CodecCostTable::default()
            };
        let fault = opts.fault_plan.clone();
        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let now = SimInstant::ORIGIN;
        let mut partitions: Vec<Partition> = (0..opts.partitioner.count())
            .map(|id| Partition::new(id, &opts, now))
            .collect();
        let mut seq: SequenceNumber = 0;
        let mut table_counter_start = 0u64;
        let cache_ids = CacheIds::new();
        let mut recovered_tables = 0u64;
        let mut replayed_records = 0u64;
        let mut edits_at_open = 0u64;
        let (pool, device, manifest, wal) = match opts.wal_dir.clone() {
            None => (
                PmPool::new(opts.pm_capacity, opts.cost),
                SsdDevice::new(opts.cost),
                None,
                None,
            ),
            Some(dir) => {
                std::fs::create_dir_all(&dir).map_err(|e| DbError::Io(format!("wal dir: {e}")))?;
                let pool = PmPool::with_backing_faults(
                    opts.pm_capacity,
                    opts.cost,
                    dir.join("pm"),
                    fault.clone(),
                )?;
                let device = SsdDevice::with_backing(opts.cost, dir.join("ssd"), fault.clone())?;
                let mut manifest =
                    Manifest::open(&dir, MANIFEST_SNAPSHOT_EVERY, opts.cost, fault.clone())?;
                let mut tl = Timeline::new();
                let state = manifest.state().clone();
                // Rebuild each partition's table set from its last
                // logged version, and remember every media object the
                // manifest still references.
                let mut live_regions: HashSet<u64> = HashSet::default();
                let mut live_tables: HashSet<String> = HashSet::default();
                for (&pid_u, version) in &state.partitions {
                    let pid = pid_u as usize;
                    if pid >= partitions.len() {
                        return Err(DbError::Corrupt(format!(
                            "manifest names partition {pid} but the engine has {}",
                            partitions.len()
                        )));
                    }
                    let (count, max_seq) = rebuild_partition(
                        &mut partitions[pid],
                        version,
                        &pool,
                        &device,
                        &cache,
                        &cache_ids,
                        &mut tl,
                    )?;
                    recovered_tables += count;
                    seq = seq.max(max_seq);
                    live_regions.extend(&version.unsorted);
                    live_regions.extend(&version.sorted);
                    live_regions.extend(&version.matrix);
                    for meta in version
                        .l0_tables
                        .iter()
                        .chain(version.levels.iter().flatten())
                    {
                        table_counter_start =
                            table_counter_start.max(table_name_counter(&meta.name));
                        live_tables.insert(meta.name.clone());
                    }
                }
                table_counter_start = table_counter_start.max(state.table_counter);
                seq = seq.max(state.checkpoints.values().copied().max().unwrap_or(0));
                // GC orphans: media published by a crashed process whose
                // manifest edit never landed. Nothing references them.
                for id in pool.region_ids() {
                    if !live_regions.contains(&id) {
                        pool.free(id);
                    }
                }
                for name in device.list() {
                    if !live_tables.contains(&name) {
                        let _ = device.delete(&name);
                    }
                }
                // WAL segments replay ascending; records at or below the
                // partition's flush checkpoint are already durable in
                // level-0 and are skipped (the double-replay guard).
                let mut segments: Vec<(u64, PathBuf)> = Vec::new();
                for entry in
                    std::fs::read_dir(&dir).map_err(|e| DbError::Io(format!("wal dir: {e}")))?
                {
                    let entry = entry.map_err(|e| DbError::Io(format!("wal dir: {e}")))?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(num) = name
                        .strip_prefix("wal-")
                        .and_then(|s| s.strip_suffix(".log"))
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        segments.push((num, entry.path()));
                    }
                }
                segments.sort();
                let mut sealed = Vec::new();
                for (_, path) in &segments {
                    let mut seg_max: BTreeMap<u64, u64> = BTreeMap::new();
                    for rec in Wal::replay(path)? {
                        seq = seq.max(rec.seq);
                        let pid = opts.partitioner.locate(&rec.user_key);
                        let wm = seg_max.entry(pid as u64).or_insert(0);
                        *wm = (*wm).max(rec.seq);
                        if state
                            .checkpoints
                            .get(&(pid as u64))
                            .is_some_and(|c| *c >= rec.seq)
                        {
                            continue;
                        }
                        partitions[pid].mem.insert(
                            &rec.user_key,
                            rec.seq,
                            rec.kind,
                            &rec.value,
                            &mut tl,
                        );
                        replayed_records += 1;
                    }
                    sealed.push(SealedSegment {
                        path: path.clone(),
                        max_seq: seg_max,
                    });
                }
                // Existing segments stay sealed (deletable once a flush
                // checkpoint covers them); appends go to a fresh one.
                let next_segment = segments
                    .last()
                    .map(|(n, _)| n + 1)
                    .unwrap_or(1)
                    .max(state.wal_segment + 1);
                let mut active = Wal::create(dir.join(wal_segment_file(next_segment)), opts.cost)?;
                active.set_fault(fault.clone());
                manifest.append(
                    &VersionEdit::WalRotate {
                        segment: next_segment,
                    },
                    &mut tl,
                )?;
                edits_at_open = manifest.state().edits_applied;
                let ring = WalRing {
                    dir,
                    cost: opts.cost,
                    fault: fault.clone(),
                    active,
                    active_segment: next_segment,
                    active_max: BTreeMap::new(),
                    sealed,
                };
                (
                    pool,
                    device,
                    Some(Mutex::new(manifest)),
                    Some(Mutex::new(ring)),
                )
            }
        };
        let registry = MetricsRegistry::new();
        let metrics = EngineMetrics::register(&registry, partitions.len());
        let committers = (0..partitions.len())
            .map(|pid| Committer::new(CommitMetrics::register(&registry, pid)))
            .collect();
        // Cache metrics. Each cache owns its counters; registering the
        // same `Arc`s means snapshots and Prometheus rendering see them
        // with zero mirroring on the hot path.
        let group_cache = Arc::new(PmGroupCache::new(opts.pm_group_cache_bytes));
        for (name, counter) in [
            ("block_cache_hits", &cache.hits),
            ("block_cache_misses", &cache.misses),
            ("block_cache_evictions", &cache.evictions),
            ("pm_group_cache_hit_total", &group_cache.hits),
            ("pm_group_cache_miss_total", &group_cache.misses),
            ("pm_group_cache_evictions_total", &group_cache.evictions),
            (
                "pm_group_cache_invalidations_total",
                &group_cache.invalidations,
            ),
        ] {
            registry.register_counter(MetricKey::global(name), Arc::clone(counter));
        }
        // Durability / recovery observability: zero without a wal_dir;
        // set once, here, from the open pass.
        metrics.manifest_edits.add(edits_at_open);
        metrics.recovery_wal_records_replayed.add(replayed_records);
        metrics.recovery_tables_reopened.add(recovered_tables);
        metrics
            .recovery_wall
            .record_nanos(recovery_start.elapsed().as_nanos() as u64);
        // Maintenance metrics are pre-registered in BOTH modes so a
        // Prometheus scrape of an Inline engine still lists them (at
        // zero) and dashboards render identically across modes.
        let queue_metrics = QueueMetrics::register(&registry);
        let maintenance = (opts.maintenance == MaintenanceMode::Background).then(|| {
            Arc::new(MaintenanceShared::new(
                coroutine::SchedulerConfig::default(),
                queue_metrics,
            ))
        });
        let ring = EventRing::new(opts.event_log_capacity);
        let tracer = Tracer::new(
            opts.trace_sample_every,
            opts.trace_slow_query_nanos,
            opts.trace_recorder_capacity,
            &registry,
        );
        Ok(DbCore {
            partitions: partitions.into_iter().map(RwLock::new).collect(),
            committers,
            pool,
            device,
            cache,
            seq: AtomicU64::new(seq),
            visible_seq: AtomicU64::new(seq),
            clock: AtomicU64::new(0),
            table_counter: AtomicU64::new(table_counter_start),
            cache_ids,
            metrics,
            wal,
            manifest,
            registry,
            ring,
            span_ids: AtomicU64::new(0),
            group_cache,
            codec_costs,
            maintenance,
            tracer,
            opts,
        })
    }

    /// Append edits to the manifest, each durably (fsynced) before the
    /// next. No-op without a manifest. Must not be called while holding
    /// a partition lock or the WAL-ring lock.
    pub(super) fn append_manifest_edits(&self, edits: &[VersionEdit]) -> Result<(), DbError> {
        let Some(manifest) = &self.manifest else {
            return Ok(());
        };
        let mut tl = Timeline::new();
        let mut m = manifest.lock();
        for edit in edits {
            m.append(edit, &mut tl)?;
            self.metrics.manifest_edits.incr();
        }
        drop(m);
        self.advance(tl.elapsed());
        Ok(())
    }

    /// Snapshot a partition's complete table set for a manifest edit;
    /// `None` without a manifest, where nothing would read it. The
    /// caller holds the partition lock, so the snapshot is the exact
    /// set a crash-reopen must rebuild.
    pub(super) fn partition_version(&self, p: &Partition) -> Option<PartitionVersion> {
        self.manifest.as_ref()?;
        let meta = |h: &SsTableHandle| SsdMeta {
            name: h.name.clone(),
            first: h.first.clone(),
            last: h.last.clone(),
            bytes: h.bytes,
            max_seq: h.max_seq,
        };
        let mut v = PartitionVersion {
            partition: p.id as u64,
            ..PartitionVersion::default()
        };
        match &p.level0 {
            Level0::Pm(l0) => {
                v.unsorted = l0.unsorted().iter().map(|h| h.region).collect();
                v.sorted = l0.sorted_run().iter().map(|h| h.region).collect();
                v.codecs = l0.tables().map(|h| h.codec as u64).collect();
            }
            Level0::Matrix(m) => v.matrix = m.region_ids(),
            Level0::Ssd(tables) => v.l0_tables = tables.iter().map(meta).collect(),
        }
        v.levels = p
            .levels
            .levels
            .iter()
            .map(|lvl| lvl.iter().map(meta).collect())
            .collect();
        Some(v)
    }

    /// Durably record a partition's new table set — and, for a flush,
    /// its checkpoint — then prune WAL segments the checkpoint covered.
    /// Publication order is the crash-safety invariant: the in-memory
    /// install already happened, so a crash before this append leaves
    /// only orphaned media (GC'd on reopen) plus a WAL that still
    /// replays the records; a crash after it loses nothing.
    pub(super) fn log_version(
        &self,
        version: Option<PartitionVersion>,
        checkpoint: Option<(usize, u64)>,
    ) -> Result<(), DbError> {
        let (Some(manifest), Some(version)) = (&self.manifest, version) else {
            return Ok(());
        };
        let mut edits = vec![
            VersionEdit::PartitionVersion(version),
            VersionEdit::TableCounter {
                value: self.table_counter.load(Ordering::Relaxed),
            },
        ];
        if let Some((pid, durable_seq)) = checkpoint {
            edits.push(VersionEdit::FlushCheckpoint {
                partition: pid as u64,
                durable_seq,
            });
        }
        self.append_manifest_edits(&edits)?;
        if checkpoint.is_some() {
            // The checkpoint may have made sealed segments obsolete.
            // Lock order: manifest released above, ring taken alone.
            let checkpoints = {
                let m = manifest.lock();
                m.state().checkpoints.clone()
            };
            if let Some(ring) = &self.wal {
                let deleted = ring.lock().prune(&checkpoints);
                self.metrics.wal_segments_deleted.add(deleted);
            }
        }
        Ok(())
    }
}
