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
use sim::{SimInstant, Timeline};
use ssd_device::SsdDevice;
use sstable::BlockCache;

use super::wal_ring::{wal_segment_file, SealedSegment, WalRing};
use super::{DbCore, DbError};
use crate::commit::{CommitMetrics, Committer};
use crate::costmodel::CodecCostTable;
use crate::groupcache::PmGroupCache;
use crate::handle::SsTableHandle;
use crate::maintenance::{MaintenanceShared, QueueMetrics};
use crate::manifest::{Manifest, PartitionVersion, VersionEdit};
use crate::options::{MaintenanceMode, Mode, Options};
use crate::partition::{Media, Partition};
use crate::stats::EngineMetrics;
use crate::telemetry::{EventRing, MetricKey, MetricsRegistry, Tracer};

/// Manifest edits between full-snapshot rewrites (and `CURRENT` swaps),
/// which bounds how much of the log an open replays.
const MANIFEST_SNAPSHOT_EVERY: u64 = 64;

/// Rebuild one partition's table set from its last manifest version.
/// Returns `(tables_reopened, max_seq_recovered)`.
fn rebuild_partition(
    p: &mut Partition,
    version: &PartitionVersion,
    media: &Media<'_>,
    tl: &mut Timeline,
) -> Result<(u64, u64), DbError> {
    let (mut count, mut max_seq) = p.level0.recover(p.id, version, media, tl)?;
    for level in &version.levels {
        let mut handles = Vec::with_capacity(level.len());
        for meta in level {
            let h = SsTableHandle::reopen(meta, media, tl)?;
            max_seq = max_seq.max(h.max_seq);
            handles.push(h);
            count += 1;
        }
        p.levels.levels.push(handles);
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
        let opts = opts.validate()?;
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
        let table_counter = AtomicU64::new(0);
        let registry = MetricsRegistry::new();
        let metrics = EngineMetrics::register(&registry, partitions.len());
        let mut recovered_tables = 0u64;
        let mut replayed_records = 0u64;
        let mut edits_at_open = 0u64;
        let mut retire_errors = 0u64;
        let (pool, device, manifest, wal) = match opts.wal_dir.clone() {
            None => (
                PmPool::new(opts.pm_capacity, opts.cost),
                SsdDevice::new(opts.cost),
                None,
                None,
            ),
            Some(dir) => {
                std::fs::create_dir_all(&dir).map_err(|e| DbError::Io(format!("wal dir: {e}")))?;
                let pool = PmPool::with_backing(
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
                let media = Media {
                    opts: &opts,
                    codec_costs: &codec_costs,
                    pool: &pool,
                    device: &device,
                    cache: &cache,
                    table_counter: &table_counter,
                    input_errors: &metrics.compaction_input_errors,
                    retire_errors: &metrics.media_retire_errors,
                };
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
                    let (count, max_seq) =
                        rebuild_partition(&mut partitions[pid], version, &media, &mut tl)?;
                    recovered_tables += count;
                    seq = seq.max(max_seq);
                    let pm = version.unsorted.iter().chain(&version.sorted);
                    live_regions.extend(pm.chain(&version.matrix));
                    for meta in version
                        .l0_tables
                        .iter()
                        .chain(version.levels.iter().flatten())
                    {
                        table_counter.fetch_max(table_name_counter(&meta.name), Ordering::Relaxed);
                        live_tables.insert(meta.name.clone());
                    }
                }
                table_counter.fetch_max(state.table_counter, Ordering::Relaxed);
                seq = seq.max(state.checkpoints.values().copied().max().unwrap_or(0));
                // GC orphans: media published by a crashed process whose
                // manifest edit never landed. Nothing references them.
                for id in pool.region_ids() {
                    if !live_regions.contains(&id) && pool.free(id).is_err() {
                        retire_errors += 1;
                    }
                }
                for name in device.list() {
                    if !live_tables.contains(&name) && device.delete(&name).is_err() {
                        retire_errors += 1;
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
                retire_errors += manifest.take_retire_errors();
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
        metrics.media_retire_errors.add(retire_errors);
        metrics.recovery_wal_records_replayed.add(replayed_records);
        metrics.recovery_tables_reopened.add(recovered_tables);
        metrics
            .recovery_wall
            .record_nanos(recovery_start.elapsed().as_nanos() as u64);
        // Maintenance metrics are pre-registered in BOTH modes so a
        // Prometheus scrape of an Inline engine still lists them (at
        // zero) and dashboards render identically across modes.
        let queue_metrics = QueueMetrics::register(&registry);
        let maintenance = (opts.maintenance == MaintenanceMode::Background)
            .then(|| Arc::new(MaintenanceShared::new(queue_metrics)));
        let ring = EventRing::new(opts.event_log_capacity);
        let tracer = Tracer::new(opts.trace_sample_every, &registry);
        Ok(DbCore {
            partitions: partitions.into_iter().map(RwLock::new).collect(),
            committers,
            pool,
            device,
            cache,
            seq: AtomicU64::new(seq),
            clock: AtomicU64::new(0),
            table_counter,
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
        let retire_errors = m.take_retire_errors();
        drop(m);
        self.metrics.media_retire_errors.add(retire_errors);
        self.advance(tl.elapsed());
        Ok(())
    }

    /// Snapshot a partition's complete table set for a manifest edit;
    /// `None` without a manifest, where nothing would read it. The
    /// caller holds the partition lock, so the snapshot is the exact
    /// set a crash-reopen must rebuild.
    pub(super) fn partition_version(&self, p: &Partition) -> Option<PartitionVersion> {
        self.manifest.as_ref()?;
        let mut v = PartitionVersion {
            partition: p.id as u64,
            ..PartitionVersion::default()
        };
        p.level0.record(&mut v);
        let levels = p.levels.levels.iter();
        v.levels = levels
            .map(|lvl| lvl.iter().map(SsTableHandle::meta).collect())
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
                let retire_errors = &self.metrics.media_retire_errors;
                let deleted = ring.lock().prune(&checkpoints, retire_errors);
                self.metrics.wal_segments_deleted.add(deleted);
            }
        }
        Ok(())
    }
}
