//! One range partition of the LSM tree.
//!
//! Each partition is an independent LSM tree (§III): its own memtable,
//! level-0 (PM or SSD depending on the engine mode; see
//! [`crate::level0::Level0`]) and SSD level stack, with its own access
//! counters feeding the cost models.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use memtable::MemTable;
use pm_device::PmPool;
use pmtable::EntryRef;
use sim::{CostModel, Counter, SimInstant, Timeline};
use ssd_device::SsdDevice;
use sstable::BlockCache;

use crate::costmodel::{CodecCostTable, PartitionCounters};
use crate::cursor::{merge_into, Cursor, SsRun};
use crate::groupcache::PmGroupCache;
use crate::handle::PmRunWriter;
use crate::level0::Level0;
use crate::levels::{SsRunWriter, SsdLevels};
use crate::options::Options;
use crate::telemetry::CostDecision;

/// What every compaction is handed: the engine's options and codec
/// costs, both devices, the block cache, the SSTable name allocator,
/// the counter a compaction ticks when one of its inputs cannot be read,
/// and the one it ticks when an output it abandons cannot be deleted.
#[derive(Clone, Copy)]
pub struct Media<'a> {
    pub opts: &'a Options,
    pub codec_costs: &'a CodecCostTable,
    pub pool: &'a PmPool,
    pub device: &'a Arc<SsdDevice>,
    pub cache: &'a Arc<BlockCache>,
    /// SSTable name allocator.
    pub table_counter: &'a AtomicU64,
    pub input_errors: &'a Counter,
    /// `media_retire_errors_total`.
    pub retire_errors: &'a Counter,
}

impl Media<'_> {
    /// Delete SSTable `name`, which no version references, counting a
    /// failure in `retire_errors`.
    pub(crate) fn discard_table(&self, name: &str) {
        let failed = self.device.delete(name).is_err();
        self.retire_errors.add(failed.into());
    }
}

/// What one compaction — minor, internal or major — did: the numbers
/// its span reports and the media it retired. The engine frees and
/// deletes those only after the manifest edit recording the new
/// version is durable.
#[derive(Clone, Debug, Default)]
pub struct CompactionReport {
    /// Records read from the inputs; of a major compaction, the level-0
    /// records it moved (for a limited pass, the moved slice).
    pub records_in: usize,
    /// Records that survived into the output.
    pub records_out: usize,
    /// Flush: key and value bytes of the flushed entries (the user
    /// bytes write amplification is measured against).
    pub raw_bytes: usize,
    /// Flush: highest sequence number in the flushed batch; everything
    /// at or below it (for this partition) is now durable in level-0,
    /// so WAL records up to here need not be replayed on recovery.
    pub durable_seq: Option<u64>,
    /// Flush into PM tables: the codec the flush encoded with — what
    /// Auto mode actually chose — and what that wrote.
    pub decision: Option<CostDecision>,
    /// Internal: PM bytes the new sorted run is smaller than its inputs.
    pub bytes_released: usize,
    /// PM regions that left level-0, of PM tables or matrix rows: to
    /// free, and to purge from the group cache.
    pub retired: Vec<pm_device::RegionId>,
    /// SSTables replaced or drained, to delete by name.
    pub deleted_tables: Vec<String>,
}

/// One partition's state.
pub struct Partition {
    pub id: usize,
    pub mem: MemTable,
    pub level0: Level0,
    pub levels: SsdLevels,
    pub counters: PartitionCounters,
    /// Approximate set of user keys present (hashes), used to classify
    /// writes as inserts vs updates for Eq 2.
    seen_keys: encoding::hash::HashSet<u64>,
    cost: CostModel,
}

fn hash_key(key: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Partition {
    pub fn new(id: usize, opts: &Options, now: SimInstant) -> Self {
        Partition {
            id,
            mem: MemTable::new(opts.cost),
            level0: Level0::new(opts.mode),
            levels: SsdLevels::new(),
            counters: PartitionCounters::new(now),
            seen_keys: Default::default(),
            cost: opts.cost,
        }
    }

    /// Record a write for the cost-model counters.
    pub fn note_write(&mut self, user_key: &[u8]) {
        self.counters.writes.incr();
        if !self.seen_keys.insert(hash_key(user_key)) {
            self.counters.updates.incr();
        }
    }

    /// One scan cursor per sorted source of `[start, end)`, across all
    /// tiers; PM groups are fetched through `cache`.
    pub fn cursors<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        cache: &'a PmGroupCache,
    ) -> impl Iterator<Item = Cursor<'a>> {
        let level0 = self.level0.cursors(usize::MAX, start, end, Some(cache));
        let mem = std::iter::once(Cursor::Mem(self.mem.cursor()));
        mem.chain(level0).chain(self.levels.cursors(end))
    }

    /// Minor compaction: freeze the memtable and flush it to level-0.
    /// Returns the report, or `None` when the memtable was empty.
    pub fn minor_compaction(
        &mut self,
        media: &Media<'_>,
        tl: &mut Timeline,
    ) -> Result<Option<CompactionReport>, crate::engine::DbError> {
        if self.mem.is_empty() {
            return Ok(None);
        }
        let frozen = std::mem::replace(&mut self.mem, MemTable::new(self.cost));
        // The frozen memtable streams into level-0; the report is
        // tallied as its entries go by.
        let mut report = CompactionReport {
            records_in: frozen.len(),
            records_out: frozen.len(),
            ..CompactionReport::default()
        };
        let entries = frozen.iter().inspect(|e| {
            report.raw_bytes += e.raw_len();
            report.durable_seq = report.durable_seq.max(Some(e.seq));
        });
        let flushed = self.level0.flush(self.id, entries, media, tl);
        if flushed.is_err() {
            // Put the frozen memtable back before surfacing the error:
            // a background worker has nowhere to report it, and silently
            // dropping the entries would lose committed writes. Writes
            // that raced into the fresh memtable sort newer (higher
            // seq), so re-inserting them over the frozen entries is safe.
            let racing = std::mem::replace(&mut self.mem, frozen);
            for r in racing.iter() {
                self.mem.insert(r.user_key, r.seq, r.kind, r.value, tl);
            }
        }
        report.decision = flushed?;
        Ok(Some(report))
    }

    /// Internal compaction (§IV-B): merge all PM tables into a fresh
    /// sorted run. Returns the report, or `None` when there was nothing
    /// to merge.
    pub fn internal_compaction(
        &mut self,
        media: &Media<'_>,
        tl: &mut Timeline,
    ) -> Result<Option<CompactionReport>, crate::engine::DbError> {
        let Some(l0) = self.level0.pm_mut() else {
            return Ok(None);
        };
        if l0.unsorted_count() == 0 {
            return Ok(None);
        }
        let opts = media.opts;
        let mut writer = PmRunWriter::new(media, opts.max_table_bytes);
        // Keep tombstones: deeper levels may still hold older versions.
        let inputs = l0.cursors(usize::MAX, None, None);
        let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
        let errors = media.input_errors;
        let records_in = merge_into(inputs, false, &opts.cost, errors, tl, sink)? as usize;
        let run = writer.finish(tl)?.into_iter().map(|(h, _)| h).collect();
        let old_bytes = l0.bytes();
        let retired = l0.replace_with_sorted_deferred(run);
        Ok(Some(CompactionReport {
            records_in,
            records_out: l0.entries(),
            bytes_released: old_bytes.saturating_sub(l0.bytes()),
            retired,
            ..CompactionReport::default()
        }))
    }

    /// Major compaction: move this partition's level-0 into level-1,
    /// merging with the overlapping level-1 tables.
    ///
    /// `table_limit` bounds how many level-0 tables move in this pass
    /// (`usize::MAX` = the whole level-0). Background workers pass the
    /// §V chunk size so the partition's write lock is released between
    /// chunks; the oldest tables move first (see
    /// [`crate::level0::L0Version::oldest`]) so reads stay correct
    /// mid-compaction.
    /// Non-PM level-0s ignore the limit and drain fully.
    ///
    /// Every input is read to its end before anything is detached or
    /// replaced: an SSTable that cannot be read fails the compaction
    /// (ticking `input_errors`) with every input table still in place,
    /// and the run writer removes the outputs it had already finished.
    pub fn major_compaction(
        &mut self,
        media: &Media<'_>,
        table_limit: usize,
        tl: &mut Timeline,
    ) -> Result<CompactionReport, crate::engine::DbError> {
        let l0_records = self.level0.entries();
        let range = self.level0.input_range(table_limit);
        let mut report = CompactionReport::default();
        let moved = range.is_some();
        if let Some((first, last)) = range {
            // Merge with the level-1 tables the range overlaps, as one
            // more run; the output takes their place.
            let overlap = self.levels.overlap(1, &first, &last);
            let l1 = Cursor::Ss(SsRun::new(&self.levels.tables(1)[overlap.clone()], None));
            let l0 = self.level0.cursors(table_limit, b"", None, None);
            let sources = l0.chain([l1]);
            // Tombstones can drop only when no deeper level holds the key
            // range; be conservative: drop only when levels below 1 are empty.
            let drop_tombstones = self.levels.depth() <= 1;
            let prefix = format!("p{:03}-L1", self.id);
            let mut writer = SsRunWriter::new(media, prefix, media.opts.max_table_bytes);
            let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            let (cost, errors) = (&media.opts.cost, media.input_errors);
            merge_into(sources, drop_tombstones, cost, errors, tl, sink)?;
            let replaced = self.levels.splice(1, overlap, writer.finish(tl)?);
            let names = replaced.iter().map(|h| h.table.name().to_string());
            report.deleted_tables.extend(names);
        }
        // Detach the moved level-0 tables (nothing, when level-0 was
        // empty). The engine deletes or frees them once the manifest
        // edit recording this version is durable.
        self.level0.detach_oldest(table_limit, &mut report);
        if moved {
            // Cascade oversized deeper levels.
            let cascaded = self.cascade_levels(media, tl)?;
            report.deleted_tables.extend(cascaded);
        }
        report.records_in = l0_records.saturating_sub(self.level0.entries());
        report.records_out = report.records_in;
        Ok(report)
    }

    /// Push oversized levels downward until every level fits its target.
    fn cascade_levels(
        &mut self,
        media: &Media<'_>,
        tl: &mut Timeline,
    ) -> Result<Vec<String>, crate::engine::DbError> {
        let opts = media.opts;
        let mut deleted = Vec::new();
        let mut level = 1usize;
        while level <= self.levels.depth() {
            let target =
                opts.l1_target as u64 * (opts.level_multiplier as u64).pow(level as u32 - 1);
            if self.levels.level_bytes(level) <= target {
                level += 1;
                continue;
            }
            // Merge the whole level into the next one. Both stay in
            // place until every table of both has been read.
            let runs = [self.levels.tables(level), self.levels.tables(level + 1)];
            let sources = runs.map(|run| Cursor::Ss(SsRun::new(run, None)));
            let bottom = level + 1 >= self.levels.depth();
            let prefix = format!("p{:03}-L{}", self.id, level + 1);
            let mut writer = SsRunWriter::new(media, prefix, opts.max_table_bytes);
            let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            merge_into(sources, bottom, &opts.cost, media.input_errors, tl, sink)?;
            let new_tables = writer.finish(tl)?;
            let this_level = self.levels.splice(level, .., Vec::new());
            let next_level = self.levels.splice(level + 1, .., new_tables);
            let tables = this_level.into_iter().chain(next_level);
            deleted.extend(tables.map(|h| h.table.name().to_string()));
            level += 1;
        }
        Ok(deleted)
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("mem_bytes", &self.mem.approximate_size())
            .field("pm_bytes", &self.level0.bytes())
            .field("ssd_bytes", &self.levels.total_bytes())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cursor::tests::drain;
    use crate::handle::{merge_dedup, SsTableHandle};
    use crate::options::Mode;
    use crate::stats::ReadSource;
    use encoding::key::KeyKind;
    use pmtable::OwnedEntry;
    use proptest::prelude::*;

    /// What [`Media`] borrows, owned.
    pub(crate) struct Store {
        opts: Options,
        costs: CodecCostTable,
        pool: Arc<PmPool>,
        device: Arc<SsdDevice>,
        cache: Arc<BlockCache>,
        counter: AtomicU64,
        errors: Counter,
        retire_errors: Counter,
    }

    impl Store {
        /// Fresh media under `opts`: a 64 MiB pool, a 64 KiB block cache.
        pub(crate) fn new(opts: Options) -> Store {
            Store {
                pool: PmPool::new(64 << 20, opts.cost),
                device: SsdDevice::new(opts.cost),
                cache: Arc::new(BlockCache::new(64 << 10)),
                counter: AtomicU64::new(0),
                errors: Counter::new(),
                retire_errors: Counter::new(),
                opts,
                costs: CodecCostTable::default(),
            }
        }

        pub(crate) fn media(&self) -> Media<'_> {
            Media {
                opts: &self.opts,
                codec_costs: &self.costs,
                pool: &self.pool,
                device: &self.device,
                cache: &self.cache,
                table_counter: &self.counter,
                input_errors: &self.errors,
                retire_errors: &self.retire_errors,
            }
        }
    }

    /// One partition and everything its compactions are handed.
    struct Rig {
        store: Store,
        p: Partition,
        seq: u64,
    }

    impl Rig {
        fn new(mode: Mode, max_table_bytes: usize) -> Rig {
            let opts = Options {
                mode,
                max_table_bytes,
                // Exactly one cascade per `cascade_levels` call: level 1
                // is always over its target, level 2 never.
                l1_target: 1,
                level_multiplier: 1 << 30,
                ..Options::default()
            };
            Rig {
                p: Partition::new(0, &opts, SimInstant::ORIGIN),
                seq: 0,
                store: Store::new(opts),
            }
        }

        /// Write a batch and flush it; returns what the memtable held.
        fn flush(&mut self, batch: &[(u8, bool)]) -> Vec<OwnedEntry> {
            let mut tl = Timeline::new();
            for &(k, delete) in batch {
                self.seq += 1;
                let key = [b'k', k];
                let kind = if delete {
                    KeyKind::Delete
                } else {
                    KeyKind::Value
                };
                self.p.mem.insert(&key, self.seq, kind, &[k; 40], &mut tl);
            }
            let held = self.p.mem.iter().map(|e| e.to_owned()).collect();
            let media = self.store.media();
            self.p.minor_compaction(&media, &mut tl).unwrap();
            held
        }

        /// Level-0 as merge sources, one per table. Matrix rows hide
        /// their raw entries: a row comes deduplicated, which is the same
        /// to any merge over it.
        fn l0_sources(&self) -> Vec<Vec<OwnedEntry>> {
            let scan_pm = |h: &crate::handle::PmTableHandle| h.table.scan_all(&mut Timeline::new());
            match &self.p.level0 {
                Level0::Pm(l0) => l0.tables().map(scan_pm).collect(),
                Level0::Ssd(tables) => tables
                    .iter()
                    .map(|t| ss_content(std::slice::from_ref(t)))
                    .collect(),
                Level0::Matrix(m) => {
                    let rows = m.cursors(b"", None, true);
                    rows.map(|row| drain(vec![row], b"", None, false)).collect()
                }
            }
        }

        fn major(&mut self) -> CompactionReport {
            // The cascade is driven on its own.
            let opts = Options {
                l1_target: 1 << 40,
                level_multiplier: 1,
                ..self.store.opts.clone()
            };
            let media = Media {
                opts: &opts,
                ..self.store.media()
            };
            let mut tl = Timeline::new();
            let major = self.p.major_compaction(&media, usize::MAX, &mut tl);
            major.unwrap()
        }
    }

    /// Every entry of a run of SSTables, in order.
    fn ss_content(tables: &[SsTableHandle]) -> Vec<OwnedEntry> {
        let mut out = Vec::new();
        for handle in tables {
            for (ikey, value) in handle.table.scan_all(&mut Timeline::new()).unwrap() {
                out.push(EntryRef::parse(&ikey, &value).unwrap().to_owned());
            }
        }
        out
    }

    fn reference(sources: Vec<Vec<OwnedEntry>>, drop_tombstones: bool) -> Vec<OwnedEntry> {
        merge_dedup(
            sources,
            drop_tombstones,
            &CostModel::default(),
            &mut Timeline::new(),
        )
    }

    #[test]
    fn an_internal_compaction_that_runs_out_of_pm_installs_and_detaches_nothing() {
        let mut rig = Rig::new(Mode::PmBlade, 2 << 10);
        rig.store.pool = PmPool::new(12 << 10, rig.store.opts.cost);
        // Four tables of 40 distinct keys, about 2 KiB each: the merged
        // run is as large again and stops fitting a couple of tables
        // in, with most of its input still unread.
        for table in 0..4u8 {
            let keys: Vec<(u8, bool)> = (0..40).map(|i| (table * 40 + i, false)).collect();
            rig.flush(&keys);
        }
        let Rig { store, p, .. } = &mut rig;
        let (used, regions) = (store.pool.used(), store.pool.region_ids());
        let failed = p.internal_compaction(&store.media(), &mut Timeline::new());
        use {crate::engine::DbError, pm_device::PmError};
        let full = matches!(failed, Err(DbError::Pm(PmError::OutOfSpace { .. })));
        assert!(full, "{failed:?}");
        assert!(
            store.pool.stats().persists.get() > 4,
            "part of the new run was published before the pool filled up"
        );
        let after = (store.pool.used(), store.pool.region_ids());
        assert_eq!(after, (used, regions), "what the run published is freed");
        assert_eq!(store.errors.get(), 0, "no input failed to read");
        assert_eq!(store.retire_errors.get(), 0);
        let counts = (p.level0.unsorted_count(), p.level0.chunkable_tables());
        assert_eq!(counts, (4, 4));
        let (cache, tl) = (PmGroupCache::disabled(), &mut Timeline::new());
        for k in 0..160u8 {
            let (mut stats, mut stages) = Default::default();
            let key = [b'k', k];
            let probe = crate::level0::Probe::new(&key, &cache);
            let found = p.level0.get(&probe, tl, &mut stats, &mut stages).unwrap();
            let (hit, source, _) = found.expect("every key is still in level-0");
            assert_eq!((hit.value, source), (vec![k; 40], ReadSource::Pm));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `handle::merge_dedup` over the collected inputs is the
        /// reference for what each compaction kind streams out: flushes
        /// (every version kept), an internal compaction (tombstones
        /// kept), majors from each kind of level-0 into an empty level 1
        /// (tombstones dropped) and into an overlapping one above a
        /// level 2 (kept), and cascades — with duplicate keys within and
        /// across sources, through both run writers, at a table size
        /// that cuts mid-stream and one that never cuts.
        #[test]
        fn streamed_compactions_equal_merge_dedup(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..48, proptest::bool::ANY), 1..40), 6),
            small_tables in proptest::bool::ANY,
        ) {
            let max_table_bytes = if small_tables { 600 } else { 1 << 20 };
            for mode in [Mode::PmBlade, Mode::SsdLevel0, Mode::MatrixKv] {
                let mut rig = Rig::new(mode, max_table_bytes);
                for round in batches.chunks(3) {
                    // Flushes keep every version.
                    for batch in round {
                        let held = rig.flush(batch);
                        let sources = rig.l0_sources();
                        if mode == Mode::MatrixKv {
                            prop_assert_eq!(sources.last().unwrap(), &reference(vec![held], false));
                        } else {
                            prop_assert_eq!(sources.last().unwrap(), &held);
                        }
                    }
                    if rig.p.level0.pm().is_some() {
                        let sources = rig.l0_sources();
                        let records: usize = sources.iter().map(Vec::len).sum();
                        let expect = reference(sources, false);
                        let Rig { store, p, .. } = &mut rig;
                        let mut tl = Timeline::new();
                        let report = p.internal_compaction(&store.media(), &mut tl);
                        let report = report.unwrap().expect("three unsorted tables merge");
                        prop_assert_eq!(report.records_in, records);
                        prop_assert_eq!(report.records_out, expect.len());
                        let run = rig.l0_sources().concat();
                        prop_assert_eq!(run, expect);
                        if small_tables && records > 12 {
                            prop_assert!(rig.p.level0.chunkable_tables() > 1, "the run was cut");
                        }
                    }
                    // Major: level-0 and the level-1 tables its range
                    // overlaps merge; the rest of level 1 stays.
                    let mut sources = rig.l0_sources();
                    let first = sources.iter().map(|s| &s[0].user_key).min().unwrap();
                    let last = sources.iter().map(|s| &s[s.len() - 1].user_key).max().unwrap();
                    let overlap = rig.p.levels.overlap(1, first, last);
                    let overlap = rig.p.levels.tables(1)[overlap].to_vec();
                    let untouched: Vec<SsTableHandle> = rig.p.levels.tables(1).iter()
                        .filter(|t| overlap.iter().all(|o| o.table.name() != t.table.name()))
                        .cloned()
                        .collect();
                    sources.push(ss_content(&overlap));
                    let mut expect = reference(sources, rig.p.levels.depth() <= 1);
                    expect.extend(ss_content(&untouched));
                    expect.sort_by(|a, b| a.internal_cmp(b));
                    let report = rig.major();
                    prop_assert_eq!(ss_content(rig.p.levels.tables(1)), expect);
                    prop_assert_eq!(rig.p.level0.unsorted_count() + rig.p.level0.bytes(), 0);
                    let deleted = |t: &SsTableHandle| report.deleted_tables.iter().any(|n| n == t.table.name());
                    prop_assert!(overlap.iter().all(deleted));
                    // Cascade: all of level 1 into level 2, the bottom.
                    let levels = [1, 2].map(|level| ss_content(rig.p.levels.tables(level)));
                    let expect = reference(levels.into(), true);
                    let Rig { store, p, .. } = &mut rig;
                    let mut tl = Timeline::new();
                    p.cascade_levels(&store.media(), &mut tl).unwrap();
                    prop_assert!(rig.p.levels.tables(1).is_empty());
                    if small_tables && expect.len() > 24 {
                        prop_assert!(rig.p.levels.tables(2).len() > 1, "the run was cut");
                    }
                    prop_assert_eq!(ss_content(rig.p.levels.tables(2)), expect);
                }
                prop_assert_eq!(rig.store.errors.get(), 0);
            }
        }
    }
}
