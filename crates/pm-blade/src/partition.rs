//! One range partition of the LSM tree.
//!
//! Each partition is an independent LSM tree (§III): its own memtable,
//! level-0 (PM or SSD depending on the engine mode) and SSD level stack,
//! with its own access counters feeding the cost models.

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
use crate::handle::{CacheIds, PmRunWriter, SsTableHandle};
use crate::level0::PmLevel0;
use crate::levels::{SsRunWriter, SsdLevels};
use crate::matrix::MatrixL0;
use crate::options::{Mode, Options};
use crate::telemetry::CostDecision;

/// Level-0 representation, by engine mode.
pub enum Level0 {
    Pm(PmLevel0),
    Ssd(Vec<SsTableHandle>),
    Matrix(MatrixL0),
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
    /// PM regions of the tables that left level-0.
    pub retired_regions: Vec<pm_device::RegionId>,
    /// Cache ids of those tables, for group-cache invalidation.
    pub retired_cache_ids: Vec<u64>,
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

impl Level0 {
    /// Records held, every version counted. An SSD table reopened by
    /// recovery counts as 0: its file does not say.
    pub fn entries(&self) -> usize {
        match self {
            Level0::Pm(l0) => l0.entries(),
            Level0::Matrix(m) => m.entries(),
            Level0::Ssd(tables) => tables.iter().map(|h| h.table.entries_hint()).sum(),
        }
    }
}

/// The cursors of one kind of level-0, as one iterator type that keeps
/// its length hint: the merge sizes its sources once.
enum L0Cursors<P, M, S> {
    Pm(P),
    Matrix(M),
    Ssd(S),
}

impl<'a, P, M, S> Iterator for L0Cursors<P, M, S>
where
    P: Iterator<Item = Cursor<'a>>,
    M: Iterator<Item = Cursor<'a>>,
    S: Iterator<Item = Cursor<'a>>,
{
    type Item = Cursor<'a>;

    fn next(&mut self) -> Option<Cursor<'a>> {
        match self {
            L0Cursors::Pm(it) => it.next(),
            L0Cursors::Matrix(it) => it.next(),
            L0Cursors::Ssd(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            L0Cursors::Pm(it) => it.size_hint(),
            L0Cursors::Matrix(it) => it.size_hint(),
            L0Cursors::Ssd(it) => it.size_hint(),
        }
    }
}

/// SSD level-0 tables overlap: each is a run of its own.
fn ssd_l0_cursors<'a>(
    tables: &'a [SsTableHandle],
    end: Option<&'a [u8]>,
) -> impl Iterator<Item = Cursor<'a>> {
    let runs = tables.iter().map(std::slice::from_ref);
    runs.map(move |run| Cursor::Ss(SsRun::new(run, end)))
}

/// A major compaction's level-0 input is the `limit` oldest tables;
/// non-PM level-0s ignore the limit and move whole.
impl Level0 {
    /// One compaction cursor per sorted source among those tables.
    fn input_cursors(&self, limit: usize) -> impl Iterator<Item = Cursor<'_>> {
        match self {
            Level0::Pm(l0) => L0Cursors::Pm(l0.cursors(limit, None, None)),
            Level0::Matrix(m) => L0Cursors::Matrix(m.input_cursors()),
            Level0::Ssd(tables) => L0Cursors::Ssd(ssd_l0_cursors(tables, None)),
        }
    }

    /// The user-key range those tables span, from their fence keys;
    /// `None` when there is no table.
    fn input_range(&self, limit: usize) -> Option<(Vec<u8>, Vec<u8>)> {
        let (firsts, lasts): (Vec<&[u8]>, Vec<&[u8]>) = match self {
            Level0::Pm(l0) => {
                let (run, unsorted) = l0.oldest(limit);
                let tables = run.iter().chain(unsorted);
                tables.map(|h| (&*h.first, &*h.last)).unzip()
            }
            Level0::Matrix(m) => m.key_ranges().unzip(),
            Level0::Ssd(tables) => tables.iter().map(|h| (&h.first[..], &h.last[..])).unzip(),
        };
        let (first, last) = (firsts.into_iter().min()?, lasts.into_iter().max()?);
        Some((first.to_vec(), last.to_vec()))
    }
}

impl Partition {
    pub fn new(id: usize, opts: &Options, now: SimInstant) -> Self {
        let level0 = match opts.mode {
            Mode::PmBlade | Mode::PmBladePm => Level0::Pm(PmLevel0::new()),
            Mode::SsdLevel0 => Level0::Ssd(Vec::new()),
            Mode::MatrixKv => Level0::Matrix(MatrixL0::default()),
        };
        Partition {
            id,
            mem: MemTable::new(opts.cost),
            level0,
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

    /// PM bytes held by this partition (`s_i`).
    pub fn pm_bytes(&self) -> usize {
        match &self.level0 {
            Level0::Pm(l0) => l0.bytes(),
            Level0::Matrix(m) => m.bytes(),
            Level0::Ssd(_) => 0,
        }
    }

    /// Unsorted-table count (`n_i`), zero for non-PM level-0s.
    pub fn unsorted_count(&self) -> usize {
        match &self.level0 {
            Level0::Pm(l0) => l0.unsorted_count(),
            Level0::Matrix(m) => m.rows(),
            Level0::Ssd(tables) => tables.len(),
        }
    }

    /// Total PM level-0 tables (sorted run + unsorted), the unit the §V
    /// compaction splitter chunks by. Zero for non-PM level-0s, whose
    /// major compactions are not chunkable.
    pub fn l0_table_count(&self) -> usize {
        match &self.level0 {
            Level0::Pm(l0) => l0.sorted_count() + l0.unsorted_count(),
            _ => 0,
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
        let level0 = match &self.level0 {
            Level0::Pm(l0) => L0Cursors::Pm(l0.cursors(usize::MAX, end, Some(cache))),
            Level0::Matrix(m) => L0Cursors::Matrix(m.cursors(start, end)),
            Level0::Ssd(tables) => L0Cursors::Ssd(ssd_l0_cursors(tables, end)),
        };
        let mem = std::iter::once(Cursor::Mem(self.mem.cursor()));
        mem.chain(level0).chain(self.levels.cursors(end))
    }

    /// Minor compaction: freeze the memtable and flush it to level-0.
    /// Returns the report, or `None` when the memtable was empty.
    #[allow(clippy::too_many_arguments)]
    pub fn minor_compaction(
        &mut self,
        opts: &Options,
        codec_costs: &CodecCostTable,
        pool: &PmPool,
        device: &Arc<SsdDevice>,
        cache: &Arc<BlockCache>,
        table_counter: &AtomicU64,
        cache_ids: &CacheIds,
        tl: &mut Timeline,
    ) -> Result<Option<CompactionReport>, crate::engine::DbError> {
        if self.mem.is_empty() {
            return Ok(None);
        }
        let frozen = std::mem::replace(&mut self.mem, MemTable::new(self.cost));
        // The frozen memtable streams into one new level-0 table (neither
        // writer is given a size to cut at); the report is tallied as
        // its entries go by.
        let flushed = (|| {
            let mut report = CompactionReport {
                records_in: frozen.len(),
                records_out: frozen.len(),
                ..CompactionReport::default()
            };
            let entries = frozen.iter().inspect(|e| {
                report.raw_bytes += e.raw_len();
                report.durable_seq = report.durable_seq.max(Some(e.seq));
            });
            match &mut self.level0 {
                Level0::Pm(l0) => {
                    let written = &pool.stats().bytes_written;
                    let written_before = written.get();
                    let mut writer =
                        PmRunWriter::new(opts, codec_costs, usize::MAX, pool, cache_ids);
                    for e in entries {
                        writer.add(e, tl)?;
                    }
                    for (table, keys) in writer.finish(tl)? {
                        // Only PM-table flushes pick a codec; the matrix
                        // and SSD level-0 containers have none to choose.
                        report.decision = Some(CostDecision::CodecChoice {
                            partition: self.id,
                            codec: pmtable::CODEC_NAMES[table.codec as usize],
                            entries: frozen.len(),
                            pm_bytes: (written.get() - written_before) as usize,
                        });
                        l0.push_unsorted(table, keys);
                    }
                }
                Level0::Matrix(m) => m.flush_row(entries, opts, pool, tl)?,
                Level0::Ssd(tables) => {
                    let prefix = format!("p{:03}-L0", self.id);
                    let mut writer =
                        SsRunWriter::new(device, cache, prefix, table_counter, usize::MAX);
                    for e in entries {
                        writer.add(e, tl)?;
                    }
                    tables.extend(writer.finish(tl)?);
                }
            }
            Ok(report)
        })();
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
        flushed.map(Some)
    }

    /// Internal compaction (§IV-B): merge all PM tables into a fresh
    /// sorted run. Returns the report, or `None` when there was nothing
    /// to merge.
    pub fn internal_compaction(
        &mut self,
        opts: &Options,
        codec_costs: &CodecCostTable,
        pool: &PmPool,
        cache_ids: &CacheIds,
        input_errors: &Counter,
        tl: &mut Timeline,
    ) -> Result<Option<CompactionReport>, crate::engine::DbError> {
        let Level0::Pm(l0) = &mut self.level0 else {
            return Ok(None);
        };
        if l0.unsorted_count() == 0 {
            return Ok(None);
        }
        let max_bytes = opts.max_table_bytes;
        let mut writer = PmRunWriter::new(opts, codec_costs, max_bytes, pool, cache_ids);
        // Keep tombstones: deeper levels may still hold older versions.
        let inputs = l0.cursors(usize::MAX, None, None);
        let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
        let records_in = merge_into(inputs, false, &opts.cost, input_errors, tl, sink)? as usize;
        let run: Vec<_> = writer.finish(tl)?.into_iter().map(|(h, _)| h).collect();
        let records_out = run.iter().map(|h| h.entries).sum();
        let new_bytes: usize = run.iter().map(|h| h.bytes).sum();
        let old_bytes = l0.bytes();
        let (_freed, retired_regions, retired_cache_ids) = l0.replace_with_sorted_deferred(run);
        Ok(Some(CompactionReport {
            records_in,
            records_out,
            bytes_released: old_bytes.saturating_sub(new_bytes),
            retired_regions,
            retired_cache_ids,
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
    #[allow(clippy::too_many_arguments)]
    pub fn major_compaction(
        &mut self,
        opts: &Options,
        device: &Arc<SsdDevice>,
        cache: &Arc<BlockCache>,
        table_counter: &AtomicU64,
        table_limit: usize,
        input_errors: &Counter,
        tl: &mut Timeline,
    ) -> Result<CompactionReport, crate::engine::DbError> {
        let l0_records = self.level0.entries();
        let range = self.level0.input_range(table_limit);
        let mut deleted: Vec<String> = Vec::new();
        let moved = range.is_some();
        if let Some((first, last)) = range {
            // Merge with the overlapping level-1 tables, as one more run.
            let l1_overlap = self.levels.overlapping(1, &first, &last);
            let l1 = Cursor::Ss(SsRun::new(&l1_overlap, None));
            let sources = self.level0.input_cursors(table_limit).chain([l1]);
            // Tombstones can drop only when no deeper level holds the key
            // range; be conservative: drop only when levels below 1 are empty.
            let drop_tombstones = self.levels.depth() <= 1;
            let prefix = format!("p{:03}-L1", self.id);
            let mut writer =
                SsRunWriter::new(device, cache, prefix, table_counter, opts.max_table_bytes);
            let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            merge_into(sources, drop_tombstones, &opts.cost, input_errors, tl, sink)?;
            let new_tables = writer.finish(tl)?;
            // Install: keep non-overlapping old L1 tables, insert the new run.
            let old_l1 = self.levels.replace_level(1, Vec::new());
            let mut next_l1: Vec<SsTableHandle> = Vec::new();
            for handle in old_l1 {
                if l1_overlap.iter().any(|o| o.name == handle.name) {
                    deleted.push(handle.name.clone());
                } else {
                    next_l1.push(handle);
                }
            }
            next_l1.extend(new_tables);
            next_l1.sort_by(|a, b| a.first.cmp(&b.first));
            self.levels.replace_level(1, next_l1);
        }
        // Detach the moved level-0 tables (nothing, when level-0 was
        // empty). SSD tables are deleted by name; PM regions are freed
        // by the engine once the manifest edit recording this version
        // is durable.
        let (retired_regions, retired_cache_ids) = match &mut self.level0 {
            Level0::Pm(l0) => l0.detach_oldest(table_limit),
            Level0::Matrix(m) => (m.take_regions(), Vec::new()),
            Level0::Ssd(tables) => {
                deleted.extend(tables.drain(..).map(|handle| handle.name));
                (Vec::new(), Vec::new())
            }
        };
        if moved {
            // Cascade oversized deeper levels.
            let cascaded =
                self.cascade_levels(opts, device, cache, table_counter, input_errors, tl)?;
            deleted.extend(cascaded);
        }
        let records = l0_records.saturating_sub(self.level0.entries());
        Ok(CompactionReport {
            records_in: records,
            records_out: records,
            retired_regions,
            retired_cache_ids,
            deleted_tables: deleted,
            ..CompactionReport::default()
        })
    }

    /// Push oversized levels downward until every level fits its target.
    fn cascade_levels(
        &mut self,
        opts: &Options,
        device: &Arc<SsdDevice>,
        cache: &Arc<BlockCache>,
        table_counter: &AtomicU64,
        input_errors: &Counter,
        tl: &mut Timeline,
    ) -> Result<Vec<String>, crate::engine::DbError> {
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
            let mut writer =
                SsRunWriter::new(device, cache, prefix, table_counter, opts.max_table_bytes);
            let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            merge_into(sources, bottom, &opts.cost, input_errors, tl, sink)?;
            let new_tables = writer.finish(tl)?;
            let this_level = self.levels.replace_level(level, Vec::new());
            let next_level = self.levels.replace_level(level + 1, new_tables);
            deleted.extend(this_level.into_iter().chain(next_level).map(|h| h.name));
            level += 1;
        }
        Ok(deleted)
    }

    /// Should the RocksDB-style level-0 trigger fire?
    pub fn ssd_l0_full(&self, trigger: usize) -> bool {
        matches!(&self.level0, Level0::Ssd(tables) if tables.len() >= trigger)
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("mem_bytes", &self.mem.approximate_size())
            .field("pm_bytes", &self.pm_bytes())
            .field("ssd_bytes", &self.levels.total_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::tests::drain;
    use crate::handle::merge_dedup;
    use encoding::key::KeyKind;
    use pmtable::{L0Table, OwnedEntry};
    use proptest::prelude::*;

    /// One partition and everything its compactions are handed.
    struct Rig {
        opts: Options,
        costs: CodecCostTable,
        pool: Arc<PmPool>,
        device: Arc<SsdDevice>,
        cache: Arc<BlockCache>,
        counter: AtomicU64,
        ids: CacheIds,
        errors: Counter,
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
                pool: PmPool::new(64 << 20, opts.cost),
                device: SsdDevice::new(opts.cost),
                cache: Arc::new(BlockCache::new(64 << 10)),
                counter: AtomicU64::new(0),
                ids: CacheIds::new(),
                errors: Counter::new(),
                p: Partition::new(0, &opts, SimInstant::ORIGIN),
                seq: 0,
                opts,
                costs: CodecCostTable::default(),
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
            let Rig {
                opts,
                costs,
                pool,
                device,
                cache,
                counter,
                ids,
                ..
            } = self;
            self.p
                .minor_compaction(opts, costs, pool, device, cache, counter, ids, &mut tl)
                .unwrap();
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
                    let rows = m.input_cursors();
                    rows.map(|row| drain(vec![row], b"", None, false)).collect()
                }
            }
        }

        fn major(&mut self) -> CompactionReport {
            // The cascade is driven on its own.
            let opts = Options {
                l1_target: 1 << 40,
                level_multiplier: 1,
                ..self.opts.clone()
            };
            let Rig {
                device,
                cache,
                counter,
                errors,
                ..
            } = self;
            let mut tl = Timeline::new();
            let limit = usize::MAX;
            let major = self
                .p
                .major_compaction(&opts, device, cache, counter, limit, errors, &mut tl);
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
        rig.pool = PmPool::new(12 << 10, rig.opts.cost);
        // Four tables of 40 distinct keys, about 2 KiB each: the merged
        // run is as large again and stops fitting a couple of tables
        // in, with most of its input still unread.
        for table in 0..4u8 {
            let keys: Vec<(u8, bool)> = (0..40).map(|i| (table * 40 + i, false)).collect();
            rig.flush(&keys);
        }
        let Rig {
            opts,
            costs,
            pool,
            ids,
            errors,
            p,
            ..
        } = &mut rig;
        let failed = p.internal_compaction(opts, costs, pool, ids, errors, &mut Timeline::new());
        use {crate::engine::DbError, pm_device::PmError};
        let full = matches!(failed, Err(DbError::Pm(PmError::OutOfSpace { .. })));
        assert!(full, "{failed:?}");
        assert!(
            pool.stats().persists.get() > 4,
            "part of the new run was published before the pool filled up"
        );
        assert_eq!(errors.get(), 0, "no input failed to read");
        assert_eq!((p.unsorted_count(), p.l0_table_count()), (4, 4));
        let Level0::Pm(l0) = &p.level0 else {
            unreachable!("PmBlade mode keeps a PM level-0")
        };
        let (cache, tl) = (PmGroupCache::disabled(), &mut Timeline::new());
        for k in 0..160u8 {
            let (mut stats, mut stages) = Default::default();
            let key = [b'k', k];
            let probe = crate::level0::Probe::new(&key, u64::MAX, &cache);
            let hit = l0.get(&probe, tl, &mut stats, &mut stages);
            assert_eq!(hit.unwrap().value, vec![k; 40]);
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
                    if let Level0::Pm(_) = &rig.p.level0 {
                        let sources = rig.l0_sources();
                        let records: usize = sources.iter().map(Vec::len).sum();
                        let expect = reference(sources, false);
                        let Rig { opts, costs, pool, ids, errors, p, .. } = &mut rig;
                        let mut tl = Timeline::new();
                        let report = p.internal_compaction(opts, costs, pool, ids, errors, &mut tl);
                        let report = report.unwrap().expect("three unsorted tables merge");
                        prop_assert_eq!(report.records_in, records);
                        prop_assert_eq!(report.records_out, expect.len());
                        let run = rig.l0_sources().concat();
                        prop_assert_eq!(run, expect);
                        if small_tables && records > 12 {
                            prop_assert!(rig.p.l0_table_count() > 1, "the run was cut");
                        }
                    }
                    // Major: level-0 and the level-1 tables its range
                    // overlaps merge; the rest of level 1 stays.
                    let mut sources = rig.l0_sources();
                    let first = sources.iter().map(|s| &s[0].user_key).min().unwrap();
                    let last = sources.iter().map(|s| &s[s.len() - 1].user_key).max().unwrap();
                    let overlap = rig.p.levels.overlapping(1, first, last);
                    let untouched: Vec<SsTableHandle> = rig.p.levels.tables(1).iter()
                        .filter(|t| overlap.iter().all(|o| o.name != t.name))
                        .cloned()
                        .collect();
                    sources.push(ss_content(&overlap));
                    let mut expect = reference(sources, rig.p.levels.depth() <= 1);
                    expect.extend(ss_content(&untouched));
                    expect.sort_by(|a, b| a.internal_cmp(b));
                    let report = rig.major();
                    prop_assert_eq!(ss_content(rig.p.levels.tables(1)), expect);
                    prop_assert_eq!(rig.p.unsorted_count() + rig.p.pm_bytes(), 0);
                    let replaced = overlap.iter().map(|t| &t.name);
                    prop_assert!(replaced.clone().all(|name| report.deleted_tables.contains(name)));
                    // Cascade: all of level 1 into level 2, the bottom.
                    let levels = [1, 2].map(|level| ss_content(rig.p.levels.tables(level)));
                    let expect = reference(levels.into(), true);
                    let Rig { opts, device, cache, counter, errors, p, .. } = &mut rig;
                    let mut tl = Timeline::new();
                    p.cascade_levels(opts, device, cache, counter, errors, &mut tl).unwrap();
                    prop_assert!(rig.p.levels.tables(1).is_empty());
                    if small_tables && expect.len() > 24 {
                        prop_assert!(rig.p.levels.tables(2).len() > 1, "the run was cut");
                    }
                    prop_assert_eq!(ss_content(rig.p.levels.tables(2)), expect);
                }
                prop_assert_eq!(rig.errors.get(), 0);
            }
        }
    }
}
