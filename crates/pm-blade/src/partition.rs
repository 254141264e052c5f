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
use sim::{Counter, SimInstant, Timeline};
use ssd_device::SsdDevice;
use sstable::BlockCache;

use crate::costmodel::{CodecCostTable, PartitionCounters};
use crate::cursor::{merge_into, Cursor};
use crate::groupcache::PmGroupCache;
use crate::handle::PmRunWriter;
use crate::level0::Level0;
use crate::levels::{SsRunWriter, SsdLevels};
use crate::options::Options;
use crate::run::RunCursor;
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
    /// SSTables written: the level they joined (0 for an SSD level-0
    /// flush, a major's landing level) and their bytes.
    pub ssd_written: Option<(usize, u64)>,
}

/// One partition's state.
pub struct Partition {
    pub id: usize,
    pub mem: MemTable,
    pub level0: Level0,
    pub levels: SsdLevels,
    pub counters: PartitionCounters,
    /// Approximate set of user keys present (each key's first filter
    /// hash), used to classify writes as inserts vs updates for Eq 2.
    seen_keys: encoding::hash::HashSet<u64>,
}

impl Partition {
    pub fn new(id: usize, opts: &Options, now: SimInstant) -> Self {
        Partition {
            id,
            mem: MemTable::with_budget(opts.cost, opts.memtable_bytes),
            level0: Level0::new(opts.mode),
            levels: SsdLevels::default(),
            counters: PartitionCounters::new(now),
            seen_keys: Default::default(),
        }
    }

    /// Record a write for the cost-model counters; `h1` is the first
    /// of the written key's [`encoding::bloom::BloomFilter::hashes`].
    pub fn note_write(&mut self, h1: u64) {
        self.counters.writes.incr();
        if !self.seen_keys.insert(h1) {
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
        mem.chain(level0)
            .chain(self.levels.cursors(end, Some(cache)))
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
        let fresh = self.mem.fresh();
        let frozen = std::mem::replace(&mut self.mem, fresh);
        // The frozen memtable streams into level-0; its largest
        // sequence is tallied as its entries go by.
        let mut report = CompactionReport {
            records_in: frozen.len(),
            records_out: frozen.len(),
            raw_bytes: frozen.raw_bytes(),
            ..CompactionReport::default()
        };
        let mut durable_seq = None;
        let entries = frozen
            .iter()
            .inspect(|e| durable_seq = durable_seq.max(Some(e.seq)));
        let flushed = self.level0.flush(self.id, entries, media, &mut report, tl);
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
        flushed?;
        report.durable_seq = durable_seq;
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
        writer.reserve(l0.entries(), l0.tables().map(|h| h.raw_bytes).sum());
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

    /// Major compaction: move this partition's level-0 down to the SSD
    /// levels, writing each byte once. The moved chunk lands in the
    /// shallowest level it fits ([`SsdLevels::landing_level`]); one
    /// merge takes the chunk, every level above the landing level whole,
    /// and the landing level's tables that overlap their key range. Its
    /// output takes those tables' place, and the levels above are left
    /// empty.
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
        let mut report = CompactionReport::default();
        if let Some((first, last, chunk)) = self.level0.input(table_limit) {
            let opts = media.opts;
            let level = self.levels.landing_level(chunk, opts);
            // The levels above move down whole: the landing level's
            // overlap is taken with their key range too.
            let above = (1..level).flat_map(|l| self.levels.tables(l));
            let firsts = above.clone().map(|t| &t.first[..]);
            let first = firsts.fold(&first[..], Ord::min);
            let last = above.map(|t| &t.last[..]).fold(&last[..], Ord::max);
            let overlap = self.levels.overlap(level, first, last);
            let landing = &self.levels.tables(level)[overlap.clone()];
            let runs = (1..level).map(|l| self.levels.tables(l)).chain([landing]);
            let runs = runs.map(|run| Cursor::Ss(RunCursor::new(run, None, None)));
            let l0 = self.level0.cursors(table_limit, b"", None, None);
            // Tombstones drop only when no deeper level can hold an
            // older version of the key.
            let drop_tombstones = self.levels.depth() <= level;
            let prefix = format!("p{:03}-L{level}", self.id);
            let mut writer = SsRunWriter::new(media, prefix, opts.max_table_bytes);
            let sink = |e: EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            let (cost, errors) = (&opts.cost, media.input_errors);
            merge_into(l0.chain(runs), drop_tombstones, cost, errors, tl, sink)?;
            let output = writer.finish(tl)?;
            report.ssd_written = Some((level, output.iter().map(|h| h.table.size()).sum()));
            let mut replaced = self.levels.splice(level, overlap, output);
            replaced.extend((1..level).flat_map(|l| self.levels.splice(l, .., vec![])));
            let names = replaced.iter().map(|h| h.table.name().to_string());
            report.deleted_tables.extend(names);
        }
        // Detach the moved level-0 tables (nothing, when level-0 was
        // empty). The engine deletes or frees them once the manifest
        // edit recording this version is durable.
        self.level0.detach_oldest(table_limit, &mut report);
        report.records_in = l0_records.saturating_sub(self.level0.entries());
        report.records_out = report.records_in;
        Ok(report)
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
    use sim::CostModel;

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

        /// A major of the whole level-0 under level targets
        /// `l1_target * multiplier^(n-1)`.
        fn major_at(&mut self, l1_target: usize, multiplier: usize) -> CompactionReport {
            let opts = Options {
                l1_target,
                level_multiplier: multiplier,
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

        /// A major that lands in `level`: level 1 holds anything when it
        /// is 1, nothing when it is 2, and level 2 holds anything.
        fn major_into(&mut self, level: usize) -> CompactionReport {
            let l1_target = if level == 1 { 1 << 40 } else { 1 };
            let report = self.major_at(l1_target, 1 << 30);
            assert_eq!(report.ssd_written.map(|(l, _)| l), Some(level));
            report
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

    /// The tables of `level` whose range meets `[first, last]`, and the
    /// rest: a linear filter, the reference for a run's overlap search.
    fn overlapping(
        level: &[SsTableHandle],
        first: &[u8],
        last: &[u8],
    ) -> (Vec<SsTableHandle>, Vec<SsTableHandle>) {
        let meets = |t: &SsTableHandle| t.last.as_slice() >= first && t.first.as_slice() <= last;
        level.iter().cloned().partition(meets)
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

    /// A major reads its SSTable inputs, the level-0 tables and the
    /// level-1 tables they overlap, the way it reads PM tables: front to
    /// back past the block cache, one random SSD read per table. A
    /// warmed cache is neither consulted nor filled (the engine purges
    /// the deleted tables' blocks after the install).
    #[test]
    fn a_major_reads_each_input_sstable_once_past_the_block_cache() {
        let mut rig = Rig::new(Mode::SsdLevel0, 1 << 20);
        let keys = |lo: u8| (lo..lo + 200).map(|k| (k, false)).collect::<Vec<_>>();
        rig.flush(&keys(0));
        rig.major_into(1);
        rig.flush(&keys(20));
        rig.flush(&keys(40));
        let Level0::Ssd(l0) = &rig.p.level0 else {
            unreachable!("an SSD level-0")
        };
        let inputs: Vec<SsTableHandle> = l0.iter().chain(rig.p.levels.tables(1)).cloned().collect();
        assert_eq!(inputs.len(), 3);
        assert!(inputs.iter().all(|h| h.table.block_count() > 2));
        // One block of each input cached.
        for h in &inputs {
            h.table
                .get(&[b'k', 100], u64::MAX, &mut Timeline::new())
                .unwrap();
        }
        let cache = Arc::clone(&rig.store.cache);
        let cached = || {
            (
                cache.hits.get(),
                cache.misses.get(),
                cache.len(),
                cache.used(),
            )
        };
        let before = cached();
        assert_eq!(before.2, inputs.len());
        let reads = rig.store.device.stats().reads.get();
        let report = rig.major_into(1);
        let outputs = rig.p.levels.tables(1).len() as u64;
        assert_eq!(
            rig.store.device.stats().reads.get() - reads,
            inputs.len() as u64 + 3 * outputs,
            "one read per input table, and three (footer, filter, index) to open each output"
        );
        assert_eq!(cached(), before);
        let deleted = |h: &SsTableHandle| report.deleted_tables.iter().any(|n| n == h.table.name());
        assert!(inputs.iter().all(deleted));
    }

    /// A major moving `n` fresh keys from `lo` on (every fourth a
    /// tombstone) out of a one-table level-0.
    fn flushed(rig: &mut Rig, lo: u8, n: u8) {
        let batch: Vec<(u8, bool)> = (lo..lo + n).map(|k| (k, k % 4 == 0)).collect();
        rig.flush(&batch);
    }

    /// A chunk is sized from what its tables hold, with no read: the
    /// key, trailer and value bytes of every entry of a PM table or a
    /// matrix row, whatever its encoding, and an SSD table's size.
    #[test]
    fn a_chunk_is_sized_in_raw_entry_bytes() {
        for mode in [Mode::PmBlade, Mode::SsdLevel0, Mode::MatrixKv] {
            let mut rig = Rig::new(mode, 1 << 20);
            let mut raw = 0;
            for lo in [0, 100] {
                let batch: Vec<(u8, bool)> = (lo..lo + 80).map(|k| (k, k % 5 == 0)).collect();
                raw += rig
                    .flush(&batch)
                    .iter()
                    .map(OwnedEntry::raw_len)
                    .sum::<usize>() as u64;
            }
            let reads = (
                rig.store.pool.stats().bytes_read.get(),
                rig.store.device.stats().reads.get(),
            );
            let chunk = rig.p.level0.input(usize::MAX).unwrap().2;
            let after = (
                rig.store.pool.stats().bytes_read.get(),
                rig.store.device.stats().reads.get(),
            );
            assert_eq!(after, reads, "{mode:?}");
            match &rig.p.level0 {
                Level0::Ssd(tables) => {
                    assert_eq!(chunk, tables.iter().map(|h| h.table.size()).sum())
                }
                _ => assert_eq!(chunk, raw, "{mode:?}"),
            }
        }
    }

    /// A major whose chunk overflows level 1 lands in level 2 with level
    /// 1's tables and writes each of their bytes once: the device writes
    /// exactly the output tables, and level 1 is left empty.
    #[test]
    fn a_major_that_overflows_level_1_writes_each_byte_once() {
        let mut rig = Rig::new(Mode::PmBlade, 2 << 10);
        flushed(&mut rig, 0, 100);
        rig.major_into(1);
        let level_1 = rig.p.levels.level_bytes(1);
        assert!(rig.p.levels.tables(1).len() > 1);
        flushed(&mut rig, 50, 100);
        let written = rig.store.device.stats().bytes_written.get();
        // Level 1 holds its tables, and the chunk overflows it.
        let report = rig.major_at(level_1 as usize, 10);
        let (level, bytes) = report.ssd_written.unwrap();
        assert_eq!(level, 2);
        assert!(rig.p.levels.tables(1).is_empty());
        let output: u64 = rig.p.levels.tables(2).iter().map(|h| h.table.size()).sum();
        assert_eq!(bytes, output);
        assert_eq!(
            rig.store.device.stats().bytes_written.get() - written,
            output
        );
        let keys: Vec<Vec<u8>> = ss_content(rig.p.levels.tables(2))
            .into_iter()
            .map(|e| e.user_key)
            .collect();
        let live = (0..150u8).filter(|k| k % 4 != 0).map(|k| vec![b'k', k]);
        assert_eq!(
            keys,
            live.collect::<Vec<_>>(),
            "the bottom drops tombstones"
        );
    }

    /// A chunk that fits level 1 with what level 1 holds lands there,
    /// one byte over its target does not, and level 2 is left as it was.
    #[test]
    fn a_major_that_fits_level_1_stays_there() {
        let mut rig = Rig::new(Mode::PmBlade, 2 << 10);
        flushed(&mut rig, 0, 100);
        rig.major_into(2);
        let level_2 = rig.p.levels.tables(2).to_vec();
        flushed(&mut rig, 50, 40);
        let fits = rig.p.level0.input(usize::MAX).unwrap().2 as usize;
        let landing = |l1_target| {
            let opts = Options {
                l1_target,
                level_multiplier: 10,
                ..Options::default()
            };
            rig.p.levels.landing_level(fits as u64, &opts)
        };
        assert_eq!((landing(fits), landing(fits - 1)), (1, 2));
        let expect = reference(rig.l0_sources(), false);
        let report = rig.major_at(fits, 10);
        assert_eq!(report.ssd_written.map(|(l, _)| l), Some(1));
        assert_eq!(
            ss_content(rig.p.levels.tables(1)),
            expect,
            "tombstones kept above level 2"
        );
        let names = |t: &[SsTableHandle]| {
            t.iter()
                .map(|h| h.table.name().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(rig.p.levels.tables(2)), names(&level_2));
        assert!(report
            .deleted_tables
            .iter()
            .all(|n| !names(&level_2).contains(n)));
    }

    /// On an empty tree with a tiny `l1_target` the first major lands in
    /// the shallowest level past the bottom that holds it, drops
    /// tombstones there, and leaves that level within its target.
    #[test]
    fn a_major_on_an_empty_tree_lands_past_the_bottom_within_its_target() {
        let mut rig = Rig::new(Mode::PmBlade, 2 << 10);
        flushed(&mut rig, 0, 200);
        let chunk = rig.p.level0.input(usize::MAX).unwrap().2;
        let expect = reference(rig.l0_sources(), true);
        let (l1_target, multiplier) = (64, 4);
        let target = |level: u32| l1_target as u64 * (multiplier as u64).pow(level - 1);
        let report = rig.major_at(l1_target, multiplier);
        let level = report.ssd_written.unwrap().0;
        assert!(level > 2, "landed in level {level}");
        assert!(
            chunk > target(level as u32 - 1),
            "level {} held it",
            level - 1
        );
        assert!(rig.p.levels.level_bytes(level) <= target(level as u32));
        assert!((1..level).all(|l| rig.p.levels.tables(l).is_empty()));
        assert_eq!(ss_content(rig.p.levels.tables(level)), expect);
        assert!(expect.iter().all(|e| e.kind == KeyKind::Value));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `handle::merge_dedup` over the collected inputs is the
        /// reference for what each compaction kind streams out: flushes
        /// (every version kept), an internal compaction (tombstones
        /// kept), majors from each kind of level-0 into level 1, empty
        /// (tombstones dropped) or above a level 2 (kept), and majors
        /// into level 2 that take all of level 1 with them — with
        /// duplicate keys within and across sources, through both run
        /// writers, at a table size that cuts mid-stream and one that
        /// never cuts.
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
                        if small_tables && report.records_out > 12 {
                            prop_assert!(rig.p.level0.chunkable_tables() > 1, "the run was cut");
                        }
                    }
                    // Major into level 1: level-0 and the level-1 tables
                    // its range overlaps merge; the rest of level 1 stays.
                    let mut sources = rig.l0_sources();
                    let first = sources.iter().map(|s| &s[0].user_key).min().unwrap();
                    let last = sources.iter().map(|s| &s[s.len() - 1].user_key).max().unwrap();
                    let (overlap, untouched) = overlapping(rig.p.levels.tables(1), first, last);
                    sources.push(ss_content(&overlap));
                    let mut expect = reference(sources, rig.p.levels.depth() <= 1);
                    expect.extend(ss_content(&untouched));
                    expect.sort_by(|a, b| a.internal_cmp(b));
                    let report = rig.major_into(1);
                    prop_assert_eq!(ss_content(rig.p.levels.tables(1)), expect);
                    prop_assert_eq!(rig.p.level0.unsorted_count() + rig.p.level0.bytes(), 0);
                    let deleted = |t: &SsTableHandle| report.deleted_tables.iter().any(|n| n == t.table.name());
                    prop_assert!(overlap.iter().all(deleted));
                    // Major into level 2, the bottom: a flushed batch, all
                    // of level 1 and every level-2 table their range
                    // overlaps merge, tombstones dropped.
                    rig.flush(&round[0]);
                    let mut sources = rig.l0_sources();
                    sources.push(ss_content(rig.p.levels.tables(1)));
                    let swallowed = sources.iter().flatten().map(|e| &e.user_key);
                    let (first, last) = (swallowed.clone().min().unwrap(), swallowed.max().unwrap());
                    let (overlap, untouched) = overlapping(rig.p.levels.tables(2), first, last);
                    sources.push(ss_content(&overlap));
                    let mut expect = reference(sources, true);
                    expect.extend(ss_content(&untouched));
                    expect.sort_by(|a, b| a.internal_cmp(b));
                    let swallowed: Vec<String> = rig.p.levels.tables(1).iter()
                        .chain(&overlap)
                        .map(|t| t.table.name().to_string())
                        .collect();
                    let report = rig.major_into(2);
                    prop_assert!(rig.p.levels.tables(1).is_empty());
                    prop_assert_eq!(ss_content(rig.p.levels.tables(2)), expect.clone());
                    if small_tables && expect.len() > 24 {
                        prop_assert!(rig.p.levels.tables(2).len() > 1, "the run was cut");
                    }
                    prop_assert!(swallowed.iter().all(|n| report.deleted_tables.contains(n)));
                }
                prop_assert_eq!(rig.store.errors.get(), 0);
            }
        }
    }
}
