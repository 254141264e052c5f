//! Table handles and merge utilities shared by the compaction paths.
//!
//! A PM table's handle is one `Arc` of the table and its DRAM group
//! fences, and its region id names it, in the pool and in the group
//! cache. An SSTable's handle holds its key range and largest sequence.
//! Key range, region, size, entry count, codec or name a handle reads
//! from its table.

use std::sync::Arc;

use encoding::bloom::BloomFilter;
use encoding::key::SequenceNumber;
use encoding::prefix::common_prefix_len;
use pm_device::{PmError, PmRegion, RegionId};
use pmtable::{
    CodecMode, EntryRef, GroupFences, Lookup, NoGroupCache, OwnedEntry, PmTable, PmTableBuilder,
    PmTableError, TableKeys,
};
use sim::Timeline;
use sstable::table::TableError;
use sstable::SsTable;

use crate::costmodel::select_codec;
use crate::engine::DbError;
use crate::level0::Probe;
use crate::manifest::SsdMeta;
use crate::partition::Media;
use crate::telemetry::{SpanKind, StageTimes};

/// A PM table resident in level-0, behind one `Arc`: cloning a handle
/// is one refcount bump, so copying a level-0 table list on write never
/// copies a key.
pub type PmTableHandle = Arc<ResidentPmTable>;

/// A PM table and its DRAM group fences, which every level-0 get and
/// scan seek finds its group by. Its key range, region, size, entry
/// count and codec are read from the table.
pub struct ResidentPmTable {
    pub table: PmTable<PmRegion>,
    pub fences: GroupFences,
}

impl ResidentPmTable {
    /// The handle of `table`, which takes the fences out of its `keys`.
    pub(crate) fn new(table: PmTable<PmRegion>, keys: &mut TableKeys) -> PmTableHandle {
        let fences = std::mem::take(&mut keys.fences);
        Arc::new(ResidentPmTable { table, fences })
    }

    /// The table's smallest user key. A handle's table is never empty: a
    /// run writer never cuts one and [`reopen_pm_table`] refuses one.
    pub(crate) fn first(&self) -> &[u8] {
        self.table.first_user_key().unwrap_or_default()
    }

    /// The table's largest user key.
    pub(crate) fn last(&self) -> &[u8] {
        self.table.last_user_key().unwrap_or_default()
    }

    /// The PM region the table lives in, which names it.
    pub fn region(&self) -> RegionId {
        self.table.storage().id()
    }

    /// Could this table contain `key`?
    pub fn overlaps_key(&self, key: &[u8]) -> bool {
        self.first() <= key && key <= self.last()
    }
}

impl std::fmt::Debug for ResidentPmTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentPmTable")
            .field("region", &self.region())
            .field("entries", &self.table.entry_count())
            .field("bytes", &self.table.encoded_len())
            .finish()
    }
}

/// An SSTable resident in an SSD level; its name and size are the
/// table's.
#[derive(Clone)]
pub struct SsTableHandle {
    pub table: Arc<SsTable>,
    pub first: Vec<u8>,
    pub last: Vec<u8>,
    pub max_seq: SequenceNumber,
}

impl SsTableHandle {
    /// Reopen the table a manifest recorded as `meta` (recovery path).
    pub(crate) fn reopen(
        meta: &SsdMeta,
        media: &Media<'_>,
        tl: &mut Timeline,
    ) -> Result<SsTableHandle, DbError> {
        let table = SsTable::open(media.device, &meta.name, Arc::clone(media.cache), tl)?;
        Ok(SsTableHandle {
            table: Arc::new(table),
            first: meta.first.clone(),
            last: meta.last.clone(),
            max_seq: meta.max_seq,
        })
    }

    /// What the manifest records of this table; [`SsTableHandle::reopen`]
    /// reads it back.
    pub(crate) fn meta(&self) -> SsdMeta {
        SsdMeta {
            name: self.table.name().to_string(),
            first: self.first.clone(),
            last: self.last.clone(),
            bytes: self.table.size(),
            max_seq: self.max_seq,
        }
    }

    pub fn overlaps_key(&self, key: &[u8]) -> bool {
        self.first.as_slice() <= key && key <= self.last.as_slice()
    }

    /// Point lookup in this table, its time one `ssd_read` step. The
    /// filter takes the probe's hash pair.
    pub(crate) fn get(
        &self,
        probe: &Probe<'_>,
        tl: &mut Timeline,
        stages: &mut StageTimes,
    ) -> Result<Option<Lookup>, TableError> {
        let (key, hashes) = (probe.user_key, probe.hashes());
        let read = |tl: &mut Timeline| self.table.get_with(key, hashes, SequenceNumber::MAX, tl);
        let found = stages.time(SpanKind::SsdRead, tl, read)?;
        Ok(found.map(|(seq, kind, value)| Lookup { seq, kind, value }))
    }
}

impl std::fmt::Debug for SsTableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTableHandle")
            .field("name", &self.table.name())
            .field("bytes", &self.table.size())
            .finish()
    }
}

/// Merge N entry streams (each internally sorted by internal key) into
/// one deduplicated stream: newest version per user key survives;
/// tombstones survive unless `drop_tombstones`.
///
/// `sources` must be ordered so that ties cannot occur (sequences are
/// globally unique). Charges merge CPU per input record to `tl`.
///
/// No compaction calls this any more: they stream through
/// [`crate::cursor::MergingIter`]. It stays as the reference the
/// streamed merges are tested against, and because the repo benchmark's
/// ladder measures it by name (ROADMAP item 2(a) retires both together).
pub fn merge_dedup(
    mut sources: Vec<Vec<OwnedEntry>>,
    drop_tombstones: bool,
    cost: &sim::CostModel,
    tl: &mut Timeline,
) -> Vec<OwnedEntry> {
    let total: usize = sources.iter().map(|s| s.len()).sum();
    tl.charge(sim::SimDuration::from_nanos(
        cost.cpu.merge_per_entry.as_nanos() * total as u64,
    ));
    let mut merged: Vec<OwnedEntry> = Vec::with_capacity(total);
    for source in &mut sources {
        merged.append(source);
    }
    merged.sort_by(|a, b| a.internal_cmp(b));
    let mut out: Vec<OwnedEntry> = Vec::with_capacity(merged.len());
    // Track the last user key *seen* (not pushed): a dropped tombstone
    // must still shadow the older versions behind it.
    let mut last_seen: Option<Vec<u8>> = None;
    for entry in merged {
        if last_seen.as_deref() == Some(entry.user_key.as_slice()) {
            continue; // older version of the same key
        }
        last_seen = Some(entry.user_key.clone());
        if drop_tombstones && entry.kind == encoding::key::KeyKind::Delete {
            continue;
        }
        out.push(entry);
    }
    out
}

/// Reopen the PM table in `region` (manifest replay): its handle, its
/// [`TableKeys`] and its largest sequence, all from one full sequential
/// pass, which ticks the PM device's read counters. The region payload
/// is self-describing. A group that does not decode fails the reopen:
/// the sequences behind it would go unseen.
pub fn reopen_pm_table(
    region: PmRegion,
) -> Result<(PmTableHandle, TableKeys, SequenceNumber), String> {
    let region_id = region.id();
    let corrupt = |e: PmTableError| format!("region {region_id}: {e}");
    let table = PmTable::open(region).map_err(corrupt)?;
    let empty = || format!("region {region_id}: empty table");
    let first = table.first_user_key().ok_or_else(empty)?;
    let last = table.last_user_key().ok_or_else(empty)?;
    let (mut max_seq, mut tl) = (0, Timeline::new());
    let (entries, groups) = (table.entry_count(), table.group_count() as usize);
    let mut keys = TableKeys::new(common_prefix_len(first, last), entries, groups);
    let mut cursor = table.sequential_cursor::<NoGroupCache>();
    cursor.seek(0, b"", &mut tl).map_err(corrupt)?;
    while let Some(e) = cursor.current() {
        max_seq = max_seq.max(e.seq);
        keys.push(cursor.group(), e.user_key);
        // A key's versions are adjacent: one pair per key.
        let key = table.has_filter().then(|| BloomFilter::hashes(e.user_key));
        if let Some(key) = key.filter(|key| keys.hashes.last() != Some(key)) {
            keys.hashes.push(key);
        }
        cursor.advance(&mut tl).map_err(corrupt)?;
    }
    Ok((ResidentPmTable::new(table, &mut keys), keys, max_seq))
}

/// The PM sink of a compaction: sorted entries in, a run of PM tables
/// published to the pool out, a new table begun whenever the one being
/// built holds `max_bytes` of raw entries. A sorted run's tables keep
/// only their group fences; a flush's one unsorted table
/// ([`PmRunWriter::unsorted`]) hands its full [`TableKeys`] to level-0.
///
/// [`CodecMode::Auto`] is resolved *here*, once per output table as it
/// is cut: [`select_codec`] reads the shape the builder folded over the
/// table's entries and charges each eligible codec's measured density
/// and decode cost from the engine's calibrated `codec_costs`. The
/// winner is forced for the whole table (individual groups still fall
/// back to prefix encoding inside the builder when the codec cannot
/// represent them or would grow them).
///
/// Dropped without [`PmRunWriter::finish`] — the compaction failed on a
/// read, or its run outgrew the pool and the engine falls back to a
/// major compaction — it frees the regions it had published, counting
/// a free that fails in `media_retire_errors_total`.
pub struct PmRunWriter<'a> {
    media: Media<'a>,
    max_bytes: usize,
    /// Build each table's full [`TableKeys`], not its fences only.
    full_keys: bool,
    builder: PmTableBuilder,
    done: Vec<(PmTableHandle, TableKeys)>,
}

impl<'a> PmRunWriter<'a> {
    /// Writes a sorted run with `media`'s options, codec costs and pool.
    pub fn new(media: &Media<'a>, max_bytes: usize) -> Self {
        PmRunWriter {
            media: *media,
            max_bytes,
            full_keys: false,
            builder: PmTableBuilder::new(media.opts.pm_table_options()),
            done: Vec::new(),
        }
    }

    /// [`PmRunWriter::new`], for one unsorted table: never cut, with its
    /// full [`TableKeys`].
    pub fn unsorted(media: &Media<'a>) -> Self {
        let mut writer = PmRunWriter::new(media, usize::MAX);
        writer.full_keys = true;
        writer
    }

    pub fn add(&mut self, entry: EntryRef<'_>, tl: &mut Timeline) -> Result<(), PmError> {
        self.builder.add(entry);
        if self.builder.raw_bytes() >= self.max_bytes {
            self.cut(tl)?;
        }
        Ok(())
    }

    /// Encode and publish the table built so far and begin the next.
    fn cut(&mut self, tl: &mut Timeline) -> Result<(), PmError> {
        let Media { opts, pool, .. } = self.media;
        let next = PmTableBuilder::new(opts.pm_table_options());
        let mut builder = std::mem::replace(&mut self.builder, next);
        if opts.pm_codec_mode == CodecMode::Auto {
            let codec = select_codec(&builder.shape(), self.media.codec_costs, &opts.cost);
            builder.set_codec(codec);
        }
        if !self.full_keys {
            builder.set_fences_only();
        }
        let (bytes, _stats, mut keys) = builder.finish_with_keys(&opts.cost, tl);
        let table = PmTable::open(pool.publish(bytes, tl)?).expect("just-built table parses");
        self.done
            .push((ResidentPmTable::new(table, &mut keys), keys));
        Ok(())
    }

    /// Publish the last table and hand the run over, each table with its
    /// [`TableKeys`].
    pub fn finish(mut self, tl: &mut Timeline) -> Result<Vec<(PmTableHandle, TableKeys)>, PmError> {
        if self.builder.entry_count() > 0 {
            self.cut(tl)?;
        }
        Ok(std::mem::take(&mut self.done))
    }
}

impl Drop for PmRunWriter<'_> {
    fn drop(&mut self) {
        for (handle, _) in &self.done {
            let failed = self.media.pool.free(handle.region()).is_err();
            self.media.retire_errors.add(failed.into());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::costmodel::CodecCostTable;
    use crate::options::{Options, PmTableLayout};
    use crate::partition::tests::Store;
    use encoding::key::KeyKind;
    use pm_device::PmPool;
    use pmtable::PmTableOptions;
    use sim::CostModel;

    /// Engine options under which a [`PmRunWriter`] builds with `table`.
    fn writing(table: PmTableOptions) -> Options {
        let PmTableOptions {
            group_size,
            extractor,
            filter_bits_per_key,
            codec,
        } = table;
        Options {
            pm_table: PmTableLayout {
                group_size,
                extractor,
            },
            pm_filter_bits_per_key: filter_bits_per_key,
            pm_codec_mode: codec,
            ..Options::default()
        }
    }

    /// A [`PmRunWriter`] fed from a slice.
    pub(crate) fn build_pm_tables(
        entries: &[OwnedEntry],
        pm_table: PmTableOptions,
        codec_costs: &CodecCostTable,
        max_bytes: usize,
        pool: &PmPool,
        cost: &CostModel,
        tl: &mut Timeline,
    ) -> Result<Vec<PmTableHandle>, PmError> {
        let store = Store::new(Options {
            cost: *cost,
            ..writing(pm_table)
        });
        let media = Media {
            codec_costs,
            pool,
            ..store.media()
        };
        let mut writer = PmRunWriter::new(&media, max_bytes);
        for e in entries {
            writer.add(e.as_ref(), tl)?;
        }
        Ok(writer.finish(tl)?.into_iter().map(|(h, _)| h).collect())
    }

    fn e(k: &str, seq: u64, v: &str) -> OwnedEntry {
        OwnedEntry::value(k.as_bytes().to_vec(), seq, v.as_bytes().to_vec())
    }

    fn tomb(k: &str, seq: u64) -> OwnedEntry {
        OwnedEntry::tombstone(k.as_bytes().to_vec(), seq)
    }

    #[test]
    fn merge_keeps_newest_version() {
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        let a = vec![e("a", 5, "old"), e("b", 2, "bee")];
        let b = vec![e("a", 9, "new")];
        let merged = merge_dedup(vec![a, b], false, &cost, &mut tl);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].value, b"new");
        assert_eq!(merged[0].seq, 9);
        assert_eq!(merged[1].user_key, b"b");
        assert!(tl.elapsed() > sim::SimDuration::ZERO);
    }

    #[test]
    fn merge_tombstone_shadows_then_optionally_drops() {
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        let src = vec![vec![e("k", 3, "v")], vec![tomb("k", 8)]];
        let kept = merge_dedup(src.clone(), false, &cost, &mut tl);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].kind, KeyKind::Delete);
        let dropped = merge_dedup(src, true, &cost, &mut tl);
        assert!(dropped.is_empty(), "bottom-level merge erases the key");
    }

    #[test]
    fn merge_result_is_sorted_unique() {
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        let a: Vec<OwnedEntry> = (0..50)
            .map(|i| e(&format!("k{:03}", i * 2), i + 1, "a"))
            .collect();
        let b: Vec<OwnedEntry> = (0..50)
            .map(|i| e(&format!("k{:03}", i * 2 + 1), 100 + i, "b"))
            .collect();
        let merged = merge_dedup(vec![a, b], false, &cost, &mut tl);
        assert_eq!(merged.len(), 100);
        for w in merged.windows(2) {
            assert!(w[0].user_key < w[1].user_key);
        }
    }

    #[test]
    fn build_pm_tables_splits_at_max_bytes() {
        let cost = CostModel::default();
        let pool = PmPool::new(16 << 20, cost);
        let mut tl = Timeline::new();
        let entries: Vec<OwnedEntry> = (0..400)
            .map(|i| e(&format!("key{:05}", i), i + 1, &"v".repeat(100)))
            .collect();
        let handles = build_pm_tables(
            &entries,
            PmTableOptions::default(),
            &CodecCostTable::default(),
            8 << 10,
            &pool,
            &cost,
            &mut tl,
        )
        .unwrap();
        assert!(handles.len() > 1, "400x~110B must split at 8KiB");
        // Ranges are contiguous and ordered.
        for pair in handles.windows(2) {
            assert!(pair[0].last() < pair[1].first());
        }
        let total: usize = handles.iter().map(|h| h.table.entry_count()).sum();
        assert_eq!(total, 400);
        // Every handle's range brackets its content.
        for h in &handles {
            assert!(h.overlaps_key(h.first()));
            assert!(h.overlaps_key(h.last()));
            assert!(h.table.encoded_len() > 0);
        }
    }

    #[test]
    fn handles_describe_their_slice_of_the_input_without_reading_it_back() {
        let cost = CostModel::default();
        let pool = PmPool::new(16 << 20, cost);
        // Sequences in no particular order: each entry keeps its own.
        let entries: Vec<OwnedEntry> = (0..400u64)
            .map(|i| {
                e(
                    &format!("key{i:05}"),
                    1 + (i * 7919) % 400,
                    &"v".repeat(100),
                )
            })
            .collect();
        let handles = build_pm_tables(
            &entries,
            PmTableOptions::default(),
            &CodecCostTable::default(),
            8 << 10,
            &pool,
            &cost,
            &mut Timeline::new(),
        )
        .unwrap();
        assert!(handles.len() > 1, "400x~110B must split at 8KiB");
        // Opening a table decodes its first and last group for the
        // bounds; nothing else may read the device during a build.
        let mut opened = 0;
        for h in &handles {
            let region = pool.get(h.region()).unwrap();
            let before = pool.stats().bytes_read.get();
            PmTable::open(region).unwrap();
            opened += pool.stats().bytes_read.get() - before;
        }
        assert_eq!(pool.stats().bytes_read.get(), 2 * opened);
        let mut rest = &entries[..];
        for h in &handles {
            let (mine, after) = rest.split_at(h.table.entry_count());
            rest = after;
            assert_eq!(h.first(), mine[0].user_key.as_slice());
            assert_eq!(h.last(), mine[mine.len() - 1].user_key.as_slice());
            assert_eq!(h.table.scan_all(&mut Timeline::new()), mine);
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn empty_input_builds_nothing() {
        let cost = CostModel::default();
        let pool = PmPool::new(1 << 20, cost);
        let mut tl = Timeline::new();
        let handles = build_pm_tables(
            &[],
            PmTableOptions::default(),
            &CodecCostTable::default(),
            1 << 10,
            &pool,
            &cost,
            &mut tl,
        )
        .unwrap();
        assert!(handles.is_empty());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn a_writer_that_fails_or_is_dropped_frees_what_it_published() {
        let cost = CostModel::default();
        let pool = PmPool::new(20 << 10, cost);
        let entries: Vec<OwnedEntry> = (0..400)
            .map(|i| e(&format!("key{:05}", i), i + 1, &"v".repeat(100)))
            .collect();
        let costs = CodecCostTable::default();
        let opts = PmTableOptions::default();
        let mut tl = Timeline::new();
        // 400 x ~110 B in 8 KiB tables: the third does not fit 20 KiB.
        let full = build_pm_tables(&entries, opts, &costs, 8 << 10, &pool, &cost, &mut tl);
        assert!(matches!(full, Err(PmError::OutOfSpace { .. })));
        assert_eq!(pool.used(), 0, "the tables before the failure are freed");
        let store = Store::new(writing(opts));
        let media = Media {
            pool: &pool,
            ..store.media()
        };
        let mut writer = PmRunWriter::new(&media, 8 << 10);
        for e in &entries[..100] {
            writer.add(e.as_ref(), &mut tl).unwrap();
        }
        assert!(pool.used() > 0, "a table was cut and published mid-stream");
        drop(writer);
        assert_eq!(pool.used(), 0);
        assert_eq!(media.retire_errors.get(), 0);
        // A finished run is the caller's.
        let run = build_pm_tables(
            &entries[..100],
            opts,
            &costs,
            8 << 10,
            &pool,
            &cost,
            &mut tl,
        );
        assert_eq!(
            pool.used(),
            run.unwrap()
                .iter()
                .map(|h| h.table.encoded_len())
                .sum::<usize>()
        );
    }

    #[test]
    fn a_dropped_writer_counts_a_region_it_cannot_free() {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("pmblade-handle-retire-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = PmPool::with_backing(1 << 20, CostModel::default(), &dir, None).unwrap();
        let store = Store::new(Options::default());
        let media = Media {
            pool: &pool,
            ..store.media()
        };
        // A one-byte cap publishes a table with the first entry.
        let mut writer = PmRunWriter::new(&media, 1);
        writer
            .add(e("a", 1, "1").as_ref(), &mut Timeline::new())
            .unwrap();
        let [id] = pool.region_ids()[..] else {
            panic!("one published table, got {:?}", pool.region_ids());
        };
        // A directory where the region file was: the unlink fails.
        let path = dir.join(format!("region-{id}.pm"));
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        drop(writer);
        assert_eq!((pool.used(), media.retire_errors.get()), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_codec_resolves_per_flush_batch() {
        let cost = CostModel::default();
        let pool = PmPool::new(16 << 20, cost);
        let costs = CodecCostTable::calibrate(&cost);
        let auto_opts = PmTableOptions {
            codec: CodecMode::Auto,
            ..PmTableOptions::default()
        };
        // Timeseries batch: fixed 8B keys + values, must pick a numeric
        // codec and come out smaller than the forced-prefix build.
        let ts: Vec<OwnedEntry> = (0..512u64)
            .map(|i| {
                OwnedEntry::value(
                    (1_700_000_000 + 3 * i).to_be_bytes().to_vec(),
                    i + 1,
                    (40_000 + 3 * i).to_be_bytes().to_vec(),
                )
            })
            .collect();
        let mut tl = Timeline::new();
        let coded =
            build_pm_tables(&ts, auto_opts, &costs, usize::MAX, &pool, &cost, &mut tl).unwrap();
        assert_eq!(coded.len(), 1);
        assert_ne!(coded[0].table.dominant_codec(), pmtable::CODEC_PREFIX);
        let prefix_opts = PmTableOptions::default();
        let plain =
            build_pm_tables(&ts, prefix_opts, &costs, usize::MAX, &pool, &cost, &mut tl).unwrap();
        assert_eq!(plain[0].table.dominant_codec(), pmtable::CODEC_PREFIX);
        assert!(coded[0].table.encoded_len() < plain[0].table.encoded_len());
        // Ragged text batch (variable key and value widths): neither
        // numeric codec is eligible, Auto falls back to the prefix
        // baseline.
        let text: Vec<OwnedEntry> = (0..64)
            .map(|i| {
                e(
                    &format!("k{i:03}x{}", "p".repeat(i % 7)),
                    i as u64 + 1,
                    &"v".repeat(1 + i % 5),
                )
            })
            .collect();
        let mut sorted = text.clone();
        sorted.sort_by(|a, b| a.internal_cmp(b));
        let t = build_pm_tables(
            &sorted,
            auto_opts,
            &costs,
            usize::MAX,
            &pool,
            &cost,
            &mut tl,
        )
        .unwrap();
        assert_eq!(t[0].table.dominant_codec(), pmtable::CODEC_PREFIX);
        // Reopen preserves the dominant codec (regions self-describe).
        let region = pool.get(coded[0].region()).unwrap();
        let (reopened, _, _) = reopen_pm_table(region).unwrap();
        assert_eq!(
            reopened.table.dominant_codec(),
            coded[0].table.dominant_codec()
        );
    }

    #[test]
    fn a_reopen_hashes_the_keys_the_build_hashed() {
        let cost = CostModel::default();
        let pool = PmPool::new(1 << 20, cost);
        let store = Store::new(writing(PmTableOptions {
            filter_bits_per_key: 10,
            ..PmTableOptions::default()
        }));
        let media = Media {
            pool: &pool,
            ..store.media()
        };
        let write = |mut writer: PmRunWriter| {
            let mut tl = Timeline::new();
            // Two versions of every key: one hash pair per key.
            for i in 0..200u64 {
                for seq in [2 * i + 2, 2 * i + 1] {
                    let entry = e(&format!("key{i:04}"), seq, "v");
                    writer.add(entry.as_ref(), &mut tl).unwrap();
                }
            }
            let [table] = writer.finish(&mut tl).unwrap().try_into().unwrap();
            table
        };
        let (built, keys) = write(PmRunWriter::unsorted(&media));
        assert_eq!(keys.hashes.len(), 200);
        assert_eq!(
            keys.windows.len(),
            400,
            "one window per entry and nothing per group"
        );
        let region = pool.get(built.region()).unwrap();
        // The pass fills the same hashes, key windows and fences.
        let (reopened, rekeyed, max_seq) = reopen_pm_table(region).unwrap();
        assert_eq!((max_seq, rekeyed), (400, keys));
        assert_eq!(reopened.fences, built.fences);
        assert_eq!(built.fences.bytes(), 8 * 25, "one window per group");
        // A sorted-run table keeps its fences and builds nothing else.
        let (run_table, run_keys) = write(PmRunWriter::new(&media, usize::MAX));
        assert_eq!(run_table.fences, built.fences);
        assert_eq!((run_keys.hashes.len(), run_keys.windows.len()), (0, 0));
    }

    #[test]
    fn reopen_fails_on_a_group_that_does_not_decode() {
        // Sequences 1..=400; the gindex row of group 3 (of 25) claims a
        // block longer than the table. A max_seq taken from the groups
        // before it (48) would seed the sequence allocator below
        // sequences the table holds.
        let cost = CostModel::default();
        let mut builder = PmTableBuilder::new(PmTableOptions::default());
        for i in 0..400u64 {
            builder.add(e(&format!("key{i:05}"), i + 1, "v"));
        }
        let (mut bytes, _) = builder.finish(&cost, &mut Timeline::new());
        let gindex_off = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
        let block_len = gindex_off + 3 * 12 + 4;
        bytes[block_len..block_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let pool = PmPool::new(1 << 20, cost);
        let region = pool.publish(bytes, &mut Timeline::new()).unwrap();
        let id = region.id();
        // The table opens, as a run writer opens what it built; only the
        // reopen's pass reads the group.
        assert!(PmTable::open(region.clone()).is_ok());
        assert_eq!(
            reopen_pm_table(region).unwrap_err(),
            format!("region {id}: pm table: corrupt group block")
        );
    }

    #[test]
    fn overlap_predicates() {
        let cost = CostModel::default();
        let pool = PmPool::new(1 << 20, cost);
        let mut tl = Timeline::new();
        let entries = vec![e("m", 1, "x"), e("p", 2, "y")];
        let handles = build_pm_tables(
            &entries,
            PmTableOptions::default(),
            &CodecCostTable::default(),
            1 << 20,
            &pool,
            &cost,
            &mut tl,
        )
        .unwrap();
        let h = &handles[0];
        assert!(h.overlaps_key(b"m"));
        assert!(h.overlaps_key(b"n"));
        assert!(!h.overlaps_key(b"a"));
        assert!(!h.overlaps_key(b"q"));
    }
}
