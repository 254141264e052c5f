//! Table handles and merge utilities shared by the compaction paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use encoding::bloom::BloomFilter;
use encoding::key::SequenceNumber;
use encoding::prefix::common_prefix_len;
use pm_device::{PmError, PmPool, PmRegion, RegionId};
use pmtable::{
    CodecMode, EntryRef, KeyColumn, L0Table, Lookup, NoGroupCache, OwnedEntry, PmTable,
    PmTableBuilder, PmTableError, TableKeys,
};
use sim::Timeline;
use sstable::table::TableError;
use sstable::SsTable;

use crate::costmodel::{select_codec, CodecCostTable};
use crate::level0::Probe;
use crate::options::Options;
use crate::telemetry::{SpanKind, StageTimes};

/// Per-engine allocator for [`PmTableHandle::cache_id`]. Ids are
/// monotonic and never reused within an engine, so a retired table's
/// cached groups can never alias a newer table's (the group-decode
/// cache the ids key is itself per-engine and starts empty on open).
/// Deliberately *not* process-global: the cache shards by id hash, so
/// two engines running the same workload must mint the same ids to
/// place and evict groups identically — the determinism every
/// virtual-time benchmark and parity test relies on.
pub struct CacheIds(AtomicU64);

impl CacheIds {
    pub fn new() -> Self {
        Self(AtomicU64::new(1))
    }

    /// Mint the next table cache id.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for CacheIds {
    fn default() -> Self {
        Self::new()
    }
}

/// A PM table resident in level-0. Cloning one is refcount bumps only
/// (the fence keys are shared slices), so copying a level-0 table list
/// on write never copies a key.
#[derive(Clone)]
pub struct PmTableHandle {
    pub table: Arc<PmTable<PmRegion>>,
    pub region: RegionId,
    pub first: Arc<[u8]>,
    pub last: Arc<[u8]>,
    pub entries: usize,
    pub bytes: usize,
    /// Largest sequence stored; newer tables shadow older ones.
    pub max_seq: SequenceNumber,
    /// Unique key for the shared group-decode cache
    /// ([`crate::groupcache::PmGroupCache`]).
    pub cache_id: u64,
    /// Dominant group codec id (`pmtable::CODEC_*`): the codec most of
    /// this table's groups encode with. Feeds the Eq 1/Eq 2 decode
    /// terms and the manifest's per-table codec record.
    pub codec: u8,
    /// An unsorted table's DRAM key column, which a scan seeks it by
    /// (set by [`crate::level0::PmLevel0::push_unsorted`]).
    pub column: Option<Arc<KeyColumn>>,
}

impl PmTableHandle {
    /// Could this table contain `key`?
    pub fn overlaps_key(&self, key: &[u8]) -> bool {
        &*self.first <= key && key <= &*self.last
    }
}

impl std::fmt::Debug for PmTableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmTableHandle")
            .field("region", &self.region)
            .field("entries", &self.entries)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// An SSTable resident in an SSD level.
#[derive(Clone)]
pub struct SsTableHandle {
    pub table: Arc<SsTable>,
    pub name: String,
    pub first: Vec<u8>,
    pub last: Vec<u8>,
    pub bytes: u64,
    pub max_seq: SequenceNumber,
}

impl SsTableHandle {
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
        let (key, hashes, snapshot) = (probe.user_key, probe.hashes(), probe.snapshot);
        let read = |tl: &mut Timeline| self.table.get_with(key, hashes, snapshot, tl);
        let found = stages.time(SpanKind::SsdRead, tl, read)?;
        Ok(found.map(|(seq, kind, value)| Lookup { seq, kind, value }))
    }

    pub fn overlaps_handle_range(&self, first: &[u8], last: &[u8]) -> bool {
        self.first.as_slice() <= last && first <= self.last.as_slice()
    }
}

impl std::fmt::Debug for SsTableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTableHandle")
            .field("name", &self.name)
            .field("bytes", &self.bytes)
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

/// The handle of a PM table in `region`, with its [`TableKeys`]: one
/// just published, or one recovered (manifest replay). The region
/// payload is self-describing; `first`/`last` are re-derived from it,
/// and so are `max_seq` and the keys when the caller does not know
/// them — by a full sequential pass, which ticks the PM device's read
/// counters, so a build passes what it saw go in. A group that does not
/// decode fails the reopen: the sequences behind it would go unseen. A
/// fresh `cache_id` is minted — the group-decode cache starts empty
/// after a restart, so no aliasing is possible.
pub fn reopen_pm_table(
    region: PmRegion,
    built: Option<(SequenceNumber, TableKeys)>,
    ids: &CacheIds,
) -> Result<(PmTableHandle, TableKeys), String> {
    let (region_id, bytes) = (region.id(), region.len());
    let corrupt = |e: PmTableError| format!("region {region_id}: {e}");
    let table = PmTable::open(region).map_err(corrupt)?;
    let empty = || format!("region {region_id}: empty table");
    let first = table.first_user_key().ok_or_else(empty)?;
    let last = table.last_user_key().ok_or_else(empty)?;
    let (max_seq, keys) = match built {
        Some(known) => known,
        None => {
            let (mut seq, mut hashes, mut tl) = (0, Vec::new(), Timeline::new());
            let (entries, groups) = (table.entry_count(), table.group_count() as usize);
            let mut column = KeyColumn::new(common_prefix_len(first, last), entries, groups);
            let mut cursor = table.sequential_cursor::<NoGroupCache>();
            cursor.seek(b"", &mut tl).map_err(corrupt)?;
            while let Some(e) = cursor.current() {
                seq = seq.max(e.seq);
                column.push(cursor.group(), e.user_key);
                // A key's versions are adjacent: one pair per key.
                let key = table.has_filter().then(|| BloomFilter::hashes(e.user_key));
                if let Some(key) = key.filter(|key| hashes.last() != Some(key)) {
                    hashes.push(key);
                }
                cursor.advance(&mut tl).map_err(corrupt)?;
            }
            (seq, TableKeys { hashes, column })
        }
    };
    let handle = PmTableHandle {
        first: first.into(),
        last: last.into(),
        entries: table.entry_count(),
        max_seq,
        codec: table.dominant_codec(),
        table: Arc::new(table),
        region: region_id,
        bytes,
        cache_id: ids.next(),
        column: None,
    };
    Ok((handle, keys))
}

/// The PM sink of a compaction: sorted entries in, a run of PM tables
/// published to the pool out, a new table begun whenever the one being
/// built holds `max_bytes` of raw entries.
///
/// [`CodecMode::Auto`] is resolved *here*, once per output table as it
/// is cut: [`select_codec`] reads the shape the builder folded over the
/// table's entries and charges each eligible codec's measured density
/// and decode cost from the engine's calibrated `codec_costs`. The
/// winner is forced for the whole table (individual groups still fall
/// back to prefix encoding inside the builder when the codec cannot
/// represent them or would grow them).
///
/// A run abandoned before [`PmRunWriter::finish`] leaves the regions it
/// had published in the pool until the next open's orphan collection,
/// as a failed build always has. In practice that is an internal
/// compaction whose run outgrows the pool (the engine falls back to a
/// major compaction); freeing there changes when every later
/// compaction triggers, so it is a change of its own (CHANGES.md,
/// PR 18).
pub struct PmRunWriter<'a> {
    opts: &'a Options,
    codec_costs: &'a CodecCostTable,
    max_bytes: usize,
    pool: &'a PmPool,
    ids: &'a CacheIds,
    builder: PmTableBuilder,
    /// Largest sequence in `builder`.
    max_seq: SequenceNumber,
    done: Vec<(PmTableHandle, TableKeys)>,
}

impl<'a> PmRunWriter<'a> {
    pub fn new(
        opts: &'a Options,
        codec_costs: &'a CodecCostTable,
        max_bytes: usize,
        pool: &'a PmPool,
        ids: &'a CacheIds,
    ) -> Self {
        PmRunWriter {
            opts,
            codec_costs,
            max_bytes,
            pool,
            ids,
            builder: PmTableBuilder::new(opts.pm_table_options()),
            max_seq: 0,
            done: Vec::new(),
        }
    }

    pub fn add(&mut self, entry: EntryRef<'_>, tl: &mut Timeline) -> Result<(), PmError> {
        self.builder.add(entry);
        self.max_seq = self.max_seq.max(entry.seq);
        if self.builder.raw_bytes() >= self.max_bytes {
            self.cut(tl)?;
        }
        Ok(())
    }

    /// Encode and publish the table built so far and begin the next.
    fn cut(&mut self, tl: &mut Timeline) -> Result<(), PmError> {
        let opts = self.opts;
        let next = PmTableBuilder::new(opts.pm_table_options());
        let mut builder = std::mem::replace(&mut self.builder, next);
        if opts.pm_codec_mode == CodecMode::Auto {
            let codec = select_codec(&builder.shape(), self.codec_costs, &opts.cost);
            builder.set_codec(codec);
        }
        let (bytes, _stats, keys) = builder.finish_with_keys(&opts.cost, tl);
        let region = self.pool.publish(bytes, tl)?;
        let built = Some((std::mem::take(&mut self.max_seq), keys));
        let table = reopen_pm_table(region, built, self.ids);
        self.done.push(table.expect("just-built table parses"));
        Ok(())
    }

    /// Publish the last table and hand the run over, each table with its
    /// [`TableKeys`].
    pub fn finish(mut self, tl: &mut Timeline) -> Result<Vec<(PmTableHandle, TableKeys)>, PmError> {
        if self.builder.entry_count() > 0 {
            self.cut(tl)?;
        }
        Ok(self.done)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::options::PmTableLayout;
    use encoding::key::KeyKind;
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_pm_tables(
        entries: &[OwnedEntry],
        pm_table: PmTableOptions,
        codec_costs: &CodecCostTable,
        max_bytes: usize,
        pool: &PmPool,
        ids: &CacheIds,
        cost: &CostModel,
        tl: &mut Timeline,
    ) -> Result<Vec<PmTableHandle>, PmError> {
        let opts = Options {
            cost: *cost,
            ..writing(pm_table)
        };
        let mut writer = PmRunWriter::new(&opts, codec_costs, max_bytes, pool, ids);
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
            &CacheIds::new(),
            &cost,
            &mut tl,
        )
        .unwrap();
        assert!(handles.len() > 1, "400x~110B must split at 8KiB");
        // Ranges are contiguous and ordered.
        for pair in handles.windows(2) {
            assert!(pair[0].last < pair[1].first);
        }
        let total: usize = handles.iter().map(|h| h.entries).sum();
        assert_eq!(total, 400);
        // Every handle's range brackets its content.
        for h in &handles {
            assert!(h.overlaps_key(&h.first));
            assert!(h.overlaps_key(&h.last));
            assert!(h.bytes > 0);
        }
    }

    #[test]
    fn handles_describe_their_slice_of_the_input_without_reading_it_back() {
        let cost = CostModel::default();
        let pool = PmPool::new(16 << 20, cost);
        // Sequences in no particular order, so each table's largest is
        // neither its first nor its last entry's.
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
            &CacheIds::new(),
            &cost,
            &mut Timeline::new(),
        )
        .unwrap();
        assert!(handles.len() > 1, "400x~110B must split at 8KiB");
        // Opening a table decodes its first and last group for the
        // bounds; nothing else may read the device during a build.
        let mut opened = 0;
        for h in &handles {
            let region = pool.get(h.region).unwrap();
            let before = pool.stats().bytes_read.get();
            PmTable::open(region).unwrap();
            opened += pool.stats().bytes_read.get() - before;
        }
        assert_eq!(pool.stats().bytes_read.get(), 2 * opened);
        let mut rest = &entries[..];
        for h in &handles {
            let (mine, after) = rest.split_at(h.entries);
            rest = after;
            assert_eq!(&*h.first, mine[0].user_key.as_slice());
            assert_eq!(&*h.last, mine[mine.len() - 1].user_key.as_slice());
            assert_eq!(h.max_seq, mine.iter().map(|e| e.seq).max().unwrap());
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
            &CacheIds::new(),
            &cost,
            &mut tl,
        )
        .unwrap();
        assert!(handles.is_empty());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn auto_codec_resolves_per_flush_batch() {
        let cost = CostModel::default();
        let pool = PmPool::new(16 << 20, cost);
        let costs = CodecCostTable::calibrate(&cost);
        let ids = CacheIds::new();
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
        let coded = build_pm_tables(
            &ts,
            auto_opts,
            &costs,
            usize::MAX,
            &pool,
            &ids,
            &cost,
            &mut tl,
        )
        .unwrap();
        assert_eq!(coded.len(), 1);
        assert_ne!(coded[0].codec, pmtable::CODEC_PREFIX);
        let prefix_opts = PmTableOptions::default();
        let plain = build_pm_tables(
            &ts,
            prefix_opts,
            &costs,
            usize::MAX,
            &pool,
            &ids,
            &cost,
            &mut tl,
        )
        .unwrap();
        assert_eq!(plain[0].codec, pmtable::CODEC_PREFIX);
        assert!(coded[0].bytes < plain[0].bytes);
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
            &ids,
            &cost,
            &mut tl,
        )
        .unwrap();
        assert_eq!(t[0].codec, pmtable::CODEC_PREFIX);
        // Reopen preserves the dominant codec (regions self-describe).
        let region = pool.get(coded[0].region).unwrap();
        let (reopened, _) = reopen_pm_table(region, None, &ids).unwrap();
        assert_eq!(reopened.codec, coded[0].codec);
    }

    #[test]
    fn a_reopen_hashes_the_keys_the_build_hashed() {
        let cost = CostModel::default();
        let pool = PmPool::new(1 << 20, cost);
        let opts = writing(PmTableOptions {
            filter_bits_per_key: 10,
            ..PmTableOptions::default()
        });
        let ids = CacheIds::new();
        let costs = CodecCostTable::default();
        let mut writer = PmRunWriter::new(&opts, &costs, usize::MAX, &pool, &ids);
        let mut tl = Timeline::new();
        // Two versions of every key: one hash pair per key.
        for i in 0..200u64 {
            for seq in [2 * i + 2, 2 * i + 1] {
                let entry = e(&format!("key{i:04}"), seq, "v");
                writer.add(entry.as_ref(), &mut tl).unwrap();
            }
        }
        let [(built, keys)] = writer.finish(&mut tl).unwrap().try_into().unwrap();
        assert_eq!(keys.hashes.len(), 200);
        assert_eq!(
            keys.column.bytes(),
            8 * 400 + 4 * 25,
            "one window per entry"
        );
        let region = pool.get(built.region).unwrap();
        // The pass fills the same hashes and the same key column.
        let (reopened, rekeyed) = reopen_pm_table(region, None, &ids).unwrap();
        assert_eq!((reopened.max_seq, rekeyed), (400, keys));
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
        let ids = CacheIds::new();
        let with_known_seq =
            reopen_pm_table(region.clone(), Some((400, TableKeys::default())), &ids);
        assert_eq!(with_known_seq.unwrap().0.max_seq, 400);
        assert_eq!(
            reopen_pm_table(region, None, &ids).unwrap_err(),
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
            &CacheIds::new(),
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
