//! Table handles and merge utilities shared by the compaction paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use encoding::delta::CodecStats;
use encoding::key::SequenceNumber;
use pm_device::{PmPool, PmRegion, RegionId};
use pmtable::{CodecMode, EntryRef, L0Table, OwnedEntry, PmTable, PmTableBuilder, PmTableOptions};
use sim::Timeline;
use sstable::SsTable;

use crate::costmodel::{select_codec, CodecCostTable};
use crate::engine::DbError;

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

    pub fn overlaps_handle_range(&self, first: &[u8], last: &[u8]) -> bool {
        self.first.as_slice() <= last && first <= self.last.as_slice()
    }

    /// Append every entry of the table to `out`, materialized as a
    /// compaction input. A block that cannot be read or an entry that
    /// does not parse fails the load: merging on without this table
    /// would silently drop its keys once the compaction deletes it.
    pub fn load_entries(
        &self,
        out: &mut Vec<OwnedEntry>,
        tl: &mut Timeline,
    ) -> Result<(), DbError> {
        let entries = self.table.scan_all(tl)?;
        out.reserve(entries.len());
        for (ikey, value) in entries {
            let e = EntryRef::parse(&ikey, &[])
                .ok_or_else(|| DbError::Corrupt(format!("{}: entry kind", self.name)))?;
            out.push(OwnedEntry {
                user_key: e.user_key.to_vec(),
                seq: e.seq,
                kind: e.kind,
                value,
            });
        }
        Ok(())
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

/// Rebuild a PM-table handle from a recovered region (manifest replay).
/// The region payload is self-describing; `first`/`last`/`max_seq` are
/// re-derived from it. A fresh `cache_id` is minted — the group-decode
/// cache starts empty after a restart, so no aliasing is possible.
pub fn reopen_pm_table(region: PmRegion, ids: &CacheIds) -> Result<PmTableHandle, String> {
    let region_id = region.id();
    let bytes = region.len();
    let table = PmTable::open(region).map_err(|e| format!("region {region_id}: {e}"))?;
    let first = table
        .first_user_key()
        .ok_or_else(|| format!("region {region_id}: empty table"))?
        .into();
    let last = table
        .last_user_key()
        .ok_or_else(|| format!("region {region_id}: empty table"))?
        .into();
    let entries = table.entry_count();
    let max_seq = table
        .scan_all(&mut Timeline::new())
        .iter()
        .map(|e| e.seq)
        .max()
        .unwrap_or(0);
    let codec = table.dominant_codec();
    Ok(PmTableHandle {
        table: Arc::new(table),
        region: region_id,
        first,
        last,
        entries,
        bytes,
        max_seq,
        cache_id: ids.next(),
        codec,
    })
}

/// Build PM tables (splitting at `max_bytes`) from sorted entries and
/// publish them to the pool. Returns the new handles.
///
/// [`CodecMode::Auto`] in `opts.codec` is resolved *here*, once for the
/// whole flush batch: [`CodecStats::analyze`] inspects the batch's key
/// shape and [`select_codec`] charges each eligible codec's measured
/// density and decode cost from `codec_costs`. The winning mode is then
/// forced for every output table (individual groups still fall back to
/// prefix encoding inside the builder when the codec cannot represent
/// them or would grow them).
#[allow(clippy::too_many_arguments)]
pub fn build_pm_tables(
    entries: &[OwnedEntry],
    mut opts: PmTableOptions,
    codec_costs: &CodecCostTable,
    max_bytes: usize,
    pool: &PmPool,
    ids: &CacheIds,
    cost: &sim::CostModel,
    tl: &mut Timeline,
) -> Result<Vec<PmTableHandle>, pm_device::PmError> {
    if opts.codec == CodecMode::Auto {
        let keys: Vec<&[u8]> = entries.iter().map(|e| e.user_key.as_slice()).collect();
        let value_lens: Vec<usize> = entries.iter().map(|e| e.value.len()).collect();
        let stats = CodecStats::analyze(&keys, &value_lens);
        opts.codec = select_codec(&stats, codec_costs, cost);
    }
    let mut out = Vec::new();
    let mut start = 0;
    let mut pending_bytes = 0usize;
    for (i, entry) in entries.iter().enumerate() {
        pending_bytes += entry.raw_len();
        if pending_bytes < max_bytes && i + 1 < entries.len() {
            continue;
        }
        // One output table: `entries[start..=i]`. Its fence keys and
        // largest sequence come from this slice — reading the table
        // back would tick the PM device's read counters for I/O the
        // engine never performs.
        let batch = &entries[start..=i];
        (start, pending_bytes) = (i + 1, 0);
        let mut builder = PmTableBuilder::new(opts);
        for e in batch {
            builder.add(e.clone());
        }
        let (bytes, _stats) = builder.finish(cost, tl);
        let len = bytes.len();
        let region = pool.publish(bytes, tl)?;
        let region_id = region.id();
        let table = PmTable::open(region).expect("just-built table parses");
        let codec = table.dominant_codec();
        out.push(PmTableHandle {
            first: batch[0].user_key.as_slice().into(),
            last: entry.user_key.as_slice().into(),
            table: Arc::new(table),
            region: region_id,
            entries: batch.len(),
            bytes: len,
            max_seq: batch.iter().map(|e| e.seq).max().unwrap_or(0),
            cache_id: ids.next(),
            codec,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoding::key::KeyKind;
    use sim::CostModel;

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
        let costs = crate::costmodel::CodecCostTable::calibrate(&cost);
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
        let reopened = reopen_pm_table(region, &ids).unwrap();
        assert_eq!(reopened.codec, coded[0].codec);
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
