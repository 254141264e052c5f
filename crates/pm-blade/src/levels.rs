//! The SSD levels (level-1 and below) of one partition.
//!
//! Each level is a sorted run of non-overlapping SSTables. Level `n` has
//! a target size of `l1_target * multiplier^(n-1)`; when it overflows,
//! the whole level is merged into level `n+1` (a whole-level leveled
//! policy — adequate at the reproduction's scale and identical in
//! write-amplification shape to per-table picking).

use std::ops::{Range, RangeBounds};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use encoding::key::SequenceNumber;
use pmtable::{EntryRef, Lookup};
use sim::Timeline;
use sstable::table::TableError;
use sstable::{SsTable, SsTableBuilder, SsTableOptions};

use crate::cursor::{Cursor, SsRun};
use crate::handle::SsTableHandle;
use crate::level0::Probe;
use crate::partition::Media;
use crate::telemetry::StageTimes;

/// SSD level stack for one partition.
#[derive(Default)]
pub struct SsdLevels {
    /// `levels[0]` is level-1. Each inner vec is sorted by key range.
    pub levels: Vec<Vec<SsTableHandle>>,
}

impl SsdLevels {
    pub fn new() -> Self {
        SsdLevels::default()
    }

    /// Bytes held at level `n` (1-based).
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level - 1)
            .map(|tables| tables.iter().map(|t| t.table.size()).sum())
            .unwrap_or(0)
    }

    /// Total SSD bytes of this partition.
    pub fn total_bytes(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .map(|t| t.table.size())
            .sum()
    }

    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The tables of level `n` (1-based), in key order.
    pub fn tables(&self, level: usize) -> &[SsTableHandle] {
        self.levels.get(level - 1).map_or(&[], |tables| tables)
    }

    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(|l| l.is_empty())
    }

    /// Point lookup: walk levels top-down; within a level at most one
    /// table overlaps. Returns the hit plus the 1-based level that
    /// served it (for the per-level read-source metrics); each table
    /// searched is an `ssd_read` step in `stages`. Every table's filter
    /// takes the probe's one hash pair.
    ///
    /// A table-read failure propagates instead of being skipped: a
    /// deeper level may hold an *older* version of the key, so falling
    /// through past an unreadable table could silently serve stale data.
    pub fn get(
        &self,
        probe: &Probe<'_>,
        tl: &mut Timeline,
        stages: &mut StageTimes,
    ) -> Result<Option<(Lookup, usize)>, TableError> {
        let user_key = probe.user_key;
        for (depth, level) in self.levels.iter().enumerate() {
            let idx = level.partition_point(|h| h.last.as_slice() < user_key);
            let Some(handle) = level.get(idx).filter(|h| h.overlaps_key(user_key)) else {
                continue;
            };
            if let Some(hit) = handle.get(probe, tl, stages)? {
                return Ok(Some((hit, depth + 1)));
            }
        }
        Ok(None)
    }

    /// Scan cursors over `[.., end)`: one concatenating cursor per level
    /// (each level is itself sorted).
    pub fn cursors<'a>(&'a self, end: Option<&'a [u8]>) -> impl Iterator<Item = Cursor<'a>> {
        self.levels
            .iter()
            .map(move |level| Cursor::Ss(SsRun::new(level, end)))
    }

    /// The index range of level `n`'s tables that overlap `[first,
    /// last]`: a level is sorted and non-overlapping, so they are
    /// contiguous.
    pub fn overlap(&self, level: usize, first: &[u8], last: &[u8]) -> Range<usize> {
        let tables = self.tables(level);
        let lo = tables.partition_point(|t| t.last.as_slice() < first);
        lo..tables.partition_point(|t| t.first.as_slice() <= last)
    }

    /// Put `tables` in place of `range` of level `n`, returning the
    /// tables they replace for the caller to delete.
    pub fn splice(
        &mut self,
        level: usize,
        range: impl RangeBounds<usize>,
        tables: Vec<SsTableHandle>,
    ) -> Vec<SsTableHandle> {
        if self.levels.len() < level {
            self.levels.resize_with(level, Vec::new);
        }
        let level = &mut self.levels[level - 1];
        let replaced = level.splice(range, tables).collect();
        debug_assert!(level.windows(2).all(|w| w[0].last < w[1].first));
        replaced
    }
}

impl std::fmt::Debug for SsdLevels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sizes: Vec<u64> = (1..=self.levels.len())
            .map(|l| self.level_bytes(l))
            .collect();
        f.debug_struct("SsdLevels")
            .field("level_bytes", &sizes)
            .finish()
    }
}

/// The SSD sink of a compaction: sorted entries in, a run of SSTables
/// out, a new table begun whenever the one being written reaches
/// `max_bytes`. Files are named `{prefix}-{counter}.sst`; the counter is
/// atomic so concurrent compactions of different partitions never mint
/// the same file name.
///
/// Dropped without [`SsRunWriter::finish`] — the compaction failed on a
/// read or on a later table — it deletes the tables it had finished; an
/// unlink that fails is counted in `media_retire_errors_total`.
pub struct SsRunWriter<'a> {
    media: Media<'a>,
    prefix: String,
    max_bytes: usize,
    /// The table being written, its name and its largest sequence.
    open: Option<(SsTableBuilder, String, SequenceNumber)>,
    done: Vec<SsTableHandle>,
}

impl<'a> SsRunWriter<'a> {
    /// Writes to `media`'s device and block cache, naming tables from
    /// its table counter.
    pub fn new(media: &Media<'a>, prefix: String, max_bytes: usize) -> Self {
        SsRunWriter {
            media: *media,
            prefix,
            max_bytes,
            open: None,
            done: Vec::new(),
        }
    }

    pub fn add(&mut self, entry: EntryRef<'_>, tl: &mut Timeline) -> Result<(), TableError> {
        if self.open.is_none() {
            let n = self.media.table_counter.fetch_add(1, Ordering::Relaxed) + 1;
            let name = format!("{}-{n:08}.sst", self.prefix);
            let device = self.media.device;
            let builder = SsTableBuilder::new(device, &name, SsTableOptions::default())?;
            self.open = Some((builder, name, 0));
        }
        let (builder, _, max_seq) = self.open.as_mut().expect("opened above");
        builder.add(entry.user_key, entry.seq, entry.kind, entry.value, tl);
        *max_seq = (*max_seq).max(entry.seq);
        if builder.estimated_size() >= self.max_bytes as u64 {
            self.cut(tl)?;
        }
        Ok(())
    }

    /// Seal the table being written, if any, and open it for reads.
    fn cut(&mut self, tl: &mut Timeline) -> Result<(), TableError> {
        let Some((builder, name, max_seq)) = self.open.take() else {
            return Ok(());
        };
        let entries = builder.entries();
        let (_, first, last) = builder.finish(tl)?;
        // The object exists from here on: it is deleted, here or by
        // `drop`, unless the run is handed over.
        let table = SsTable::open(self.media.device, &name, Arc::clone(self.media.cache), tl);
        let table = table.inspect_err(|_| self.media.discard_table(&name))?;
        self.done.push(SsTableHandle {
            table: Arc::new(table.with_entries_hint(entries)),
            first: first.expect("a table is opened by its first entry"),
            last: last.expect("a table is opened by its first entry"),
            max_seq,
        });
        Ok(())
    }

    /// Seal the last table and hand the run over.
    pub fn finish(mut self, tl: &mut Timeline) -> Result<Vec<SsTableHandle>, TableError> {
        self.cut(tl)?;
        Ok(std::mem::take(&mut self.done))
    }
}

impl Drop for SsRunWriter<'_> {
    fn drop(&mut self) {
        for handle in &self.done {
            self.media.discard_table(handle.table.name());
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cursor::tests::drain;
    use crate::partition::tests::Store;
    use encoding::key::KeyKind;
    use pmtable::OwnedEntry;
    use sim::CostModel;
    use ssd_device::SsdDevice;
    use sstable::BlockCache;
    use std::sync::atomic::AtomicU64;

    /// A get of the newest version, its key hashed afresh.
    fn latest(levels: &SsdLevels, key: &[u8], tl: &mut Timeline) -> Option<(Lookup, usize)> {
        let cache = crate::groupcache::PmGroupCache::disabled();
        let probe = Probe::new(key, &cache);
        levels.get(&probe, tl, &mut StageTimes::default()).unwrap()
    }

    fn e(k: &str, seq: u64, v: &str) -> OwnedEntry {
        OwnedEntry::value(k.as_bytes().to_vec(), seq, v.as_bytes().to_vec())
    }

    /// An [`SsRunWriter`] fed from a slice.
    pub(crate) fn build_ss_tables(
        entries: &[OwnedEntry],
        device: &Arc<SsdDevice>,
        cache: &Arc<BlockCache>,
        prefix: &str,
        counter: &AtomicU64,
        max_bytes: usize,
        tl: &mut Timeline,
    ) -> Result<Vec<SsTableHandle>, TableError> {
        let store = Store::new(Default::default());
        let media = Media {
            device,
            cache,
            table_counter: counter,
            ..store.media()
        };
        let mut writer = SsRunWriter::new(&media, prefix.into(), max_bytes);
        for e in entries {
            writer.add(e.as_ref(), tl)?;
        }
        writer.finish(tl)
    }

    fn setup() -> (Arc<SsdDevice>, Arc<BlockCache>) {
        (
            SsdDevice::new(CostModel::default()),
            Arc::new(BlockCache::new(1 << 20)),
        )
    }

    #[test]
    fn build_and_lookup_across_levels() {
        let (device, cache) = setup();
        let mut tl = Timeline::new();
        let counter = AtomicU64::new(0);
        let l1: Vec<OwnedEntry> = (0..100)
            .map(|i| e(&format!("k{:04}", i), 200 + i, "l1"))
            .collect();
        let l2: Vec<OwnedEntry> = (0..200)
            .map(|i| e(&format!("k{:04}", i), 1 + i, "l2"))
            .collect();
        let t1 =
            build_ss_tables(&l1, &device, &cache, "p0-L1", &counter, usize::MAX, &mut tl).unwrap();
        let t2 =
            build_ss_tables(&l2, &device, &cache, "p0-L2", &counter, usize::MAX, &mut tl).unwrap();
        let mut levels = SsdLevels::new();
        levels.splice(1, .., t1);
        levels.splice(2, .., t2);
        // Key in both levels: L1 wins (and reports level 1).
        let (hit, level) = latest(&levels, b"k0050", &mut tl).unwrap();
        assert_eq!(hit.value, b"l1");
        assert_eq!(level, 1);
        // Key only in L2.
        let (hit, level) = latest(&levels, b"k0150", &mut tl).unwrap();
        assert_eq!(hit.value, b"l2");
        assert_eq!(level, 2);
        assert!(latest(&levels, b"k9999", &mut tl).is_none());
        assert_eq!(levels.depth(), 2);
        assert!(levels.total_bytes() > 0);
    }

    #[test]
    fn split_produces_ordered_tables() {
        let (device, cache) = setup();
        let mut tl = Timeline::new();
        let counter = AtomicU64::new(0);
        let entries: Vec<OwnedEntry> = (0..2000)
            .map(|i| e(&format!("k{:06}", i), i + 1, &"v".repeat(64)))
            .collect();
        let tables = build_ss_tables(
            &entries,
            &device,
            &cache,
            "p0-L1",
            &counter,
            32 << 10,
            &mut tl,
        )
        .unwrap();
        assert!(tables.len() > 1);
        for pair in tables.windows(2) {
            assert!(pair[0].last < pair[1].first);
        }
    }

    #[test]
    fn overlapping_filters_by_range() {
        let (device, cache) = setup();
        let mut tl = Timeline::new();
        let counter = AtomicU64::new(0);
        let a = build_ss_tables(
            &[e("a", 1, "1"), e("c", 2, "2")],
            &device,
            &cache,
            "x",
            &counter,
            usize::MAX,
            &mut tl,
        )
        .unwrap();
        let b = build_ss_tables(
            &[e("m", 3, "3"), e("o", 4, "4")],
            &device,
            &cache,
            "x",
            &counter,
            usize::MAX,
            &mut tl,
        )
        .unwrap();
        let mut levels = SsdLevels::new();
        let mut l1 = a;
        l1.extend(b);
        levels.splice(1, .., l1);
        assert_eq!(levels.overlap(1, b"b", b"d"), 0..1);
        assert_eq!(levels.overlap(1, b"a", b"z"), 0..2);
        assert_eq!(levels.overlap(1, b"e", b"f"), 1..1);
        assert_eq!(levels.overlap(2, b"a", b"z"), 0..0);
    }

    /// A run writer dropped before `finish` deletes the tables it
    /// finished, and counts an unlink that fails.
    #[test]
    fn a_dropped_writer_counts_a_table_it_cannot_delete() {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("pmblade-levels-retire-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        let device = SsdDevice::with_backing(CostModel::default(), &dir, None).unwrap();
        let store = Store::new(Default::default());
        let media = Media {
            device: &device,
            ..store.media()
        };
        // A one-byte cap finishes a table with the first entry.
        let mut writer = SsRunWriter::new(&media, "p0-L1".into(), 1);
        let mut tl = Timeline::new();
        writer.add(e("a", 1, "1").as_ref(), &mut tl).unwrap();
        let names = device.list();
        let [name] = &names[..] else {
            panic!("one finished table, got {names:?}");
        };
        let path = dir.join(name);
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        drop(writer);
        assert_eq!(media.retire_errors.get(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursors_concatenate_each_level_and_merge_across_levels() {
        let (device, cache) = setup();
        let mut tl = Timeline::new();
        let counter = AtomicU64::new(0);
        let mut build = |entries: &[OwnedEntry], max_bytes: usize| {
            build_ss_tables(entries, &device, &cache, "s", &counter, max_bytes, &mut tl).unwrap()
        };
        let old: Vec<OwnedEntry> = (0..2000)
            .map(|i| e(&format!("k{i:05}"), i + 1, &"o".repeat(64)))
            .collect();
        let newer: Vec<OwnedEntry> = (0..2000)
            .step_by(2)
            .map(|i| e(&format!("k{i:05}"), 10_000 + i, "new"))
            .collect();
        let mut levels = SsdLevels::new();
        levels.splice(1, .., build(&newer, usize::MAX));
        levels.splice(2, .., build(&old, 32 << 10));
        assert!(
            levels.tables(2).len() > 2,
            "level 2 is a run of several tables"
        );
        let scan = |start: &[u8], end: Option<&'static [u8]>| {
            drain(levels.cursors(end).collect(), start, end, false)
        };
        let all = scan(b"", None);
        assert_eq!(
            all.len(),
            2000,
            "every key once, across every table boundary"
        );
        for (i, row) in all.iter().enumerate() {
            assert_eq!(row.user_key, format!("k{i:05}").into_bytes());
            assert_eq!(row.value == b"new", i % 2 == 0, "level 1 shadows level 2");
        }
        let slice = scan(b"k00010", Some(b"k00020"));
        assert_eq!(slice.len(), 10);
        assert_eq!(slice[0].user_key, b"k00010");
        assert!(scan(b"k99999", None).is_empty());
    }

    #[test]
    fn tombstones_flow_through_get() {
        let (device, cache) = setup();
        let mut tl = Timeline::new();
        let counter = AtomicU64::new(0);
        let entries = vec![OwnedEntry::tombstone(b"gone".to_vec(), 9)];
        let tables = build_ss_tables(
            &entries,
            &device,
            &cache,
            "t",
            &counter,
            usize::MAX,
            &mut tl,
        )
        .unwrap();
        let mut levels = SsdLevels::new();
        levels.splice(1, .., tables);
        let (hit, _) = latest(&levels, b"gone", &mut tl).unwrap();
        assert_eq!(hit.kind, KeyKind::Delete);
    }
}
