//! The PM-resident level-0 of one partition.
//!
//! Level-0 holds two sets of PM tables (§IV-B, Fig 3):
//!
//! - **unsorted tables** — raw minor-compaction output, mutually
//!   overlapping; a read must consult every one (newest first), which is
//!   the *read amplification* internal compaction exists to fix;
//! - the **sorted run** — the output of the last internal compaction:
//!   tables ordered and non-overlapping, so a read touches at most one.
//!
//! Two read accelerators sit in front of the table probes:
//!
//! - each table's **bloom filter** (built at flush time when
//!   `pm_filter_bits_per_key > 0`) is consulted before the table is
//!   searched, so most unsorted tables that merely *straddle* a key's
//!   range are skipped without touching their meta layer;
//! - a [`FenceIndex`] over the sorted run — a contiguous array of
//!   first/last fence keys rebuilt only when the run changes — locates
//!   the single candidate table without walking the fat handle vector
//!   on every get.

use std::sync::Arc;

use encoding::key::SequenceNumber;
use pm_device::PmPool;
use pmtable::{L0Table, Lookup, OwnedEntry};
use sim::Timeline;

use crate::cursor::{Cursor, PmRun};
use crate::groupcache::{ObservedGroupAccess, PmGroupCache};
use crate::handle::PmTableHandle;

/// Per-get probe accounting, surfaced through engine telemetry and the
/// request tracer. All `_nanos` fields are virtual-clock sub-intervals
/// measured as `Timeline::elapsed` deltas around the work — tracing
/// observes the timeline, it never charges it.
#[derive(Default, Clone, Copy, Debug)]
pub struct ProbeStats {
    /// PM tables actually searched (meta layer touched).
    pub tables_probed: u64,
    /// Bloom filters consulted.
    pub filter_checked: u64,
    /// Probes skipped because the filter ruled the table out.
    pub filter_useful: u64,
    /// Filter said "maybe" but the table did not hold the key.
    pub filter_false_positives: u64,
    /// Virtual time spent consulting bloom filters.
    pub filter_nanos: u64,
    /// Group lookups served from the decode cache.
    pub decode_cache_hits: u64,
    /// Group lookups that decoded prefix groups from PM (includes all
    /// lookups when the cache is absent or disabled).
    pub decode_cache_misses: u64,
    /// Virtual time in table probes served entirely from the cache.
    pub decode_hit_nanos: u64,
    /// Virtual time in table probes that decoded at least one group.
    pub decode_miss_nanos: u64,
}

impl ProbeStats {
    pub fn merge(&mut self, other: &ProbeStats) {
        self.tables_probed += other.tables_probed;
        self.filter_checked += other.filter_checked;
        self.filter_useful += other.filter_useful;
        self.filter_false_positives += other.filter_false_positives;
        self.filter_nanos += other.filter_nanos;
        self.decode_cache_hits += other.decode_cache_hits;
        self.decode_cache_misses += other.decode_cache_misses;
        self.decode_hit_nanos += other.decode_hit_nanos;
        self.decode_miss_nanos += other.decode_miss_nanos;
    }
}

/// A compact index over the sorted run: the first and last user key of
/// each table, in run order, in one contiguous allocation-per-key array.
/// Built once per run change instead of re-deriving the candidate table
/// from the handle vector on every get.
#[derive(Default, Debug)]
pub struct FenceIndex {
    firsts: Vec<Box<[u8]>>,
    lasts: Vec<Box<[u8]>>,
}

impl FenceIndex {
    pub fn build(sorted: &[PmTableHandle]) -> Self {
        FenceIndex {
            firsts: sorted.iter().map(|h| h.first.clone().into()).collect(),
            lasts: sorted.iter().map(|h| h.last.clone().into()).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.lasts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lasts.is_empty()
    }

    /// Index of the unique table whose `[first, last]` range covers
    /// `user_key`, if any. Binary search over the last-key fences, then
    /// one first-key comparison to reject keys falling in a gap.
    pub fn locate(&self, user_key: &[u8]) -> Option<usize> {
        let idx = self.lasts.partition_point(|last| last.as_ref() < user_key);
        (idx < self.lasts.len() && self.firsts[idx].as_ref() <= user_key).then_some(idx)
    }
}

/// Level-0 state for one partition.
#[derive(Default)]
pub struct PmLevel0 {
    /// Oldest → newest; reads walk newest → oldest.
    pub unsorted: Vec<PmTableHandle>,
    /// Non-overlapping ascending run. Private so every mutation rebuilds
    /// the fence index.
    sorted: Vec<PmTableHandle>,
    /// Fence index over `sorted`; rebuilt whenever the run changes and
    /// shared with snapshots by `Arc`.
    fence: Arc<FenceIndex>,
}

impl PmLevel0 {
    pub fn new() -> Self {
        PmLevel0::default()
    }

    /// Total bytes held on PM by this partition (`s_i` in Table II).
    pub fn bytes(&self) -> usize {
        self.unsorted.iter().map(|h| h.bytes).sum::<usize>()
            + self.sorted.iter().map(|h| h.bytes).sum::<usize>()
    }

    /// Number of unsorted tables (`n_i`).
    pub fn unsorted_count(&self) -> usize {
        self.unsorted.len()
    }

    /// Number of sorted-run tables (`m_i`).
    pub fn sorted_count(&self) -> usize {
        self.sorted.len()
    }

    /// The sorted run, oldest data in level-0.
    pub fn sorted_run(&self) -> &[PmTableHandle] {
        &self.sorted
    }

    pub fn is_empty(&self) -> bool {
        self.unsorted.is_empty() && self.sorted.is_empty()
    }

    /// Total entries across level-0.
    pub fn entries(&self) -> usize {
        self.unsorted.iter().map(|h| h.entries).sum::<usize>()
            + self.sorted.iter().map(|h| h.entries).sum::<usize>()
    }

    /// Register a fresh minor-compaction output.
    pub fn push_unsorted(&mut self, handle: PmTableHandle) {
        self.unsorted.push(handle);
    }

    /// Install a sorted run directly (tests and recovery); unlike
    /// [`PmLevel0::replace_with_sorted`] nothing is freed.
    pub fn set_sorted_run(&mut self, run: Vec<PmTableHandle>) {
        debug_assert!(run.windows(2).all(|w| w[0].last < w[1].first));
        self.fence = Arc::new(FenceIndex::build(&run));
        self.sorted = run;
    }

    /// Point lookup across level-0: newest unsorted table wins, then the
    /// sorted run.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        let mut stats = ProbeStats::default();
        get_in(
            &self.unsorted,
            &self.sorted,
            &self.fence,
            user_key,
            snapshot,
            tl,
            None,
            &mut stats,
        )
    }

    /// A cheap immutable copy of the current table set (Arc clones of
    /// the handles, no data copied). Because PM tables are never mutated
    /// after publication, the snapshot can be searched without holding
    /// the partition lock; a concurrent compaction that frees the
    /// underlying regions cannot invalidate the `Arc`-held tables.
    pub fn snapshot(&self) -> PmL0Snapshot {
        PmL0Snapshot {
            unsorted: self.unsorted.clone(),
            sorted: self.sorted.clone(),
            fence: Arc::clone(&self.fence),
        }
    }

    /// Scan cursors over `[.., end)`: one per unsorted table plus one
    /// concatenating cursor over the sorted run.
    pub fn cursors<'a>(
        &'a self,
        end: Option<&'a [u8]>,
        cache: &'a PmGroupCache,
    ) -> impl Iterator<Item = Cursor<'a>> {
        let runs = self.unsorted.iter().map(std::slice::from_ref);
        runs.chain(std::iter::once(&self.sorted[..]))
            .map(move |run| Cursor::Pm(PmRun::new(run, end, cache)))
    }

    /// Read every entry of every table (internal-compaction input).
    pub fn scan_all_sources(&self, tl: &mut Timeline) -> Vec<Vec<OwnedEntry>> {
        let mut sources: Vec<Vec<OwnedEntry>> =
            self.unsorted.iter().map(|h| h.table.scan_all(tl)).collect();
        let mut run = Vec::new();
        for handle in &self.sorted {
            run.extend(handle.table.scan_all(tl));
        }
        if !run.is_empty() {
            sources.push(run);
        }
        sources
    }

    /// How many sorted-run and unsorted tables a major compaction limited
    /// to `limit` tables moves: the *oldest* first. The sorted run is
    /// always older than every unsorted table (it was built from all
    /// tables present at its creation; later flushes only append
    /// unsorted tables with strictly newer sequences), and unsorted
    /// tables age front-to-back — so draining run-first/front-first
    /// guarantees any version left behind in level-0 is newer than what
    /// moved down, and reads (level-0 before level-1) stay correct
    /// between chunks.
    fn oldest(&self, limit: usize) -> (usize, usize) {
        let take_sorted = self.sorted.len().min(limit);
        (take_sorted, self.unsorted.len().min(limit - take_sorted))
    }

    /// The entries of the `limit` oldest tables, as merge sources (the
    /// input of a chunked major compaction). Nothing is detached yet.
    pub fn read_oldest(&self, limit: usize, tl: &mut Timeline) -> Vec<Vec<OwnedEntry>> {
        let (take_sorted, take_unsorted) = self.oldest(limit);
        let mut sources = Vec::new();
        let mut run = Vec::new();
        for handle in &self.sorted[..take_sorted] {
            run.extend(handle.table.scan_all(tl));
        }
        if !run.is_empty() {
            sources.push(run);
        }
        for handle in &self.unsorted[..take_unsorted] {
            sources.push(handle.table.scan_all(tl));
        }
        sources
    }

    /// Detach the tables [`PmLevel0::read_oldest`] read, once their
    /// merged output is installed below. Returns their PM regions and
    /// group-cache ids (for purging).
    pub fn detach_oldest(&mut self, limit: usize) -> (Vec<pm_device::RegionId>, Vec<u64>) {
        let (take_sorted, take_unsorted) = self.oldest(limit);
        let detached = self.sorted.drain(..take_sorted);
        let detached = detached.chain(self.unsorted.drain(..take_unsorted));
        let ids = detached.map(|h| (h.region, h.cache_id)).unzip();
        self.fence = Arc::new(FenceIndex::build(&self.sorted));
        ids
    }

    /// Drop every table, freeing PM space. Returns bytes released and
    /// the retired tables' group-cache ids.
    pub fn clear(&mut self, pool: &PmPool) -> (usize, Vec<u64>) {
        let released = self.bytes();
        let mut cache_ids = Vec::with_capacity(self.unsorted.len() + self.sorted.len());
        for handle in self.unsorted.drain(..).chain(self.sorted.drain(..)) {
            pool.free(handle.region);
            cache_ids.push(handle.cache_id);
        }
        self.fence = Arc::new(FenceIndex::default());
        (released, cache_ids)
    }

    /// Replace the whole level-0 with a new sorted run WITHOUT freeing
    /// the old tables: returns their bytes, regions, and group-cache
    /// ids so the caller can retire them *after* the manifest edit
    /// recording the new version is durable. Freeing before the edit
    /// commits would let a crash destroy the only copy of the data.
    pub fn replace_with_sorted_deferred(
        &mut self,
        run: Vec<PmTableHandle>,
    ) -> (usize, Vec<pm_device::RegionId>, Vec<u64>) {
        debug_assert!(run.windows(2).all(|w| w[0].last < w[1].first));
        let released = self.bytes();
        let mut regions = Vec::with_capacity(self.unsorted.len() + self.sorted.len());
        let mut cache_ids = Vec::with_capacity(regions.capacity());
        for handle in self.unsorted.drain(..).chain(self.sorted.drain(..)) {
            regions.push(handle.region);
            cache_ids.push(handle.cache_id);
        }
        self.fence = Arc::new(FenceIndex::build(&run));
        self.sorted = run;
        (released, regions, cache_ids)
    }

    /// Replace the whole level-0 with a new sorted run (after internal
    /// compaction). Returns bytes released by the old tables and their
    /// group-cache ids.
    pub fn replace_with_sorted(
        &mut self,
        run: Vec<PmTableHandle>,
        pool: &PmPool,
    ) -> (usize, Vec<u64>) {
        debug_assert!(run.windows(2).all(|w| w[0].last < w[1].first));
        let (released, cache_ids) = self.clear(pool);
        self.fence = Arc::new(FenceIndex::build(&run));
        self.sorted = run;
        (released, cache_ids)
    }
}

impl std::fmt::Debug for PmLevel0 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmLevel0")
            .field("unsorted", &self.unsorted.len())
            .field("sorted", &self.sorted.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A point-in-time view of one partition's level-0, safe to search
/// without any lock held. See [`PmLevel0::snapshot`].
#[derive(Clone, Debug)]
pub struct PmL0Snapshot {
    unsorted: Vec<PmTableHandle>,
    sorted: Vec<PmTableHandle>,
    fence: Arc<FenceIndex>,
}

impl PmL0Snapshot {
    /// Point lookup with the same semantics as [`PmLevel0::get`].
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        let mut stats = ProbeStats::default();
        self.get_with(user_key, snapshot, tl, None, &mut stats)
    }

    /// Point lookup threading the shared group-decode cache and probe
    /// accounting. `cache` of `None` (or a zero-capacity cache) degrades
    /// to plain PM reads.
    pub fn get_with(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
        cache: Option<&PmGroupCache>,
        stats: &mut ProbeStats,
    ) -> Option<Lookup> {
        get_in(
            &self.unsorted,
            &self.sorted,
            &self.fence,
            user_key,
            snapshot,
            tl,
            cache,
            stats,
        )
    }

    pub fn is_empty(&self) -> bool {
        self.unsorted.is_empty() && self.sorted.is_empty()
    }
}

/// Search one table, going through the shared group cache when provided.
fn probe_table(
    handle: &PmTableHandle,
    user_key: &[u8],
    snapshot: SequenceNumber,
    tl: &mut Timeline,
    cache: Option<&PmGroupCache>,
    stats: &mut ProbeStats,
) -> Option<Lookup> {
    stats.tables_probed += 1;
    let before = tl.elapsed().as_nanos();
    let (hit, cache_hits, cache_misses) = match cache {
        Some(c) => {
            let access = ObservedGroupAccess::new(c.for_table(handle.cache_id));
            let hit = handle.table.get_with_cache(user_key, snapshot, tl, &access);
            (hit, access.hits(), access.misses())
        }
        None => (handle.table.get(user_key, snapshot, tl), 0, 0),
    };
    let spent = tl.elapsed().as_nanos().saturating_sub(before);
    stats.decode_cache_hits += cache_hits;
    stats.decode_cache_misses += cache_misses;
    // A probe counts as cache-served only when every group it touched
    // came out of the cache; anything else decoded from PM.
    if cache_hits > 0 && cache_misses == 0 {
        stats.decode_hit_nanos += spent;
    } else {
        stats.decode_miss_nanos += spent;
    }
    hit
}

/// Consult a table's bloom filter (when it has one). Returns `true` when
/// the filter proves the key absent and the probe can be skipped.
fn filter_rules_out(
    handle: &PmTableHandle,
    user_key: &[u8],
    tl: &mut Timeline,
    stats: &mut ProbeStats,
) -> bool {
    let before = tl.elapsed().as_nanos();
    let verdict = handle.table.filter_may_contain(user_key, tl);
    stats.filter_nanos += tl.elapsed().as_nanos().saturating_sub(before);
    match verdict {
        Some(may_contain) => {
            stats.filter_checked += 1;
            if may_contain {
                false
            } else {
                stats.filter_useful += 1;
                true
            }
        }
        None => false,
    }
}

/// Shared lookup walk over an (unsorted, sorted) table set.
#[allow(clippy::too_many_arguments)]
fn get_in(
    unsorted: &[PmTableHandle],
    sorted: &[PmTableHandle],
    fence: &FenceIndex,
    user_key: &[u8],
    snapshot: SequenceNumber,
    tl: &mut Timeline,
    cache: Option<&PmGroupCache>,
    stats: &mut ProbeStats,
) -> Option<Lookup> {
    // Unsorted tables are mutually overlapping: scan newest→oldest and
    // take the newest visible version seen (a newer table always holds
    // newer sequences for the keys it contains).
    let mut best: Option<Lookup> = None;
    for handle in unsorted.iter().rev() {
        if !handle.overlaps_key(user_key) {
            continue;
        }
        let had_filter = handle.table.has_filter();
        if had_filter && filter_rules_out(handle, user_key, tl, stats) {
            continue;
        }
        if let Some(hit) = probe_table(handle, user_key, snapshot, tl, cache, stats) {
            match &best {
                Some(b) if b.seq >= hit.seq => {}
                _ => best = Some(hit),
            }
            // Tables are flushed in sequence order; the first hit
            // from the newest table is final.
            break;
        } else if had_filter {
            stats.filter_false_positives += 1;
        }
    }
    if best.is_some() {
        return best;
    }
    // Sorted run: the fence index names the only table that can contain
    // the key (or proves none does).
    debug_assert_eq!(fence.len(), sorted.len());
    if let Some(idx) = fence.locate(user_key) {
        let handle = &sorted[idx];
        let had_filter = handle.table.has_filter();
        if had_filter && filter_rules_out(handle, user_key, tl, stats) {
            return None;
        }
        let hit = probe_table(handle, user_key, snapshot, tl, cache, stats);
        if hit.is_none() && had_filter {
            stats.filter_false_positives += 1;
        }
        return hit;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CodecCostTable;
    use crate::cursor::tests::drain;
    use crate::handle::{build_pm_tables, CacheIds};
    use pmtable::PmTableOptions;
    use sim::CostModel;

    fn entry(k: &str, seq: u64, v: &str) -> OwnedEntry {
        OwnedEntry::value(k.as_bytes().to_vec(), seq, v.as_bytes().to_vec())
    }

    fn table(pool: &PmPool, entries: Vec<OwnedEntry>) -> PmTableHandle {
        table_opts(pool, entries, PmTableOptions::default())
    }

    fn filtered_table(pool: &PmPool, entries: Vec<OwnedEntry>) -> PmTableHandle {
        table_opts(
            pool,
            entries,
            PmTableOptions {
                filter_bits_per_key: 10,
                ..Default::default()
            },
        )
    }

    fn table_opts(pool: &PmPool, entries: Vec<OwnedEntry>, opts: PmTableOptions) -> PmTableHandle {
        let cost = CostModel::default();
        let mut sorted = entries;
        sorted.sort_by(|a, b| a.internal_cmp(b));
        let mut tl = Timeline::new();
        build_pm_tables(
            &sorted,
            opts,
            &CodecCostTable::default(),
            usize::MAX,
            pool,
            &CacheIds::new(),
            &cost,
            &mut tl,
        )
        .unwrap()
        .pop()
        .unwrap()
    }

    fn pool() -> std::sync::Arc<PmPool> {
        PmPool::new(8 << 20, CostModel::default())
    }

    #[test]
    fn empty_level0() {
        let l0 = PmLevel0::new();
        let mut tl = Timeline::new();
        assert!(l0.is_empty());
        assert_eq!(l0.bytes(), 0);
        assert!(l0.get(b"k", u64::MAX, &mut tl).is_none());
    }

    #[test]
    fn newest_unsorted_table_shadows_older() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        l0.push_unsorted(table(&pool, vec![entry("k", 1, "old")]));
        l0.push_unsorted(table(&pool, vec![entry("k", 9, "new")]));
        let mut tl = Timeline::new();
        assert_eq!(l0.get(b"k", u64::MAX, &mut tl).unwrap().value, b"new");
        // Snapshot below the newer version falls through to the older
        // table.
        assert_eq!(l0.get(b"k", 5, &mut tl).unwrap().value, b"old");
    }

    #[test]
    fn sorted_run_serves_after_unsorted_miss() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        l0.set_sorted_run(vec![
            table(&pool, vec![entry("a", 1, "1"), entry("c", 2, "2")]),
            table(&pool, vec![entry("m", 3, "3"), entry("z", 4, "4")]),
        ]);
        l0.push_unsorted(table(&pool, vec![entry("b", 9, "fresh")]));
        let mut tl = Timeline::new();
        assert_eq!(l0.get(b"m", u64::MAX, &mut tl).unwrap().value, b"3");
        assert_eq!(l0.get(b"b", u64::MAX, &mut tl).unwrap().value, b"fresh");
        assert!(l0.get(b"q", u64::MAX, &mut tl).is_none());
        assert_eq!(l0.sorted_count(), 2);
        assert_eq!(l0.unsorted_count(), 1);
    }

    #[test]
    fn replace_with_sorted_frees_old_space() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        l0.push_unsorted(table(&pool, vec![entry("a", 1, "x")]));
        l0.push_unsorted(table(&pool, vec![entry("a", 2, "y")]));
        let before = pool.used();
        assert!(before > 0);
        let run = vec![table(&pool, vec![entry("a", 2, "y")])];
        let (released, retired) = l0.replace_with_sorted(run, &pool);
        assert!(released > 0);
        assert_eq!(retired.len(), 2, "both old tables report cache ids");
        assert_eq!(l0.unsorted_count(), 0);
        assert_eq!(l0.sorted_count(), 1);
        assert!(pool.used() < before);
        let mut tl = Timeline::new();
        assert_eq!(l0.get(b"a", u64::MAX, &mut tl).unwrap().value, b"y");
    }

    #[test]
    fn clear_releases_everything() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        l0.push_unsorted(table(&pool, vec![entry("a", 1, "x")]));
        l0.set_sorted_run(vec![table(&pool, vec![entry("b", 2, "y")])]);
        let (released, retired) = l0.clear(&pool);
        assert!(released > 0);
        assert_eq!(retired.len(), 2);
        assert!(l0.is_empty());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn cursors_merge_every_table_and_open_the_run_lazily() {
        let pool = pool();
        let cache = PmGroupCache::new(1 << 20);
        let mut l0 = PmLevel0::new();
        // The `table` helper mints every handle the same cache id.
        let table = |cache_id, entries| PmTableHandle {
            cache_id,
            ..table(&pool, entries)
        };
        l0.set_sorted_run(vec![
            table(1, vec![entry("a", 1, "1"), entry("c", 2, "2")]),
            table(2, vec![entry("m", 3, "3"), entry("z", 4, "4")]),
        ]);
        l0.push_unsorted(table(3, vec![entry("b", 8, "b"), entry("c", 9, "new")]));
        let scan = |start: &[u8], end: Option<&'static [u8]>| -> Vec<(Vec<u8>, Vec<u8>)> {
            let rows = drain(l0.cursors(end, &cache).collect(), start, end, false);
            rows.into_iter().map(|e| (e.user_key, e.value)).collect()
        };
        let row = |k: &str, v: &str| (k.as_bytes().to_vec(), v.as_bytes().to_vec());
        // Ends before the run's second table begins: it is never opened.
        assert_eq!(scan(b"b", Some(b"d")), [row("b", "b"), row("c", "new")]);
        assert_eq!(cache.len(), 2, "one group each from the two tables touched");
        // Crosses from the run's first table into its second.
        assert_eq!(
            scan(b"", None),
            [
                row("a", "1"),
                row("b", "b"),
                row("c", "new"),
                row("m", "3"),
                row("z", "4")
            ]
        );
        assert_eq!(scan(b"d", Some(b"m")), []);
        assert_eq!(scan(b"n", None), [row("z", "4")]);
    }

    #[test]
    fn fence_index_locates_only_covering_table() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        l0.set_sorted_run(vec![
            table(&pool, vec![entry("b", 1, "1"), entry("d", 2, "2")]),
            table(&pool, vec![entry("h", 3, "3"), entry("k", 4, "4")]),
        ]);
        let snap = l0.snapshot();
        let fence = FenceIndex::build(l0.sorted_run());
        assert_eq!(fence.len(), 2);
        assert_eq!(fence.locate(b"b"), Some(0));
        assert_eq!(fence.locate(b"c"), Some(0));
        assert_eq!(fence.locate(b"d"), Some(0));
        assert_eq!(fence.locate(b"h"), Some(1));
        assert_eq!(fence.locate(b"k"), Some(1));
        // Keys before, between, and after the run resolve to no table.
        assert_eq!(fence.locate(b"a"), None);
        assert_eq!(fence.locate(b"f"), None);
        assert_eq!(fence.locate(b"z"), None);
        let mut tl = Timeline::new();
        assert_eq!(snap.get(b"h", u64::MAX, &mut tl).unwrap().value, b"3");
        assert!(snap.get(b"f", u64::MAX, &mut tl).is_none());
    }

    #[test]
    fn bloom_filters_skip_absent_key_probes() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        // Two wide unsorted tables that both straddle the probe key.
        l0.push_unsorted(filtered_table(
            &pool,
            vec![entry("a", 1, "1"), entry("z", 2, "2")],
        ));
        l0.push_unsorted(filtered_table(
            &pool,
            vec![entry("b", 3, "3"), entry("y", 4, "4")],
        ));
        let snap = l0.snapshot();
        let mut tl = Timeline::new();
        let mut stats = ProbeStats::default();
        assert!(snap
            .get_with(b"mmm", u64::MAX, &mut tl, None, &mut stats)
            .is_none());
        assert_eq!(stats.filter_checked, 2);
        assert_eq!(
            stats.filter_useful + stats.filter_false_positives,
            2,
            "every checked filter either pruned or false-positived"
        );
        assert_eq!(
            stats.tables_probed, stats.filter_false_positives,
            "only false positives cost a table probe"
        );
        // Present keys always reach the table (no false negatives).
        let mut stats = ProbeStats::default();
        let hit = snap
            .get_with(b"b", u64::MAX, &mut tl, None, &mut stats)
            .unwrap();
        assert_eq!(hit.value, b"3");
        assert!(stats.tables_probed >= 1);
    }

    #[test]
    fn group_cache_serves_repeat_reads() {
        let pool = pool();
        let cache = PmGroupCache::new(1 << 20);
        let mut l0 = PmLevel0::new();
        l0.push_unsorted(filtered_table(
            &pool,
            (0..64)
                .map(|i| entry(&format!("k{i:04}"), i + 1, "v"))
                .collect(),
        ));
        let snap = l0.snapshot();
        let mut stats = ProbeStats::default();
        let mut cold_tl = Timeline::new();
        let cold = snap.get_with(b"k0007", u64::MAX, &mut cold_tl, Some(&cache), &mut stats);
        assert_eq!(cold.unwrap().value, b"v");
        assert_eq!(cache.hits.get(), 0);
        let mut warm_tl = Timeline::new();
        let warm = snap.get_with(b"k0007", u64::MAX, &mut warm_tl, Some(&cache), &mut stats);
        assert_eq!(warm.unwrap().value, b"v");
        assert_eq!(cache.hits.get(), 1);
        assert!(
            warm_tl.elapsed() < cold_tl.elapsed(),
            "cached group read must be cheaper than a PM decode"
        );
    }
}
