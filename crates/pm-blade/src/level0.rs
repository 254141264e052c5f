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
//! Three read accelerators sit in front of the table probes:
//!
//! - the **key sketch** answers "which unsorted tables hold this key"
//!   with one lookup, so a get's level-0 cost does not grow with the
//!   unsorted-table count. It maps a key's [`BloomFilter::hashes`]
//!   fingerprint to a `u64` mask of the (up to 64) oldest unsorted
//!   tables that hold it; a get then probes only the masked tables,
//!   newest first. It exists when PM filters are on
//!   (`pm_filter_bits_per_key > 0`), because it is filled from the
//!   hashes a table build already computes for its filter — at flush,
//!   with no build charge of its own, as the filter has none — and at
//!   open from the pass that finds each table's largest sequence. A
//!   lookup is charged one DRAM random read per 64-byte line it touches
//!   (16-byte slots, four to a line; at most 3/4 full, so about one
//!   line). The slots cost 21–43 bytes of DRAM per distinct key
//!   (16 bytes at a load between 3/8 and 3/4);
//! - each table's **bloom filter** (built at flush time under the same
//!   knob) is consulted before the sorted run's candidate table is
//!   searched, and before any unsorted table the sketch does not cover
//!   (a 65th table, or one pushed while an older one is uncovered);
//! - the sorted run's **fence keys** (each handle's first/last user key)
//!   locate the single candidate table with one binary search.
//!
//! Scans have their own: each unsorted table's DRAM **key column**
//! ([`pmtable::KeyColumn`], on its handle, filled from the same build or
//! open pass as the sketch; 8 bytes per entry and 4 per group). A scan
//! searches it instead of seeking the table, and opens the table only
//! when the merge reaches the bound the search gave (see
//! [`crate::cursor::PmRun`]).
//!
//! The table set is published as an immutable [`L0Version`] behind an
//! `Arc` and copied on *write*: a point read takes a reference to the
//! current version (one refcount bump, whatever the table count) and
//! searches it with no lock held.

use std::cell::OnceCell;
use std::sync::Arc;

use encoding::bloom::BloomFilter;
use encoding::key::SequenceNumber;
use pm_device::RegionId;
use pmtable::{Lookup, TableKeys};
use sim::Timeline;

use crate::cursor::{Cursor, PmRun};
use crate::groupcache::{PmGroupCache, TableGroupCache};
use crate::handle::PmTableHandle;
use crate::telemetry::{SpanKind, StageTimes};

/// What one get's level-0 search decided, folded into the engine's
/// level-0 counters. Where its time went is counted apart, in a
/// [`StageTimes`].
#[derive(Default, Clone, Copy, Debug)]
pub struct ProbeStats {
    /// PM tables actually searched (meta layer touched).
    pub tables_probed: u64,
    /// Per-table verdicts: each unsorted table the key sketch ruled on,
    /// plus each table whose own bloom filter was consulted.
    pub filter_checked: u64,
    /// Verdicts that ruled a table out, skipping its probe.
    pub filter_useful: u64,
    /// A verdict said "maybe" but the table did not hold the key.
    pub filter_false_positives: u64,
    /// Key-sketch lookups (0 or 1 per get).
    pub sketch_probes: u64,
}

/// One get: the key, the snapshot it reads at, the cache PM groups come
/// through, and the key's one filter hash pair. The pair is hashed from
/// this key at the first sketch or filter that asks — level-0's or an
/// SSD table's — and reused by every later one; it is private, so it
/// can only ever be this key's.
pub struct Probe<'a> {
    pub(crate) user_key: &'a [u8],
    pub(crate) snapshot: SequenceNumber,
    pub(crate) cache: &'a PmGroupCache,
    hashes: OnceCell<(u64, u64)>,
}

impl<'a> Probe<'a> {
    pub fn new(user_key: &'a [u8], snapshot: SequenceNumber, cache: &'a PmGroupCache) -> Self {
        Probe {
            user_key,
            snapshot,
            cache,
            hashes: OnceCell::new(),
        }
    }

    /// The key's [`BloomFilter::hashes`], hashed on first use.
    pub(crate) fn hashes(&self) -> (u64, u64) {
        *self
            .hashes
            .get_or_init(|| BloomFilter::hashes(self.user_key))
    }
}

/// A [`Probe`]'s search of an [`L0Version`], and where its verdicts and
/// time are counted.
struct Search<'a> {
    probe: &'a Probe<'a>,
    stats: &'a mut ProbeStats,
    stages: &'a mut StageTimes,
}

impl Search<'_> {
    /// One sketch or filter lookup that ruled on `tables` tables, `passed`
    /// of which may hold the key, in `nanos` of virtual time.
    fn rule(&mut self, tables: u64, passed: u64, nanos: u64) {
        let ruled_out = tables - passed;
        self.stats.filter_checked += tables;
        self.stats.filter_useful += ruled_out;
        self.stages
            .add(SpanKind::FilterConsult, nanos, 1, ruled_out);
    }

    /// Search one table through the group cache. Its time is a decode
    /// hit when every group it touched came out of the cache, a decode
    /// miss otherwise.
    fn table(&mut self, handle: &PmTableHandle, tl: &mut Timeline) -> Option<Lookup> {
        self.stats.tables_probed += 1;
        let before = tl.elapsed().as_nanos();
        let access = TableGroupCache::new(self.probe.cache, handle.cache_id);
        let (key, snapshot) = (self.probe.user_key, self.probe.snapshot);
        let hit = handle.table.get_with_cache(key, snapshot, tl, &access);
        let spent = tl.elapsed().as_nanos() - before;
        let (hits, misses) = (access.hits(), access.misses());
        let hit_nanos = if hits > 0 && misses == 0 { spent } else { 0 };
        self.stages.add(SpanKind::PmDecodeHit, hit_nanos, hits, 0);
        self.stages
            .add(SpanKind::PmDecodeMiss, spent - hit_nanos, misses, 0);
        hit
    }

    /// Search one table behind its own bloom filter, when it has one:
    /// the sorted run's candidate, or an unsorted table the sketch does
    /// not cover.
    fn filtered(&mut self, handle: &PmTableHandle, tl: &mut Timeline) -> Option<Lookup> {
        let filtered = handle.table.has_filter();
        if filtered {
            let key = self.probe.hashes();
            let before = tl.elapsed().as_nanos();
            let may_contain = handle.table.filter_may_contain(key, tl) == Some(true);
            self.rule(1, may_contain.into(), tl.elapsed().as_nanos() - before);
            if !may_contain {
                return None;
            }
        }
        let hit = self.table(handle, tl);
        self.stats.filter_false_positives += u64::from(filtered && hit.is_none());
        hit
    }
}

/// Unsorted tables one [`KeySketch`] mask covers.
const SKETCH_TABLES: usize = u64::BITS as usize;

/// Sketch slots per 64-byte cache line, the unit a lookup is charged in.
const SLOTS_PER_LINE: usize = 4;

/// Which of a version's oldest unsorted tables hold a key: an
/// open-addressing (linear-probing) table from the key's fingerprint to
/// a mask whose bit `i` stands for `unsorted[i]`. Keys that share a
/// fingerprint share a slot, so a mask can name a table that lacks the
/// key (one wasted probe) but never omits one that holds it.
#[derive(Clone, Default)]
struct KeySketch {
    /// `[fingerprint, mask]`, fingerprint 0 marking an empty slot; a
    /// power of two long and at most 3/4 full.
    slots: Vec<[u64; 2]>,
    used: usize,
    /// Unsorted tables `[0, covered)` have every key in here.
    covered: usize,
}

/// A key's sketch fingerprint, which also places it; never 0.
fn fingerprint((h1, _): (u64, u64)) -> u64 {
    h1.max(1)
}

impl KeySketch {
    /// The slot holding `fingerprint`, or the empty one where it goes,
    /// and the cache lines walked to find it.
    fn slot(&self, fingerprint: u64) -> (usize, u64) {
        let wrap = self.slots.len() - 1;
        let (mut i, mut lines) = (fingerprint as usize & wrap, 1);
        while self.slots[i][0] != 0 && self.slots[i][0] != fingerprint {
            i = (i + 1) & wrap;
            lines += u64::from(i % SLOTS_PER_LINE == 0);
        }
        (i, lines)
    }

    fn insert(&mut self, fingerprint: u64, mask: u64) {
        let (i, _) = self.slot(fingerprint);
        let [held, old] = self.slots[i];
        self.used += usize::from(held == 0);
        self.slots[i] = [fingerprint, old | mask];
    }

    /// Take in the next unsorted table by its [`TableKeys::hashes`].
    fn cover(&mut self, key_hashes: &[(u64, u64)]) {
        let bit = 1 << self.covered;
        for &hashes in key_hashes {
            if 4 * (self.used + 1) > 3 * self.slots.len() {
                self.rebuild(0, (2 * self.slots.len()).max(16));
            }
            self.insert(fingerprint(hashes), bit);
        }
        self.covered += 1;
    }

    /// Forget the `n` oldest unsorted tables.
    fn drop_oldest(&mut self, n: usize) {
        if n >= self.covered {
            *self = KeySketch::default();
        } else if n > 0 {
            self.covered -= n;
            self.rebuild(n as u32, self.slots.len());
        }
    }

    /// Re-insert every key into `capacity` slots, its mask shifted down
    /// by `shift` tables; a key left in no table goes.
    fn rebuild(&mut self, shift: u32, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![[0; 2]; capacity]);
        self.used = 0;
        for [fingerprint, mask] in old {
            if mask >> shift != 0 {
                self.insert(fingerprint, mask >> shift);
            }
        }
    }
}

/// One immutable version of a partition's level-0 table set.
///
/// [`PmLevel0`] publishes its current version behind an `Arc`. A reader
/// takes a reference ([`PmLevel0::version`]: one refcount bump, no
/// allocation, independent of the table count) and searches it without
/// the partition lock; PM tables are never mutated after publication
/// and the handles' `Arc`s keep them readable even after a compaction
/// frees their pool space. Whoever *mutates* level-0 pays instead, and
/// only when a reader still holds the version being replaced: the two
/// handle lists are copied — refcount bumps per handle, never table
/// data or a key — and so are the key sketch's slots, one `memcpy` of
/// its [`L0Version::sketch_bytes`]. With no concurrent reader (one
/// thread driving an Inline engine) nothing is ever copied.
#[derive(Default, Clone)]
pub struct L0Version {
    /// Oldest → newest; reads walk newest → oldest.
    unsorted: Vec<PmTableHandle>,
    /// Non-overlapping ascending run.
    sorted: Vec<PmTableHandle>,
    sketch: KeySketch,
}

impl L0Version {
    /// The unsorted tables, oldest first.
    pub fn unsorted(&self) -> &[PmTableHandle] {
        &self.unsorted
    }

    /// The sorted run, oldest data in level-0.
    pub fn sorted_run(&self) -> &[PmTableHandle] {
        &self.sorted
    }

    /// Every table: the unsorted ones, then the sorted run.
    pub fn tables(&self) -> impl Iterator<Item = &PmTableHandle> {
        self.unsorted.iter().chain(&self.sorted)
    }

    /// Total bytes held on PM by this partition (`s_i` in Table II).
    pub fn bytes(&self) -> usize {
        self.tables().map(|h| h.bytes).sum()
    }

    /// Number of unsorted tables (`n_i`).
    pub fn unsorted_count(&self) -> usize {
        self.unsorted.len()
    }

    /// Number of sorted-run tables (`m_i`).
    pub fn sorted_count(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.unsorted.is_empty() && self.sorted.is_empty()
    }

    /// Total entries across level-0.
    pub fn entries(&self) -> usize {
        self.tables().map(|h| h.entries).sum()
    }

    /// DRAM the key sketch takes.
    pub fn sketch_bytes(&self) -> usize {
        std::mem::size_of_val(self.sketch.slots.as_slice())
    }

    /// DRAM the unsorted tables' key columns take.
    pub fn key_column_bytes(&self) -> usize {
        let columns = self.unsorted.iter().filter_map(|h| h.column.as_deref());
        columns.map(|c| c.bytes()).sum()
    }

    /// Index of the unique sorted-run table whose `[first, last]` range
    /// covers `user_key`, if any: binary search over the last-key
    /// fences, then one first-key comparison to reject a key in a gap.
    fn locate(&self, user_key: &[u8]) -> Option<usize> {
        let idx = self.sorted.partition_point(|h| &*h.last < user_key);
        (self.sorted.get(idx)?.first.as_ref() <= user_key).then_some(idx)
    }

    /// Point lookup across level-0: newest unsorted table wins, then the
    /// sorted run. Groups come through the probe's cache; a
    /// zero-capacity cache reads every one from PM. The sketch and
    /// filter lookups are `filter_consult` in `stages`, the table probes
    /// `pm_decode_hit` or `pm_decode_miss`. The sketch and every filter
    /// take the probe's one hash pair.
    pub fn get(
        &self,
        probe: &Probe<'_>,
        tl: &mut Timeline,
        stats: &mut ProbeStats,
        stages: &mut StageTimes,
    ) -> Option<Lookup> {
        let mut search = Search {
            probe,
            stats,
            stages,
        };
        // Unsorted tables are mutually overlapping and flushed in
        // sequence order: walking newest→oldest, the first hit is the
        // newest visible version. Those past the sketch are the newest.
        let covered = self.sketch.covered;
        for handle in self.unsorted[covered..].iter().rev() {
            if handle.overlaps_key(probe.user_key) {
                let hit = search.filtered(handle, tl);
                if hit.is_some() {
                    return hit;
                }
            }
        }
        if covered > 0 {
            let before = tl.elapsed().as_nanos();
            let (slot, lines) = self.sketch.slot(fingerprint(probe.hashes()));
            let mut mask = self.sketch.slots[slot][1];
            tl.charge(self.unsorted[0].table.cost_model().dram.random_read(64) * lines);
            search.stats.sketch_probes += 1;
            let nanos = tl.elapsed().as_nanos() - before;
            search.rule(covered as u64, mask.count_ones().into(), nanos);
            while mask != 0 {
                let newest = (u64::BITS - 1 - mask.leading_zeros()) as usize;
                mask ^= 1 << newest;
                let hit = search.table(&self.unsorted[newest], tl);
                if hit.is_some() {
                    return hit;
                }
                search.stats.filter_false_positives += 1;
            }
        }
        // Sorted run: the fence keys name the only table that can
        // contain the key (or prove none does).
        let handle = &self.sorted[self.locate(probe.user_key)?];
        search.filtered(handle, tl)
    }

    /// The `limit` *oldest* tables, as (sorted-run tables, unsorted
    /// tables): what a major compaction limited to `limit` tables moves.
    /// The sorted run is always older than every unsorted table (it was
    /// built from all tables present at its creation; later flushes only
    /// append unsorted tables with strictly newer sequences), and
    /// unsorted tables age front-to-back — so draining
    /// run-first/front-first guarantees any version left behind in
    /// level-0 is newer than what moved down, and reads (level-0 before
    /// level-1) stay correct between chunks.
    pub fn oldest(&self, limit: usize) -> (&[PmTableHandle], &[PmTableHandle]) {
        let take_sorted = self.sorted.len().min(limit);
        let take_unsorted = self.unsorted.len().min(limit - take_sorted);
        (&self.sorted[..take_sorted], &self.unsorted[..take_unsorted])
    }

    /// Cursors over the `limit` oldest tables (`usize::MAX`: all of
    /// them) for `[.., end)`: one per unsorted table plus one
    /// concatenating cursor over the sorted run. A scan reads through
    /// `cache` and holds each unsorted table by its key column until the
    /// merge reaches it ([`PmRun`]); a compaction passes none and reads
    /// each table sequentially past it.
    pub fn cursors<'a>(
        &'a self,
        limit: usize,
        end: Option<&'a [u8]>,
        cache: Option<&'a PmGroupCache>,
    ) -> impl Iterator<Item = Cursor<'a>> {
        let (run, unsorted) = self.oldest(limit);
        let unsorted = unsorted.iter().map(move |h| {
            let column = h.column.as_deref().filter(|_| cache.is_some());
            Cursor::Pm(PmRun::new(std::slice::from_ref(h), column, end, cache))
        });
        let run = Cursor::Pm(PmRun::new(run, None, end, cache));
        unsorted.chain(std::iter::once(run))
    }
}

/// Level-0 state for one partition: the current [`L0Version`] (read
/// through `Deref`) and the mutations that publish its successor. Every
/// mutation runs under the partition write lock and goes through
/// `Arc::make_mut` or build-and-swap, so a version a reader holds never
/// changes.
#[derive(Default)]
pub struct PmLevel0 {
    current: Arc<L0Version>,
}

impl std::ops::Deref for PmLevel0 {
    type Target = L0Version;

    fn deref(&self) -> &L0Version {
        &self.current
    }
}

impl PmLevel0 {
    pub fn new() -> Self {
        PmLevel0::default()
    }

    /// The published version, to search after the partition lock is
    /// dropped. See [`L0Version`] for what this costs and who pays.
    pub fn version(&self) -> Arc<L0Version> {
        Arc::clone(&self.current)
    }

    /// Register a fresh minor-compaction output with its [`TableKeys`].
    /// The key sketch takes its hashes in when it covers every older
    /// unsorted table and has a bit left; otherwise the table's own
    /// filter guards its probes. The table keeps its key column for
    /// scans.
    pub fn push_unsorted(&mut self, mut handle: PmTableHandle, keys: TableKeys) {
        let next = Arc::make_mut(&mut self.current);
        let sketch = &mut next.sketch;
        if sketch.covered == next.unsorted.len()
            && sketch.covered < SKETCH_TABLES
            && !keys.hashes.is_empty()
        {
            sketch.cover(&keys.hashes);
        }
        handle.column = Some(Arc::new(keys.column));
        next.unsorted.push(handle);
    }

    /// Install a sorted run directly (tests and recovery); nothing is
    /// retired.
    pub fn set_sorted_run(&mut self, run: Vec<PmTableHandle>) {
        debug_assert!(run.windows(2).all(|w| w[0].last < w[1].first));
        Arc::make_mut(&mut self.current).sorted = run;
    }

    /// Detach the tables [`L0Version::oldest`] names, once their
    /// merged output is installed below. Returns their PM regions and
    /// group-cache ids (for purging).
    pub fn detach_oldest(&mut self, limit: usize) -> (Vec<RegionId>, Vec<u64>) {
        let (run, unsorted) = self.oldest(limit);
        let (take_sorted, take_unsorted) = (run.len(), unsorted.len());
        let next = Arc::make_mut(&mut self.current);
        next.sketch.drop_oldest(take_unsorted);
        let detached = next.sorted.drain(..take_sorted);
        let detached = detached.chain(next.unsorted.drain(..take_unsorted));
        detached.map(|h| (h.region, h.cache_id)).unzip()
    }

    /// Replace the whole level-0 with a new sorted run WITHOUT freeing
    /// the old tables: returns their bytes, regions, and group-cache
    /// ids so the caller can retire them *after* the manifest edit
    /// recording the new version is durable. Freeing before the edit
    /// commits would let a crash destroy the only copy of the data.
    pub fn replace_with_sorted_deferred(
        &mut self,
        run: Vec<PmTableHandle>,
    ) -> (usize, Vec<RegionId>, Vec<u64>) {
        debug_assert!(run.windows(2).all(|w| w[0].last < w[1].first));
        let next = L0Version {
            sorted: run,
            ..L0Version::default()
        };
        let old = std::mem::replace(&mut self.current, Arc::new(next));
        let (regions, cache_ids) = old.tables().map(|h| (h.region, h.cache_id)).unzip();
        (old.bytes(), regions, cache_ids)
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cursor::tests::drain;
    use crate::handle::{reopen_pm_table, CacheIds};
    use pm_device::PmPool;
    use pmtable::{L0Table, OwnedEntry, PmTableBuilder, PmTableOptions};
    use proptest::collection::{btree_set, vec};
    use proptest::prelude::*;
    use sim::CostModel;
    use std::collections::BTreeSet;

    fn entry(k: &str, seq: u64, v: &str) -> OwnedEntry {
        OwnedEntry::value(k.as_bytes().to_vec(), seq, v.as_bytes().to_vec())
    }

    fn table(pool: &PmPool, entries: Vec<OwnedEntry>) -> PmTableHandle {
        table_opts(pool, entries, PmTableOptions::default()).0
    }

    /// What an internal compaction does in production (`partition.rs` +
    /// `engine/maintain.rs`): swap the run in, then free the regions of
    /// the tables it replaced.
    fn replace_and_free(
        l0: &mut PmLevel0,
        run: Vec<PmTableHandle>,
        pool: &PmPool,
    ) -> (usize, Vec<u64>) {
        let (released, regions, cache_ids) = l0.replace_with_sorted_deferred(run);
        for region in regions {
            pool.free(region);
        }
        (released, cache_ids)
    }

    /// A table with a bloom filter, and the key hashes the sketch takes.
    fn filtered_table(pool: &PmPool, entries: Vec<OwnedEntry>) -> (PmTableHandle, TableKeys) {
        let opts = PmTableOptions {
            filter_bits_per_key: 10,
            ..Default::default()
        };
        table_opts(pool, entries, opts)
    }

    /// One table of `entries`, built with `pm_table`. Every handle
    /// comes with cache id 1.
    pub(crate) fn table_opts(
        pool: &PmPool,
        entries: Vec<OwnedEntry>,
        pm_table: PmTableOptions,
    ) -> (PmTableHandle, TableKeys) {
        let mut sorted = entries;
        sorted.sort_by(|a, b| a.internal_cmp(b));
        let mut builder = PmTableBuilder::new(pm_table);
        sorted.iter().for_each(|e| builder.add(e));
        let max_seq = sorted.iter().map(|e| e.seq).max().unwrap_or(0);
        let mut tl = Timeline::new();
        let (bytes, _, keys) = builder.finish_with_keys(&CostModel::default(), &mut tl);
        let region = pool.publish(bytes, &mut tl).unwrap();
        reopen_pm_table(region, Some((max_seq, keys)), &CacheIds::new()).unwrap()
    }

    fn push_filtered(l0: &mut PmLevel0, pool: &PmPool, entries: Vec<OwnedEntry>) {
        let (table, keys) = filtered_table(pool, entries);
        l0.push_unsorted(table, keys);
    }

    /// Push an unsorted table without a filter.
    fn push(l0: &mut PmLevel0, pool: &PmPool, entries: Vec<OwnedEntry>) {
        let (table, keys) = table_opts(pool, entries, PmTableOptions::default());
        l0.push_unsorted(table, keys);
    }

    fn pool() -> std::sync::Arc<PmPool> {
        PmPool::new(8 << 20, CostModel::default())
    }

    /// `v.get` through `cache`, with the stats and stage times it counted.
    fn probe(
        v: &L0Version,
        key: &[u8],
        tl: &mut Timeline,
        cache: &PmGroupCache,
    ) -> (Option<Lookup>, ProbeStats, StageTimes) {
        let (mut stats, mut stages) = Default::default();
        let hit = v.get(
            &Probe::new(key, u64::MAX, cache),
            tl,
            &mut stats,
            &mut stages,
        );
        (hit, stats, stages)
    }

    /// Uncached point lookup at `snapshot`.
    fn get_lookup(v: &L0Version, key: &[u8], snapshot: u64) -> Option<Lookup> {
        let (mut stats, mut stages) = Default::default();
        let cache = PmGroupCache::disabled();
        let probe = Probe::new(key, snapshot, &cache);
        v.get(&probe, &mut Timeline::new(), &mut stats, &mut stages)
    }

    /// [`get_lookup`], returning the value.
    fn get(v: &L0Version, key: &[u8], snapshot: u64) -> Option<Vec<u8>> {
        get_lookup(v, key, snapshot).map(|hit| hit.value)
    }

    #[test]
    fn empty_level0() {
        let l0 = PmLevel0::new();
        assert!(l0.is_empty());
        assert_eq!(l0.bytes(), 0);
        assert!(get(&l0, b"k", u64::MAX).is_none());
    }

    #[test]
    fn newest_unsorted_table_shadows_older() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        push(&mut l0, &pool, vec![entry("k", 1, "old")]);
        push(&mut l0, &pool, vec![entry("k", 9, "new")]);
        assert_eq!(get(&l0, b"k", u64::MAX).unwrap(), b"new");
        // Snapshot below the newer version falls through to the older
        // table.
        assert_eq!(get(&l0, b"k", 5).unwrap(), b"old");
    }

    #[test]
    fn sorted_run_serves_after_unsorted_miss() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        l0.set_sorted_run(vec![
            table(&pool, vec![entry("a", 1, "1"), entry("c", 2, "2")]),
            table(&pool, vec![entry("m", 3, "3"), entry("z", 4, "4")]),
        ]);
        push(&mut l0, &pool, vec![entry("b", 9, "fresh")]);
        assert_eq!(get(&l0, b"m", u64::MAX).unwrap(), b"3");
        assert_eq!(get(&l0, b"b", u64::MAX).unwrap(), b"fresh");
        assert!(get(&l0, b"q", u64::MAX).is_none());
        assert_eq!(l0.sorted_count(), 2);
        assert_eq!(l0.unsorted_count(), 1);
    }

    #[test]
    fn replace_with_sorted_frees_old_space() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        push(&mut l0, &pool, vec![entry("a", 1, "x")]);
        push(&mut l0, &pool, vec![entry("a", 2, "y")]);
        let before = pool.used();
        assert!(before > 0);
        let run = vec![table(&pool, vec![entry("a", 2, "y")])];
        let (released, retired) = replace_and_free(&mut l0, run, &pool);
        assert!(released > 0);
        assert_eq!(retired.len(), 2, "both old tables report cache ids");
        assert_eq!(l0.unsorted_count(), 0);
        assert_eq!(l0.sorted_count(), 1);
        assert!(pool.used() < before);
        assert_eq!(get(&l0, b"a", u64::MAX).unwrap(), b"y");
    }

    #[test]
    fn clear_releases_everything() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        push(&mut l0, &pool, vec![entry("a", 1, "x")]);
        l0.set_sorted_run(vec![table(&pool, vec![entry("b", 2, "y")])]);
        let (released, retired) = replace_and_free(&mut l0, Vec::new(), &pool);
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
        let entries = vec![entry("b", 8, "b"), entry("c", 9, "new")];
        let (unsorted, keys) = table_opts(&pool, entries, PmTableOptions::default());
        l0.push_unsorted(
            PmTableHandle {
                cache_id: 3,
                ..unsorted
            },
            keys,
        );
        let scan = |start: &[u8], end: Option<&'static [u8]>| -> Vec<(Vec<u8>, Vec<u8>)> {
            let rows = drain(
                l0.cursors(usize::MAX, end, Some(&cache)).collect(),
                start,
                end,
                false,
            );
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
        assert_eq!(l0.locate(b"b"), Some(0));
        assert_eq!(l0.locate(b"c"), Some(0));
        assert_eq!(l0.locate(b"d"), Some(0));
        assert_eq!(l0.locate(b"h"), Some(1));
        assert_eq!(l0.locate(b"k"), Some(1));
        // Keys before, between, and after the run resolve to no table.
        assert_eq!(l0.locate(b"a"), None);
        assert_eq!(l0.locate(b"f"), None);
        assert_eq!(l0.locate(b"z"), None);
        let snap = l0.version();
        assert_eq!(get(&snap, b"h", u64::MAX).unwrap(), b"3");
        assert!(get(&snap, b"f", u64::MAX).is_none());
    }

    #[test]
    fn taking_a_version_never_copies() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        push(&mut l0, &pool, vec![entry("k", 1, "v")]);
        // Two reads with no mutation between them share one table set.
        assert!(Arc::ptr_eq(&l0.version(), &l0.version()));
        // With no reader holding the version, a mutation edits it in
        // place; with one, the mutation copies and the reader's stays.
        let published = Arc::as_ptr(&l0.version());
        push(&mut l0, &pool, vec![entry("k", 2, "w")]);
        assert_eq!(Arc::as_ptr(&l0.version()), published);
        let held = l0.version();
        push(&mut l0, &pool, vec![entry("k", 3, "x")]);
        assert!(!Arc::ptr_eq(&held, &l0.version()));
        assert_eq!(held.unsorted_count(), 2);
        assert_eq!(l0.unsorted_count(), 3);
        // The copy shares every table and fence key with the original.
        for (old, new) in held.unsorted().iter().zip(l0.unsorted()) {
            assert!(Arc::ptr_eq(&old.table, &new.table));
            assert!(Arc::ptr_eq(&old.first, &new.first));
            assert!(Arc::ptr_eq(&old.last, &new.last));
        }
    }

    #[test]
    fn a_held_version_answers_from_its_own_tables_across_every_mutation() {
        let pool = pool();
        let run = |v: &str| vec![table(&pool, vec![entry("s", 9, v)])];
        type Mutation<'a> = Box<dyn Fn(&mut PmLevel0) + 'a>;
        // (mutation, what the live level answers for "u" and "s" after it)
        let cases: [(&str, Mutation, Option<&str>, Option<&str>); 6] = [
            (
                "push_unsorted",
                Box::new(|l0| push_filtered(l0, &pool, vec![entry("u", 9, "u-new")])),
                Some("u-new"),
                Some("s-old"),
            ),
            (
                "set_sorted_run",
                Box::new(|l0| l0.set_sorted_run(run("s-new"))),
                Some("u-old"),
                Some("s-new"),
            ),
            (
                // The sorted run is the oldest table: it goes first.
                "detach_oldest",
                Box::new(|l0| drop(l0.detach_oldest(1))),
                Some("u-old"),
                None,
            ),
            (
                "clear",
                Box::new(|l0| drop(replace_and_free(l0, Vec::new(), &pool))),
                None,
                None,
            ),
            (
                "replace_with_sorted",
                Box::new(|l0| drop(replace_and_free(l0, run("s-new"), &pool))),
                None,
                Some("s-new"),
            ),
            (
                "replace_with_sorted_deferred",
                Box::new(|l0| drop(l0.replace_with_sorted_deferred(run("s-new")))),
                None,
                Some("s-new"),
            ),
        ];
        for (name, mutate, live_u, live_s) in cases {
            let mut l0 = PmLevel0::new();
            push_filtered(&mut l0, &pool, vec![entry("u", 1, "u-old")]);
            l0.set_sorted_run(run("s-old"));
            let held = l0.version();
            mutate(&mut l0);
            // The held version still reads the pre-mutation tables —
            // even those whose pool regions the mutation freed.
            assert_eq!(get(&held, b"u", u64::MAX).unwrap(), b"u-old", "{name}");
            assert_eq!(get(&held, b"s", u64::MAX).unwrap(), b"s-old", "{name}");
            let live = |key| get(&l0, key, u64::MAX).map(|v| String::from_utf8(v).unwrap());
            assert_eq!(live(b"u").as_deref(), live_u, "{name}");
            assert_eq!(live(b"s").as_deref(), live_s, "{name}");
        }
    }

    #[test]
    fn bloom_filters_skip_absent_key_probes() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        // Two wide unsorted tables that both straddle the probe key.
        push_filtered(&mut l0, &pool, vec![entry("a", 1, "1"), entry("z", 2, "2")]);
        push_filtered(&mut l0, &pool, vec![entry("b", 3, "3"), entry("y", 4, "4")]);
        let snap = l0.version();
        let (mut tl, cache) = (Timeline::new(), PmGroupCache::disabled());
        let (miss, stats, stages) = probe(&snap, b"mmm", &mut tl, &cache);
        assert!(miss.is_none());
        // One sketch lookup rules on both tables.
        let (_, lookups, ruled_out) = stages.of(SpanKind::FilterConsult);
        assert_eq!((lookups, stats.sketch_probes), (1, 1));
        assert_eq!(ruled_out, stats.filter_useful);
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
        let (hit, stats, _) = probe(&snap, b"b", &mut tl, &cache);
        assert_eq!(hit.unwrap().value, b"3");
        assert!(stats.tables_probed >= 1);
    }

    #[test]
    fn group_cache_serves_repeat_reads() {
        let pool = pool();
        let cache = PmGroupCache::new(1 << 20);
        let mut l0 = PmLevel0::new();
        let entries = (0..64).map(|i| entry(&format!("k{i:04}"), i + 1, "v"));
        push_filtered(&mut l0, &pool, entries.collect());
        let snap = l0.version();
        let mut cold_tl = Timeline::new();
        let (cold, _, cold_stages) = probe(&snap, b"k0007", &mut cold_tl, &cache);
        assert_eq!(cold.unwrap().value, b"v");
        assert_eq!(cache.hits.get(), 0);
        let mut warm_tl = Timeline::new();
        let (warm, _, warm_stages) = probe(&snap, b"k0007", &mut warm_tl, &cache);
        assert_eq!(warm.unwrap().value, b"v");
        assert_eq!(cache.hits.get(), 1);
        // Every nanosecond of both is a stage's: the cold probe's a
        // decode miss, the warm one's a decode hit.
        for (tl, stages, kind) in [
            (&cold_tl, cold_stages, SpanKind::PmDecodeMiss),
            (&warm_tl, warm_stages, SpanKind::PmDecodeHit),
        ] {
            let filter = stages.of(SpanKind::FilterConsult).0;
            assert_eq!(stages.of(kind).0 + filter, tl.elapsed().as_nanos());
            assert_eq!(stages.nanos(), tl.elapsed().as_nanos());
        }
        assert!(
            warm_tl.elapsed() < cold_tl.elapsed(),
            "cached group read must be cheaper than a PM decode"
        );
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// An unsorted table of `(key, tombstone)` entries, each a new
        /// version; with a filter (so the sketch can take it) or without.
        Push(Vec<(u8, bool)>, bool),
        Detach(usize),
        SetRun(BTreeSet<u8>),
        Replace(BTreeSet<u8>),
        /// Keep the live version and what it answers now.
        Hold,
    }

    const KEYS: u8 = 24;

    fn key(k: u8) -> Vec<u8> {
        format!("k{k:02}").into_bytes()
    }

    /// One entry in five a tombstone; with `unfiltered`, one table in
    /// ten has no filter.
    fn push_op(unfiltered: bool) -> impl Strategy<Value = Op> {
        let entries = vec((0..KEYS, 0u8..5), 1..12);
        (entries, 0u8..10).prop_map(move |(entries, one_in_ten)| {
            let entries = entries.into_iter().map(|(k, t)| (k, t == 0)).collect();
            Op::Push(entries, !unfiltered || one_in_ten != 0)
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            12 => push_op(true),
            1 => (1usize..4).prop_map(Op::Detach),
            1 => btree_set(0..KEYS, 1..8).prop_map(Op::SetRun),
            1 => btree_set(0..KEYS, 0..8).prop_map(Op::Replace),
            2 => Just(Op::Hold),
        ]
    }

    /// A table of `entries`, each with the next sequence.
    fn build(
        pool: &PmPool,
        seq: &mut u64,
        entries: &[(u8, bool)],
        filtered: bool,
    ) -> (PmTableHandle, TableKeys) {
        let entries = entries.iter().map(|&(k, tombstone)| {
            *seq += 1;
            match tombstone {
                true => OwnedEntry::tombstone(key(k), *seq),
                false => OwnedEntry::value(key(k), *seq, seq.to_le_bytes().to_vec()),
            }
        });
        let opts = PmTableOptions {
            filter_bits_per_key: if filtered { 10 } else { 0 },
            ..Default::default()
        };
        table_opts(pool, entries.collect(), opts)
    }

    /// A sorted run of `keys` in up to two tables.
    fn run_of(pool: &PmPool, seq: &mut u64, keys: &BTreeSet<u8>) -> Vec<PmTableHandle> {
        let keys: Vec<(u8, bool)> = keys.iter().map(|&k| (k, false)).collect();
        let (low, high) = keys.split_at(keys.len() / 2);
        let halves = [low, high].into_iter().filter(|half| !half.is_empty());
        halves.map(|half| build(pool, seq, half, true).0).collect()
    }

    /// Newest first over every table, consulting no filter or sketch.
    fn reference(v: &L0Version, key: &[u8], snapshot: u64) -> Option<Lookup> {
        let mut tables = v.unsorted().iter().rev().chain(v.sorted_run());
        tables.find_map(|h| h.table.get(key, snapshot, &mut Timeline::new()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Gets through the key sketch — past its 64 tables, across
        /// tables pushed without a filter, and after every mutation —
        /// equal a walk of every table; a held version keeps answering
        /// what it answered when it was taken.
        #[test]
        fn prop_sketched_gets_equal_a_walk_of_every_table(
            prefill in vec(push_op(false), 0..80),
            ops in vec(op(), 1..40),
            probes in vec((0..KEYS + 2, 0u64..6000), 8),
        ) {
            let pool = PmPool::new(64 << 20, CostModel::default());
            // Every key (two never written) at the latest snapshot, and
            // more anywhere in the sequences used.
            let latest = (0..KEYS + 2).map(|k| (k, 0));
            let probes: Vec<(Vec<u8>, u64)> = latest
                .chain(probes)
                .map(|(k, s)| (key(k), if s % 4 == 0 { u64::MAX } else { s % 1500 }))
                .collect();
            let answers = |v: &L0Version| -> Vec<Option<Lookup>> {
                probes.iter().map(|(k, s)| get_lookup(v, k, *s)).collect()
            };
            let (mut l0, mut seq, mut held) = (PmLevel0::new(), 0, Vec::new());
            for op in prefill.into_iter().chain(ops) {
                match op {
                    Op::Push(entries, filtered) => {
                        let (table, keys) = build(&pool, &mut seq, &entries, filtered);
                        l0.push_unsorted(table, keys);
                    }
                    Op::Detach(limit) => l0.detach_oldest(limit).0.into_iter().for_each(|r| pool.free(r)),
                    Op::SetRun(keys) => l0.set_sorted_run(run_of(&pool, &mut seq, &keys)),
                    Op::Replace(keys) => {
                        let (_, regions, _) = l0.replace_with_sorted_deferred(run_of(&pool, &mut seq, &keys));
                        regions.into_iter().for_each(|r| pool.free(r));
                    }
                    Op::Hold => held.push((l0.version(), answers(&l0))),
                }
                for (k, snapshot) in &probes {
                    prop_assert_eq!(get_lookup(&l0, k, *snapshot), reference(&l0, k, *snapshot));
                }
                for (version, then) in &held {
                    prop_assert_eq!(&answers(version), then);
                }
            }
        }
    }
}
