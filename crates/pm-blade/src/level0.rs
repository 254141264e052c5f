//! The level-0 of one partition.
//!
//! [`Level0`] is the one place the engine's three level-0 kinds are told
//! apart: PM tables, MatrixKV's matrix container ([`crate::matrix`]) and
//! RocksDB-style SSD tables. The rest of this module is the PM level-0,
//! [`PmLevel0`].
//!
//! A PM level-0 holds two sets of PM tables (§IV-B, Fig 3):
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
//! - the sorted run's **fence keys** (each table's first/last user key,
//!   read from the table) locate the single candidate table with one
//!   binary search (`run::Run::locate`).
//!
//! A table probe then finds its group by the table's DRAM **group
//! fences** ([`pmtable::GroupFences`], on every handle, unsorted or
//! sorted-run: each group's last key window, 8 bytes per group, filled
//! from the same build or open pass as the sketch), charged one DRAM
//! random read per 64-byte line, instead of binary-searching the
//! table's prefix layer in PM. A scan opens a table the same way.
//!
//! Scans also have their own: the version's **merged key column**
//! ([`pmtable::MergedColumn`]; 12 bytes per unsorted entry), every
//! unsorted table's key windows behind their common prefix, each with
//! the index of its table, in one sorted array. `push_unsorted` merges
//! a table's column in (from the same build or open pass as the
//! sketch), re-framing the windows already in when the table shortens
//! the common prefix; `detach_oldest` drops the detached tables'
//! entries and renumbers the rest; an internal compaction clears it and
//! keeps its buffers.
//! Like the sketch, none of this is charged. A scan searches the column
//! once per partition, whatever the unsorted-table count, and opens a
//! table only when the merge reaches the bound the column gave (see
//! [`crate::cursor::Reveal`]).
//!
//! The table set is published as an immutable [`L0Version`] behind an
//! `Arc` and copied on *write*: a point read takes a reference to the
//! current version (one refcount bump, whatever the table count) and
//! searches it with no lock held. A mutation that takes tables out —
//! a major compaction's detach, an internal compaction's swap — returns
//! their region ids, which name them in the pool and in the group
//! cache, for the engine to free and purge once the manifest edit that
//! drops them is durable.

use std::sync::Arc;

use encoding::bloom::BloomFilter;
use encoding::key::SequenceNumber;
use pm_device::{PmPool, PmRegion, RegionId};
use pmtable::{EntryRef, Lookup, MergedColumn, TableKeys};
use sim::Timeline;

use crate::cursor::{Cursor, Reveal};
use crate::engine::DbError;
use crate::groupcache::{PmGroupCache, TableGroupCache};
use crate::handle::{reopen_pm_table, PmRunWriter, PmTableHandle, SsTableHandle};
use crate::levels::SsRunWriter;
use crate::manifest::PartitionVersion;
use crate::matrix::MatrixL0;
use crate::options::Mode;
use crate::partition::{CompactionReport, Media};
use crate::run::{Run, RunCursor, RunTable};
use crate::stats::ReadSource;
use crate::telemetry::{CostDecision, SpanKind, StageTimes};

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

/// One get of the newest version: the key, the cache PM groups come
/// through, and the key's one filter hash pair. The pair is hashed from
/// this key when the probe is built — every get's walk reads it first at
/// its memtable step — and reused by every sketch and filter after; it
/// is private, so it can only ever be this key's.
pub struct Probe<'a> {
    pub(crate) user_key: &'a [u8],
    pub(crate) cache: &'a PmGroupCache,
    hashes: (u64, u64),
}

impl<'a> Probe<'a> {
    pub fn new(user_key: &'a [u8], cache: &'a PmGroupCache) -> Self {
        Probe {
            user_key,
            cache,
            hashes: BloomFilter::hashes(user_key),
        }
    }

    /// The key's [`BloomFilter::hashes`].
    pub(crate) fn hashes(&self) -> (u64, u64) {
        self.hashes
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

    /// Search one table through the group cache, from the group its
    /// DRAM fences name, charged one DRAM random read per line the
    /// fence search touched. Its time is a decode hit when every group
    /// it touched came out of the cache, a decode miss otherwise.
    fn table(&mut self, handle: &PmTableHandle, tl: &mut Timeline) -> Option<Lookup> {
        let key = self.probe.user_key;
        // A sketch false positive can name a table whose range misses
        // the key, whose fence window would then ignore the common
        // prefix.
        if !handle.overlaps_key(key) {
            return None;
        }
        self.stats.tables_probed += 1;
        let before = tl.elapsed().as_nanos();
        let access = TableGroupCache::new(self.probe.cache, handle.region());
        let table = &handle.table;
        let (group, lines) = handle.fences.group_of(key);
        tl.charge(table.cost_model().dram.random_read(64) * lines);
        let hit = table.get_from_group(key, SequenceNumber::MAX, group, tl, &access);
        let spent = tl.elapsed().as_nanos() - before;
        let (hits, misses) = (access.hits(), access.misses());
        let hit_nanos = if hits > 0 && misses == 0 { spent } else { 0 };
        // A share that saw no time and no group is left out (the hit
        // share has time only with a hit).
        let (miss_nanos, stages) = (spent - hit_nanos, &mut *self.stages);
        if hits > 0 {
            stages.add(SpanKind::PmDecodeHit, hit_nanos, hits, 0);
        }
        if miss_nanos > 0 || misses > 0 {
            stages.add(SpanKind::PmDecodeMiss, miss_nanos, misses, 0);
        }
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
/// handle lists are copied — one refcount bump per handle, never table
/// data or a key — and so are the key sketch's slots and the merged key
/// column, one `memcpy` each of [`L0Version::sketch_bytes`] and
/// [`L0Version::key_column_bytes`]. With no concurrent reader (one
/// thread driving an Inline engine) nothing is ever copied.
#[derive(Default, Clone)]
pub struct L0Version {
    /// Oldest → newest; reads walk newest → oldest.
    unsorted: Vec<PmTableHandle>,
    sorted: Run<PmTableHandle>,
    sketch: KeySketch,
    /// Every unsorted table's keys, merged.
    column: MergedColumn,
}

impl L0Version {
    /// The unsorted tables, oldest first.
    pub fn unsorted(&self) -> &[PmTableHandle] {
        &self.unsorted
    }

    /// The sorted run, oldest data in level-0.
    pub fn sorted_run(&self) -> &[PmTableHandle] {
        self.sorted.tables()
    }

    /// Every table: the unsorted ones, then the sorted run.
    pub fn tables(&self) -> impl Iterator<Item = &PmTableHandle> {
        self.unsorted.iter().chain(self.sorted.tables())
    }

    /// Total bytes held on PM by this partition (`s_i` in Table II).
    pub fn bytes(&self) -> usize {
        self.tables().map(|h| h.table.encoded_len()).sum()
    }

    /// Number of unsorted tables (`n_i`).
    pub fn unsorted_count(&self) -> usize {
        self.unsorted.len()
    }

    /// Number of sorted-run tables (`m_i`).
    pub fn sorted_count(&self) -> usize {
        self.sorted_run().len()
    }

    pub fn is_empty(&self) -> bool {
        self.unsorted.is_empty() && self.sorted_run().is_empty()
    }

    /// Total entries across level-0.
    pub fn entries(&self) -> usize {
        self.tables().map(|h| h.table.entry_count()).sum()
    }

    /// DRAM the key sketch takes.
    pub fn sketch_bytes(&self) -> usize {
        std::mem::size_of_val(self.sketch.slots.as_slice())
    }

    /// The unsorted tables' merged key column.
    pub fn key_column(&self) -> &MergedColumn {
        &self.column
    }

    /// DRAM the merged key column takes.
    pub fn key_column_bytes(&self) -> usize {
        self.column.bytes()
    }

    /// DRAM every level-0 index takes: the key sketch, the merged key
    /// column, and each table's group fences and decoded bloom filter.
    pub fn index_bytes(&self) -> usize {
        let per_table = self
            .tables()
            .map(|h| h.fences.bytes() + h.table.filter_bytes());
        self.sketch_bytes() + self.key_column_bytes() + per_table.sum::<usize>()
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
        search.filtered(self.sorted.locate(probe.user_key)?, tl)
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
        let (run, unsorted) = (self.sorted.tables(), &self.unsorted);
        let take_sorted = run.len().min(limit);
        let take_unsorted = unsorted.len().min(limit - take_sorted);
        (&run[..take_sorted], &unsorted[..take_unsorted])
    }

    /// Cursors over the `limit` oldest tables (`usize::MAX`: all of
    /// them) for `[.., end)`: one per unsorted table plus one
    /// concatenating cursor over the sorted run. A scan reads through
    /// `cache` and takes every table: a [`Reveal`] over the merged key
    /// column goes first, and the unsorted tables' cursors right behind
    /// it stay parked until it opens them. A compaction passes no cache
    /// and reads each table sequentially.
    pub fn cursors<'a>(
        &'a self,
        limit: usize,
        end: Option<&'a [u8]>,
        cache: Option<&'a PmGroupCache>,
    ) -> impl Iterator<Item = Cursor<'a>> {
        let (run, unsorted) = self.oldest(limit);
        debug_assert!(cache.is_none() || unsorted.len() == self.unsorted.len());
        let reveal = cache.map(|_| Cursor::Reveal(Reveal::new(unsorted, &self.column, end)));
        let unsorted = unsorted
            .iter()
            .map(move |h| Cursor::Pm(RunCursor::new(std::slice::from_ref(h), end, cache)));
        let run = Cursor::Pm(RunCursor::new(run, end, cache));
        reveal
            .into_iter()
            .chain(unsorted)
            .chain(std::iter::once(run))
    }
}

/// Level-0 state for one partition: the current [`L0Version`] (read
/// through `Deref`) and the mutations that publish its successor. Every
/// mutation runs under the partition write lock and goes through
/// `Arc::make_mut`, so a version a reader holds never changes.
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
    /// filter guards its probes. Its key column is merged into the
    /// version's, uncharged, as the sketch's hashes are.
    pub fn push_unsorted(&mut self, handle: PmTableHandle, keys: TableKeys) {
        let next = Arc::make_mut(&mut self.current);
        let sketch = &mut next.sketch;
        if sketch.covered == next.unsorted.len()
            && sketch.covered < SKETCH_TABLES
            && !keys.hashes.is_empty()
        {
            sketch.cover(&keys.hashes);
        }
        let prefix = &handle.first()[..handle.fences.prefix_len()];
        next.column.push(next.unsorted.len(), keys.windows, prefix);
        next.unsorted.push(handle);
    }

    /// Install a sorted run directly (tests and recovery); nothing is
    /// retired.
    pub fn set_sorted_run(&mut self, run: Vec<PmTableHandle>) {
        Arc::make_mut(&mut self.current).sorted = Run::new(run);
    }

    /// Detach the tables [`L0Version::oldest`] names, once their
    /// merged output is installed below, and return their regions: to
    /// free, and to purge from the group cache.
    pub fn detach_oldest(&mut self, limit: usize) -> Vec<RegionId> {
        let (run, unsorted) = self.oldest(limit);
        let (take_sorted, take_unsorted) = (run.len(), unsorted.len());
        let next = Arc::make_mut(&mut self.current);
        next.sketch.drop_oldest(take_unsorted);
        next.column.drop_oldest(take_unsorted);
        let detached = next.sorted.splice(..take_sorted, Vec::new()).into_iter();
        let detached = detached.chain(next.unsorted.drain(..take_unsorted));
        detached.map(|h| h.region()).collect()
    }

    /// Replace the whole level-0 with a new sorted run WITHOUT freeing
    /// the old tables: returns their regions so the caller can retire them
    /// *after* the manifest edit recording the new version is durable.
    /// Freeing before the edit commits would let a crash destroy the
    /// only copy of the data. The merged key column keeps its buffers
    /// for the flushes that follow.
    pub fn replace_with_sorted_deferred(&mut self, run: Vec<PmTableHandle>) -> Vec<RegionId> {
        let next = Arc::make_mut(&mut self.current);
        next.sketch = KeySketch::default();
        next.column.clear();
        let old = std::mem::replace(&mut next.sorted, Run::new(run));
        let retired = next.unsorted.drain(..).chain(old.tables().iter().cloned());
        retired.map(|h| h.region()).collect()
    }
}

impl std::fmt::Debug for PmLevel0 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmLevel0")
            .field("unsorted", &self.unsorted.len())
            .field("sorted", &self.sorted_count())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A partition's level-0, in the kind its engine mode keeps: PM tables
/// (PM-Blade, PMBlade-PM), RocksDB-style SSD tables, or MatrixKV's
/// matrix container. This is the one place the three kinds are told
/// apart; what exists only for PM is reached through [`Level0::pm`].
pub enum Level0 {
    Pm(PmLevel0),
    Ssd(Vec<SsTableHandle>),
    Matrix(MatrixL0),
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

/// The PM region a manifest names, or `Corrupt` when the pool lost it.
fn logged_region(pool: &PmPool, id: RegionId) -> Result<PmRegion, DbError> {
    pool.get(id).ok_or_else(|| {
        DbError::Corrupt(format!(
            "manifest names PM region {id} but the pool does not hold it"
        ))
    })
}

impl Level0 {
    /// An empty level-0 of the kind `mode` keeps.
    pub(crate) fn new(mode: Mode) -> Self {
        match mode {
            Mode::PmBlade | Mode::PmBladePm => Level0::Pm(PmLevel0::new()),
            Mode::SsdLevel0 => Level0::Ssd(Vec::new()),
            Mode::MatrixKv => Level0::Matrix(MatrixL0::default()),
        }
    }

    /// The PM tables, when this level-0 keeps them: the versioned probe,
    /// the sketch and column gauges, the codec terms and internal
    /// compaction exist only for them.
    pub fn pm(&self) -> Option<&PmLevel0> {
        match self {
            Level0::Pm(l0) => Some(l0),
            _ => None,
        }
    }

    /// [`Level0::pm`], to mutate.
    pub(crate) fn pm_mut(&mut self) -> Option<&mut PmLevel0> {
        match self {
            Level0::Pm(l0) => Some(l0),
            _ => None,
        }
    }

    /// Records held, every version counted. An SSD table reopened by
    /// recovery counts as 0: its file does not say.
    pub fn entries(&self) -> usize {
        match self {
            Level0::Pm(l0) => l0.entries(),
            Level0::Matrix(m) => m.entries(),
            Level0::Ssd(tables) => tables.iter().map(|h| h.table.entries_hint()).sum(),
        }
    }

    /// PM bytes held (`s_i`); 0 for an SSD level-0.
    pub fn bytes(&self) -> usize {
        match self {
            Level0::Pm(l0) => l0.bytes(),
            Level0::Matrix(m) => m.bytes(),
            Level0::Ssd(_) => 0,
        }
    }

    /// Mutually overlapping tables, each of which a read may consult
    /// (`n_i`): PM unsorted tables, matrix rows, or SSD level-0 tables.
    pub fn unsorted_count(&self) -> usize {
        match self {
            Level0::Pm(l0) => l0.unsorted_count(),
            Level0::Matrix(m) => m.rows(),
            Level0::Ssd(tables) => tables.len(),
        }
    }

    /// The tables a major compaction can move in chunks, the unit the
    /// §V splitter counts: every PM table (sorted run + unsorted). 0 for
    /// the other kinds, which drain in one install.
    pub fn chunkable_tables(&self) -> usize {
        match self {
            Level0::Pm(l0) => l0.sorted_count() + l0.unsorted_count(),
            _ => 0,
        }
    }

    /// One cursor per sorted source of the `limit` oldest tables (see
    /// [`L0Version::oldest`]; the other kinds ignore the limit and yield
    /// every table) over `[start, end)`. A scan passes the group `cache`
    /// and is held to its range; a compaction passes none and reads
    /// each table whole, front to back.
    pub(crate) fn cursors<'a>(
        &'a self,
        limit: usize,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        cache: Option<&'a PmGroupCache>,
    ) -> impl Iterator<Item = Cursor<'a>> {
        match self {
            Level0::Pm(l0) => L0Cursors::Pm(l0.cursors(limit, end, cache)),
            Level0::Matrix(m) => L0Cursors::Matrix(m.cursors(start, end, cache.is_none())),
            // SSD level-0 tables overlap: each is a run of its own.
            Level0::Ssd(tables) => L0Cursors::Ssd(
                tables
                    .iter()
                    .map(move |h| Cursor::Ss(RunCursor::new(std::slice::from_ref(h), end, cache))),
            ),
        }
    }

    /// The user-key range the `limit` oldest tables span, from their
    /// fence keys, and what they would take in SSTables, from what each
    /// table holds: the key, trailer and value bytes of PM tables and
    /// matrix rows (before duplicates merge away), the size of SSD
    /// level-0 tables. `None` when there is no table.
    pub(crate) fn input(&self, limit: usize) -> Option<(Vec<u8>, Vec<u8>, u64)> {
        let tables: Vec<(&[u8], &[u8], u64)> = match self {
            Level0::Pm(l0) => {
                let (run, unsorted) = l0.oldest(limit);
                let tables = run.iter().chain(unsorted);
                tables
                    .map(|h| (h.first(), h.last(), h.raw_bytes as u64))
                    .collect()
            }
            Level0::Matrix(m) => m.inputs().collect(),
            Level0::Ssd(tables) => tables
                .iter()
                .map(|h| (&h.first[..], &h.last[..], h.table.size()))
                .collect(),
        };
        let first = tables.iter().map(|t| t.0).min()?;
        let last = tables.iter().map(|t| t.1).max()?;
        let bytes = tables.iter().map(|t| t.2).sum();
        Some((first.to_vec(), last.to_vec(), bytes))
    }

    /// Flush partition `pid`'s frozen memtable `entries` into one new
    /// table (neither writer is given a size to cut at) or matrix row.
    /// `report` comes in holding the memtable's record count and raw
    /// bytes, which a PM flush sizes its builder by. A PM flush puts the
    /// codec it chose and what that wrote in `report`, an SSD flush the
    /// bytes it wrote to level 0; the matrix has no codec to choose.
    pub(crate) fn flush<'e>(
        &mut self,
        pid: usize,
        mut entries: impl Iterator<Item = EntryRef<'e>>,
        media: &Media<'_>,
        report: &mut CompactionReport,
        tl: &mut Timeline,
    ) -> Result<(), DbError> {
        let Media { opts, pool, .. } = *media;
        match self {
            Level0::Pm(l0) => {
                let written = &pool.stats().bytes_written;
                let written_before = written.get();
                let mut writer = PmRunWriter::unsorted(media);
                writer.reserve(report.records_in, report.raw_bytes);
                entries.try_for_each(|e| writer.add(e, tl))?;
                for (table, keys) in writer.finish(tl)? {
                    report.decision = Some(CostDecision::CodecChoice {
                        partition: pid,
                        codec: pmtable::CODEC_NAMES[table.table.dominant_codec() as usize],
                        entries: table.table.entry_count(),
                        pm_bytes: (written.get() - written_before) as usize,
                    });
                    l0.push_unsorted(table, keys);
                }
            }
            Level0::Matrix(m) => m.flush_row(entries, opts, pool, tl)?,
            Level0::Ssd(tables) => {
                let mut writer = SsRunWriter::new(media, format!("p{pid:03}-L0"), usize::MAX);
                entries.try_for_each(|e| writer.add(e, tl))?;
                let flushed = writer.finish(tl)?;
                report.ssd_written = Some((0, flushed.iter().map(|h| h.table.size()).sum()));
                tables.extend(flushed);
            }
        }
        Ok(())
    }

    /// Detach the tables [`Level0::cursors`] gave a major compaction
    /// limited to `limit`, once their merged output is installed below,
    /// into `report`: the regions of PM tables and matrix rows to free
    /// and purge, SSD tables to delete by name.
    pub(crate) fn detach_oldest(&mut self, limit: usize, report: &mut CompactionReport) {
        match self {
            Level0::Pm(l0) => report.retired = l0.detach_oldest(limit),
            Level0::Matrix(m) => report.retired = m.take_regions(),
            Level0::Ssd(tables) => {
                let names = tables.drain(..).map(|h| h.table.name().to_string());
                report.deleted_tables.extend(names);
            }
        }
    }

    /// Name this level-0's tables in `version`, the manifest's record
    /// of its partition; [`Level0::recover`] reads them back.
    pub(crate) fn record(&self, version: &mut PartitionVersion) {
        match self {
            Level0::Pm(l0) => {
                version.unsorted = l0.unsorted().iter().map(|h| h.region()).collect();
                version.sorted = l0.sorted_run().iter().map(|h| h.region()).collect();
                version.codecs = l0
                    .tables()
                    .map(|h| h.table.dominant_codec() as u64)
                    .collect();
            }
            Level0::Matrix(m) => version.matrix = m.region_ids(),
            Level0::Ssd(tables) => version.l0_tables = tables.iter().map(|h| h.meta()).collect(),
        }
    }

    /// Rebuild this empty level-0 of partition `pid` from the tables
    /// [`Level0::record`] named in `version`. Returns how many tables it
    /// reopened and the largest sequence they hold (0 for matrix rows,
    /// which do not record it). A version holding another kind's tables
    /// is `Corrupt`: the mode changed between runs.
    pub(crate) fn recover(
        &mut self,
        pid: usize,
        version: &PartitionVersion,
        media: &Media<'_>,
        tl: &mut Timeline,
    ) -> Result<(u64, u64), DbError> {
        let own = match self {
            Level0::Pm(_) => "PM",
            Level0::Matrix(_) => "matrix",
            Level0::Ssd(_) => "SSD",
        };
        let held = [
            ("PM", version.unsorted.len() + version.sorted.len()),
            ("matrix", version.matrix.len()),
            ("SSD", version.l0_tables.len()),
        ];
        if let Some((kind, _)) = held.iter().find(|&&(kind, n)| n > 0 && kind != own) {
            return Err(DbError::Corrupt(format!(
                "manifest version for partition {pid} holds {kind} level-0 tables \
                 the configured mode has no container for"
            )));
        }
        let mut max_seq = 0;
        match self {
            Level0::Pm(l0) => {
                // Codec ids were logged in unsorted-then-sorted order; a
                // pre-encoding-v2 manifest logged none (empty =
                // unchecked). When present, each reopened table's
                // self-described dominant codec must match what the
                // manifest recorded — a mismatch means the region was
                // swapped or corrupted.
                let ids = version.unsorted.iter().chain(&version.sorted);
                let mut run = Vec::with_capacity(version.sorted.len());
                for (idx, &id) in ids.enumerate() {
                    let region = logged_region(media.pool, id)?;
                    let (h, keys, seq) = reopen_pm_table(region).map_err(DbError::Corrupt)?;
                    let codec = h.table.dominant_codec();
                    if let Some(logged) = version.codecs.get(idx).filter(|&&c| c != codec as u64) {
                        return Err(DbError::Corrupt(format!(
                            "partition {pid}: manifest logged codec {logged} for PM \
                             region {id} but the reopened table decodes as codec {codec}"
                        )));
                    }
                    max_seq = max_seq.max(seq);
                    if idx < version.unsorted.len() {
                        l0.push_unsorted(h, keys);
                    } else {
                        run.push(h);
                    }
                }
                l0.set_sorted_run(run);
            }
            Level0::Matrix(m) => {
                for &id in &version.matrix {
                    m.push_row(logged_region(media.pool, id)?)?;
                }
            }
            Level0::Ssd(tables) => {
                for meta in &version.l0_tables {
                    let h = SsTableHandle::reopen(meta, media, tl)?;
                    max_seq = max_seq.max(h.max_seq);
                    tables.push(h);
                }
            }
        }
        let reopened = held.iter().map(|&(_, n)| n as u64).sum();
        Ok((reopened, max_seq))
    }

    /// A get's level-0 step under the partition lock: the newest
    /// version of the probe's key, and where it came from (an SSD
    /// level-0 table reports level 0). A PM level-0 is searched through
    /// its current version; the engine's get takes [`Level0::pm`]'s
    /// version instead and searches it with the lock dropped.
    pub(crate) fn get(
        &self,
        probe: &Probe<'_>,
        tl: &mut Timeline,
        stats: &mut ProbeStats,
        stages: &mut StageTimes,
    ) -> Result<Option<(Lookup, ReadSource, Option<usize>)>, DbError> {
        let pm = match self {
            Level0::Pm(l0) => l0.get(probe, tl, stats, stages),
            Level0::Matrix(m) => {
                let rows = |tl: &mut Timeline| m.get(probe.user_key, tl);
                stages.time(SpanKind::PmDecodeMiss, tl, rows)
            }
            Level0::Ssd(tables) => {
                // The tables overlap: newest first. An unreadable one
                // fails the read — an older version may hide behind it.
                let key = probe.user_key;
                for handle in tables.iter().rev().filter(|h| h.overlaps_key(key)) {
                    if let Some(hit) = handle.get(probe, tl, stages)? {
                        return Ok(Some((hit, ReadSource::Ssd, Some(0))));
                    }
                }
                None
            }
        };
        Ok(pm.map(|hit| (hit, ReadSource::Pm, None)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cursor::tests::drain;
    use crate::handle::{merge_dedup, ResidentPmTable};
    use pm_device::PmPool;
    use pmtable::{NoGroupCache, OwnedEntry, PmTable, PmTableBuilder, PmTableOptions};
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
    /// `engine/maintain.rs`): swap the run in, then free the regions it
    /// returns, those of the tables it replaced.
    fn replace_and_free(
        l0: &mut PmLevel0,
        run: Vec<PmTableHandle>,
        pool: &PmPool,
    ) -> Vec<RegionId> {
        let retired = l0.replace_with_sorted_deferred(run);
        free(&retired, pool);
        retired
    }

    /// Free the `retired` regions.
    fn free(retired: &[RegionId], pool: &PmPool) {
        retired.iter().for_each(|&id| pool.free(id).unwrap());
    }

    /// A table with a bloom filter, and the key hashes the sketch takes.
    fn filtered_table(pool: &PmPool, entries: Vec<OwnedEntry>) -> (PmTableHandle, TableKeys) {
        let opts = PmTableOptions {
            filter_bits_per_key: 10,
            ..Default::default()
        };
        table_opts(pool, entries, opts)
    }

    /// One table of `entries`, built with `pm_table`.
    pub(crate) fn table_opts(
        pool: &PmPool,
        entries: Vec<OwnedEntry>,
        pm_table: PmTableOptions,
    ) -> (PmTableHandle, TableKeys) {
        let mut sorted = entries;
        sorted.sort_by(|a, b| a.internal_cmp(b));
        let mut builder = PmTableBuilder::new(pm_table);
        sorted.iter().for_each(|e| builder.add(e));
        let mut tl = Timeline::new();
        let (bytes, (stats, mut keys)) = builder.finish(&CostModel::default(), &mut tl);
        let table = PmTable::open(pool.publish(bytes, &mut tl).unwrap()).unwrap();
        (
            ResidentPmTable::new(table, &mut keys, stats.raw_bytes),
            keys,
        )
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
        let hit = v.get(&Probe::new(key, cache), tl, &mut stats, &mut stages);
        (hit, stats, stages)
    }

    /// Uncached point lookup.
    fn get_lookup(v: &L0Version, key: &[u8]) -> Option<Lookup> {
        let (mut stats, mut stages) = Default::default();
        let cache = PmGroupCache::disabled();
        let probe = Probe::new(key, &cache);
        v.get(&probe, &mut Timeline::new(), &mut stats, &mut stages)
    }

    /// [`get_lookup`], returning the value.
    fn get(v: &L0Version, key: &[u8]) -> Option<Vec<u8>> {
        get_lookup(v, key).map(|hit| hit.value)
    }

    #[test]
    fn empty_level0() {
        let l0 = PmLevel0::new();
        assert!(l0.is_empty());
        assert_eq!(l0.bytes(), 0);
        assert!(get(&l0, b"k").is_none());
    }

    #[test]
    fn newest_unsorted_table_shadows_older() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        push(&mut l0, &pool, vec![entry("k", 1, "old")]);
        push(&mut l0, &pool, vec![entry("k", 9, "new")]);
        assert_eq!(get(&l0, b"k").unwrap(), b"new");
        // The older table still holds its version; the newer shadows it.
        let older = &l0.unsorted()[0].table;
        let hit = older.get(b"k", u64::MAX, &mut Timeline::new()).unwrap();
        assert_eq!(hit.value, b"old");
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
        assert_eq!(get(&l0, b"m").unwrap(), b"3");
        assert_eq!(get(&l0, b"b").unwrap(), b"fresh");
        assert!(get(&l0, b"q").is_none());
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
        let retired = replace_and_free(&mut l0, run, &pool);
        assert_eq!(retired.len(), 2, "both old tables are retired");
        assert_eq!(l0.unsorted_count(), 0);
        assert_eq!(l0.sorted_count(), 1);
        assert!(pool.used() < before);
        assert_eq!(get(&l0, b"a").unwrap(), b"y");
    }

    #[test]
    fn clear_releases_everything() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        push(&mut l0, &pool, vec![entry("a", 1, "x")]);
        l0.set_sorted_run(vec![table(&pool, vec![entry("b", 2, "y")])]);
        let retired = replace_and_free(&mut l0, Vec::new(), &pool);
        assert_eq!(retired.len(), 2);
        assert!(l0.is_empty());
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn cursors_merge_every_table_and_open_the_run_lazily() {
        let pool = pool();
        let cache = PmGroupCache::new(1 << 20);
        let mut l0 = PmLevel0::new();
        l0.set_sorted_run(vec![
            table(&pool, vec![entry("a", 1, "1"), entry("c", 2, "2")]),
            table(&pool, vec![entry("m", 3, "3"), entry("z", 4, "4")]),
        ]);
        push(
            &mut l0,
            &pool,
            vec![entry("b", 8, "b"), entry("c", 9, "new")],
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
        let snap = l0.version();
        let locate = |key: &[u8]| {
            let run = snap.sorted_run();
            let hit = snap.sorted.locate(key)?;
            run.iter().position(|t| Arc::ptr_eq(t, hit))
        };
        assert_eq!(locate(b"b"), Some(0));
        assert_eq!(locate(b"c"), Some(0));
        assert_eq!(locate(b"d"), Some(0));
        assert_eq!(locate(b"h"), Some(1));
        assert_eq!(locate(b"k"), Some(1));
        // Keys before, between, and after the run resolve to no table.
        assert_eq!(locate(b"a"), None);
        assert_eq!(locate(b"f"), None);
        assert_eq!(locate(b"z"), None);
        assert_eq!(get(&snap, b"h").unwrap(), b"3");
        assert!(get(&snap, b"f").is_none());
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
        // The copy shares every handle with the original.
        for (old, new) in held.unsorted().iter().zip(l0.unsorted()) {
            assert!(Arc::ptr_eq(old, new));
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
            assert_eq!(get(&held, b"u").unwrap(), b"u-old", "{name}");
            assert_eq!(get(&held, b"s").unwrap(), b"s-old", "{name}");
            let live = |key| get(&l0, key).map(|v| String::from_utf8(v).unwrap());
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

    #[test]
    fn a_sketch_false_positive_outside_the_tables_range_loads_no_group() {
        let pool = pool();
        let mut l0 = PmLevel0::new();
        let (table, mut keys) = filtered_table(&pool, vec![entry("m", 1, "1"), entry("p", 2, "2")]);
        // The sketch is told the table holds "z", as a fingerprint
        // collision would.
        keys.hashes.push(BloomFilter::hashes(b"z"));
        l0.push_unsorted(table, keys);
        let snap = l0.version();
        let before = pool.stats().bytes_read.get();
        let (mut tl, cache) = (Timeline::new(), PmGroupCache::disabled());
        let (miss, stats, _) = probe(&snap, b"z", &mut tl, &cache);
        assert_eq!(miss, None);
        assert_eq!((stats.filter_false_positives, stats.tables_probed), (1, 0));
        assert_eq!(pool.stats().bytes_read.get(), before, "no group was read");
        let (hit, stats, _) = probe(&snap, b"p", &mut tl, &cache);
        assert_eq!(hit.unwrap().value, b"2");
        assert_eq!(stats.tables_probed, 1);
    }

    #[test]
    fn a_sorted_run_get_whose_group_is_cached_reads_no_pm() {
        let pool = pool();
        let cache = PmGroupCache::new(1 << 20);
        let mut l0 = PmLevel0::new();
        let entries = (0..64).map(|i| entry(&format!("k{i:04}"), i + 1, "v"));
        l0.set_sorted_run(vec![table(&pool, entries.collect())]);
        let snap = l0.version();
        let (cold, _, _) = probe(&snap, b"k0040", &mut Timeline::new(), &cache);
        assert_eq!(cold.unwrap().value, b"v");
        let before = pool.stats().bytes_read.get();
        let (warm, stats, _) = probe(&snap, b"k0040", &mut Timeline::new(), &cache);
        assert_eq!(warm.unwrap().value, b"v");
        assert_eq!((stats.tables_probed, cache.hits.get()), (1, 1));
        assert_eq!(
            pool.stats().bytes_read.get(),
            before,
            "the fences found the cached group: no prefix-layer read"
        );
    }

    #[test]
    fn a_sorted_run_scan_whose_group_is_cached_reads_no_pm() {
        let pool = pool();
        let cache = PmGroupCache::new(1 << 20);
        let mut l0 = PmLevel0::new();
        let entries = (0..64).map(|i| entry(&format!("k{i:04}"), i + 1, "v"));
        l0.set_sorted_run(vec![table(&pool, entries.collect())]);
        let scan = || {
            let cursors = l0.cursors(usize::MAX, None, Some(&cache)).collect();
            crate::cursor::tests::drain(cursors, b"k0040", None, false)
        };
        let want: Vec<OwnedEntry> = (40..64)
            .map(|i| entry(&format!("k{i:04}"), i + 1, "v"))
            .collect();
        assert_eq!(scan(), want);
        let before = pool.stats().bytes_read.get();
        assert_eq!(scan(), want);
        assert_eq!(
            pool.stats().bytes_read.get(),
            before,
            "the fences found the cached group: no prefix-layer read"
        );
    }

    /// A user key from a small alphabet behind a meta prefix: long keys
    /// tie in their column windows, and short ones end inside them.
    fn column_key() -> impl Strategy<Value = Vec<u8>> {
        let rest = vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..14);
        (0u8..2, rest).prop_map(|(meta, rest)| [&b"t0:"[..], &[b'0' + meta], &rest].concat())
    }

    /// The first group holding an entry whose fence window — the 8
    /// bytes after `prefix` — is at or past `key`'s, by a walk of every
    /// group; the group count when there is none.
    fn first_group_at_or_past(groups: &[Vec<Vec<u8>>], prefix: usize, key: &[u8]) -> u32 {
        let window = |k: &[u8]| {
            let rest = k.get(prefix..).unwrap_or_default();
            let mut w = [0; 8];
            let n = rest.len().min(8);
            w[..n].copy_from_slice(&rest[..n]);
            w
        };
        let at_or_past = |g: &Vec<Vec<u8>>| g.iter().any(|k| window(k) >= window(key));
        groups.iter().position(at_or_past).unwrap_or(groups.len()) as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A get that finds its group by the table's fences returns
        /// exactly what one that searches the prefix layer returns, the
        /// same entries installed once as an unsorted table and once as
        /// a sorted run cut into one to three tables: for every key
        /// written, with versions that straddle group boundaries, and
        /// for keys absent from it, between two of its keys and outside
        /// its first and last key. The fences name the first group with
        /// an entry whose window is at or past the key's.
        #[test]
        fn prop_fence_located_gets_equal_prefix_searched_ones(
            written in vec((column_key(), 1usize..7), 1..40),
            absent in vec(column_key(), 0..20),
            delimited in proptest::bool::ANY,
            cuts in vec(0usize..40, 0..3),
        ) {
            let extractor = match delimited {
                true => pmtable::MetaExtractor::Delimiter(b':'),
                false => pmtable::MetaExtractor::None,
            };
            let opts = PmTableOptions { group_size: 4, extractor, ..Default::default() };
            let mut seq = 0;
            let mut entries = Vec::new();
            for (key, versions) in &written {
                for _ in 0..*versions {
                    seq += 1;
                    entries.push(OwnedEntry::value(key.clone(), seq, seq.to_le_bytes().to_vec()));
                }
            }
            entries.sort_by(|a, b| a.internal_cmp(b));
            let pool = pool();
            let (handle, keys) = table_opts(&pool, entries.clone(), opts);
            let whole = Arc::clone(&handle);
            let mut unsorted = PmLevel0::new();
            unsorted.push_unsorted(handle, keys);
            // The run, cut between two user keys at the drawn points.
            let key_starts: Vec<usize> = entries.iter().enumerate().skip(1)
                .filter(|(i, e)| e.user_key != entries[i - 1].user_key)
                .map(|(i, _)| i)
                .collect();
            let points: BTreeSet<usize> = cuts.iter()
                .filter(|_| !key_starts.is_empty())
                .map(|&c| key_starts[c % key_starts.len()])
                .collect();
            let starts: Vec<usize> = [0].into_iter().chain(points).chain([entries.len()]).collect();
            let run: Vec<PmTableHandle> = starts.windows(2)
                .map(|w| table_opts(&pool, entries[w[0]..w[1]].to_vec(), opts).0)
                .collect();
            let mut sorted = PmLevel0::new();
            sorted.set_sorted_run(run);
            let outside = [&b""[..], b"t0", b"t0:0", b"t0:1cccccccccccccccc", b"t1", b"\xff"];
            let probes: Vec<&[u8]> = written.iter().map(|(k, _)| k.as_slice())
                .chain(absent.iter().map(Vec::as_slice))
                .chain(outside)
                .collect();
            let cache = PmGroupCache::new(1 << 20);
            for key in &probes {
                let want = whole.table.get(key, u64::MAX, &mut Timeline::new());
                for l0 in [&unsorted, &sorted] {
                    let (got, _, _) = probe(l0, key, &mut Timeline::new(), &cache);
                    prop_assert_eq!(&got, &want, "{:?}", String::from_utf8_lossy(key));
                }
            }
            // Each table's fences against a walk of its groups.
            for h in unsorted.tables().chain(sorted.tables()) {
                let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
                let (mut cursor, tl) = (h.table.sequential_cursor::<NoGroupCache>(), &mut Timeline::new());
                cursor.seek(0, b"", tl).unwrap();
                while let Some(e) = cursor.current() {
                    groups.resize_with(groups.len().max(cursor.group() as usize + 1), Vec::new);
                    groups[cursor.group() as usize].push(e.user_key.to_vec());
                    cursor.advance(tl).unwrap();
                }
                let prefix = encoding::prefix::common_prefix_len(h.first(), h.last());
                for key in probes.iter().filter(|k| h.overlaps_key(k)) {
                    let (group, _) = h.fences.group_of(key);
                    prop_assert_eq!(group, first_group_at_or_past(&groups, prefix, key));
                }
            }
        }
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
    fn reference(v: &L0Version, key: &[u8]) -> Option<Lookup> {
        let mut tables = v.unsorted().iter().rev().chain(v.sorted_run());
        tables.find_map(|h| h.table.get(key, u64::MAX, &mut Timeline::new()))
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
        ) {
            let pool = PmPool::new(64 << 20, CostModel::default());
            // Every key, two of them never written.
            let probes: Vec<Vec<u8>> = (0..KEYS + 2).map(key).collect();
            let answers = |v: &L0Version| -> Vec<Option<Lookup>> {
                probes.iter().map(|k| get_lookup(v, k)).collect()
            };
            let (mut l0, mut seq, mut held) = (PmLevel0::new(), 0, Vec::new());
            for op in prefill.into_iter().chain(ops) {
                match op {
                    Op::Push(entries, filtered) => {
                        let (table, keys) = build(&pool, &mut seq, &entries, filtered);
                        l0.push_unsorted(table, keys);
                    }
                    Op::Detach(limit) => free(&l0.detach_oldest(limit), &pool),
                    Op::SetRun(keys) => l0.set_sorted_run(run_of(&pool, &mut seq, &keys)),
                    Op::Replace(keys) => {
                        replace_and_free(&mut l0, run_of(&pool, &mut seq, &keys), &pool);
                    }
                    Op::Hold => held.push((l0.version(), answers(&l0))),
                }
                for k in &probes {
                    prop_assert_eq!(get_lookup(&l0, k), reference(&l0, k));
                }
                for (version, then) in &held {
                    prop_assert_eq!(&answers(version), then);
                }
            }
        }
    }
    #[derive(Clone, Debug)]
    enum Upkeep {
        /// An unsorted table: one lead shared by its keys, and each
        /// key's rest and whether it is a tombstone.
        Push(usize, Vec<(Vec<u8>, bool)>),
        Detach(usize),
        /// An internal compaction into a run of these keys.
        Replace(BTreeSet<u8>),
        /// Keep the live version and what its scans return now.
        Hold,
    }

    /// Key leads of different lengths: pushing a table of a shorter one
    /// shortens the merged column's common prefix.
    const LEADS: [&[u8]; 4] = [b"t0:aaaaaaaaaaaa", b"t0:", b"t1", b""];

    fn upkeep_push() -> impl Strategy<Value = Upkeep> {
        let rest = vec(prop_oneof![Just(b'a'), Just(b'b'), Just(0u8)], 1..10);
        let entries = vec((rest, 0u8..5), 1..6);
        (0..LEADS.len(), entries).prop_map(|(lead, entries)| {
            Upkeep::Push(
                lead,
                entries.into_iter().map(|(r, t)| (r, t == 0)).collect(),
            )
        })
    }

    fn upkeep() -> impl Strategy<Value = Upkeep> {
        prop_oneof![
            8 => upkeep_push(),
            2 => (1usize..6).prop_map(Upkeep::Detach),
            1 => btree_set(0..KEYS, 1..6).prop_map(Upkeep::Replace),
            2 => Just(Upkeep::Hold),
        ]
    }

    /// `v`'s merged column built from scratch, behind the prefix it
    /// keeps: every unsorted table's every entry as (window, table), in
    /// order.
    fn rebuilt_column(v: &L0Version) -> Vec<(u64, usize)> {
        let prefix = v.key_column().prefix();
        let mut entries = Vec::new();
        for (table, h) in v.unsorted().iter().enumerate() {
            for e in h.table.scan_all(&mut Timeline::new()) {
                assert!(
                    e.user_key.starts_with(prefix),
                    "{:?} outside the prefix",
                    e.user_key
                );
                let mut window = [0; 8];
                let rest = &e.user_key[prefix.len()..];
                let n = rest.len().min(8);
                window[..n].copy_from_slice(&rest[..n]);
                entries.push((u64::from_be_bytes(window), table));
            }
        }
        entries.sort();
        entries
    }

    /// Scans of `v` from each of `starts` through the merged column,
    /// checked against eager cursors and a merge of every table's full
    /// contents.
    fn upkeep_scans(v: &L0Version, starts: &[Vec<u8>]) -> Vec<Vec<OwnedEntry>> {
        let (cache, cost) = (PmGroupCache::new(1 << 20), CostModel::default());
        let whole: Vec<Vec<OwnedEntry>> = v
            .tables()
            .map(|h| h.table.scan_all(&mut Timeline::new()))
            .collect();
        starts
            .iter()
            .map(|start| {
                let deferred = drain(
                    v.cursors(usize::MAX, None, Some(&cache)).collect(),
                    start,
                    None,
                    false,
                );
                let eager = drain(
                    v.cursors(usize::MAX, None, None).collect(),
                    start,
                    None,
                    false,
                );
                assert_eq!(deferred, eager);
                let from_start = whole
                    .iter()
                    .map(|t| t.iter().filter(|e| e.user_key >= *start).cloned().collect());
                assert_eq!(
                    eager,
                    merge_dedup(from_start.collect(), false, &cost, &mut Timeline::new())
                );
                deferred
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The merged key column equals one built from scratch after
        /// every push (past 64 unsorted tables, with common prefixes
        /// that differ, so a push re-frames it), detach and internal
        /// compaction, and in every version held across them; and
        /// every version's scans equal both an eager merge and a merge
        /// of every table's full contents.
        #[test]
        fn prop_the_merged_column_equals_a_rebuild_after_every_mutation(
            prefill in vec(upkeep_push(), 65..72),
            ops in vec(upkeep(), 1..30),
        ) {
            let pool = PmPool::new(64 << 20, CostModel::default());
            let (mut l0, mut seq, mut held) = (PmLevel0::new(), 0, Vec::new());
            let mut starts = vec![Vec::new(), b"t0:a".to_vec(), b"t1a".to_vec(), vec![0xff]];
            for op in prefill.into_iter().chain(ops) {
                match op {
                    Upkeep::Push(lead, entries) => {
                        let entries = entries.into_iter().map(|(rest, tombstone)| {
                            seq += 1;
                            let key = [LEADS[lead], &rest].concat();
                            match tombstone {
                                true => OwnedEntry::tombstone(key, seq),
                                false => OwnedEntry::value(key, seq, seq.to_le_bytes().to_vec()),
                            }
                        });
                        let entries: Vec<OwnedEntry> = entries.collect();
                        starts.push(entries[0].user_key.clone());
                        let (table, keys) = table_opts(&pool, entries, PmTableOptions::default());
                        l0.push_unsorted(table, keys);
                    }
                    Upkeep::Detach(limit) => {
                        free(&l0.detach_oldest(limit), &pool);
                    }
                    Upkeep::Replace(keys) => {
                        replace_and_free(&mut l0, run_of(&pool, &mut seq, &keys), &pool);
                        prop_assert!(l0.key_column().is_empty());
                    }
                    Upkeep::Hold => {
                        let starts = starts[starts.len() - 6..].to_vec();
                        let scans = upkeep_scans(&l0, &starts);
                        held.push((l0.version(), starts, scans));
                    }
                }
                let column: Vec<(u64, usize)> = l0.key_column().entries().collect();
                prop_assert_eq!(&column, &rebuilt_column(&l0));
                prop_assert_eq!(l0.key_column_bytes(), 12 * column.len());
                upkeep_scans(&l0, &starts[starts.len().saturating_sub(4)..]);
                for (version, starts, scans) in &held {
                    let column: Vec<(u64, usize)> = version.key_column().entries().collect();
                    prop_assert_eq!(&column, &rebuilt_column(version));
                    prop_assert_eq!(&upkeep_scans(version, starts), scans);
                }
            }
        }
    }
}
