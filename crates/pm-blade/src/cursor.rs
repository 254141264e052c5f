//! Scan cursors and the k-way merging iterator over them.
//!
//! A range scan is a merge over every sorted source of a partition: the
//! memtable, each unsorted PM table, the PM sorted run, matrix rows, SSD
//! level-0 tables and one run per SSD level. Each source is a lazy
//! [`Cursor`]; [`MergingIter`] keeps them in a binary heap ordered by
//! internal key (user key ascending, sequence descending) and yields the
//! newest version of each user key. Nothing is materialized: a source
//! decodes one PM group or reads one SSD block at a time, and only when
//! the merge steps it.
//!
//! A scan *defers* each unsorted PM table ([`PmRun`]): its seek is a
//! search of the table's DRAM key column, which yields a lower bound on
//! its first key at or past the scan's start, and the heap holds the
//! table under that bound until the bound reaches the top. Only then is
//! the table opened, from the group its DRAM fences name, so a scan's
//! PM work follows the rows it returns, not the unsorted-table count.
//!
//! Compactions are the same merge run to the end ([`merge_into`]) over
//! cursors that read their tables front to back, into a run writer.

use encoding::key::KeyKind;
use memtable::MemCursor;
use pm_device::PmRegion;
use pmtable::{ArrayCursor, ColumnSeek, EntryRef, GroupLoad, PmCursor};
use sim::{SimDuration, Timeline};
use sstable::SsCursor;

use crate::engine::DbError;
use crate::groupcache::{PmGroupCache, TableGroupCache};
use crate::handle::{PmTableHandle, SsTableHandle};
use crate::telemetry::{SpanKind, StageTimes};

fn corrupt(e: impl std::fmt::Display) -> DbError {
    DbError::Corrupt(e.to_string())
}

/// One sorted scan source. An enum, not a trait object: the merge
/// compares and steps cursors in its innermost loop.
pub enum Cursor<'a> {
    Mem(MemCursor<'a>),
    /// PM tables in key order (an unsorted table is a run of one).
    Pm(PmRun<'a>),
    /// One matrix-container row.
    Row(ArrayCursor<'a, PmRegion>),
    /// SSTables in key order (an SSD level-0 table is a run of one).
    Ss(SsRun<'a>),
}

impl<'a> Cursor<'a> {
    /// Seek to the first entry with user key >= `seek`, or step to the
    /// next entry when `None`. Returns the trace stage the virtual time
    /// the step charged belongs to.
    fn step(&mut self, seek: Option<&'a [u8]>, tl: &mut Timeline) -> Result<SpanKind, DbError> {
        match self {
            Cursor::Mem(c) => {
                match seek {
                    Some(start) => c.seek(start, tl),
                    None => c.advance(tl),
                }
                Ok(SpanKind::MemtableProbe)
            }
            Cursor::Row(c) => {
                match seek {
                    Some(start) => c.seek(start, tl),
                    None => c.advance(tl),
                }
                .map_err(corrupt)?;
                Ok(SpanKind::PmDecodeMiss)
            }
            Cursor::Pm(run) => run.step(seek, tl),
            Cursor::Ss(run) => run.step(seek, tl),
        }
    }

    fn current(&self) -> Option<EntryRef<'_>> {
        match self {
            Cursor::Mem(c) => c.current(),
            Cursor::Row(c) => c.current(),
            Cursor::Pm(run) => run.cur.as_ref()?.current(),
            Cursor::Ss(run) => run.cur.as_ref()?.current(),
        }
    }

    /// Where the cursor sits in the merge's order: its entry's user key
    /// (in two pieces to concatenate) and sequence, or a held table's
    /// bound under the newest sequence there can be. [`Head::set`] joins
    /// the pieces.
    fn head(&self) -> Option<(&[u8], &[u8], u64)> {
        match self {
            Cursor::Pm(PmRun { held: Some(h), .. }) => Some((h.head, h.seek.tail(), u64::MAX)),
            _ => self.current().map(|e| (e.user_key, &[][..], e.seq)),
        }
    }
}

/// A concatenating cursor over non-overlapping PM tables: opens only
/// the table holding the seek key and moves to the next one lazily.
/// Groups are fetched through the shared decode cache; without one (a
/// compaction's input) each table is read sequentially, see
/// [`pmtable::PmTable::sequential_cursor`].
///
/// A table is opened one way: from the group its DRAM
/// [`pmtable::GroupFences`] name for the seek key, charged one DRAM
/// random read per 64-byte line, or from group 0 when the key is at or
/// before the table's first key (a step onto the run's next table
/// seeks the empty key). It never searches the table's prefix layer.
///
/// A scan's run holds an unsorted table by the [`pmtable::KeyColumn`]
/// on its handle (sorted-run handles carry none) instead of opening it:
/// one search of the column in DRAM yields a lower bound on the table's
/// first key >= the seek key, which the merge keeps in its heap until
/// it reaches the top. Only then does the next step open the table.
/// The bound is the table's first key when that is >= the seek key;
/// else the column's window of the first key >= the seek key behind
/// the table's common prefix, trimmed of trailing zero bytes (a prefix
/// of that key), or the seek key itself when that window ties with the
/// seek key's. It is never below the seek key, nor above the table's
/// first key at or past it.
pub struct PmRun<'a> {
    tables: &'a [PmTableHandle],
    /// The table opened when `cur` runs out.
    next: usize,
    end: Option<&'a [u8]>,
    cache: Option<&'a PmGroupCache>,
    held: Option<Held<'a>>,
    cur: Option<PmCursor<'a, PmRegion, TableGroupCache<'a>>>,
}

/// A held table: its bound is `head ‖ seek.tail()`.
struct Held<'a> {
    start: &'a [u8],
    head: &'a [u8],
    seek: ColumnSeek,
}

impl<'a> PmRun<'a> {
    pub fn new(
        tables: &'a [PmTableHandle],
        end: Option<&'a [u8]>,
        cache: Option<&'a PmGroupCache>,
    ) -> Self {
        PmRun {
            tables,
            next: tables.len(),
            end,
            cache,
            held: None,
            cur: None,
        }
    }

    fn step(&mut self, seek: Option<&'a [u8]>, tl: &mut Timeline) -> Result<SpanKind, DbError> {
        let mut load = GroupLoad::None;
        match (seek, &mut self.cur) {
            (Some(start), _) => {
                self.next = self.tables.partition_point(|h| &*h.last < start);
                (self.cur, self.held) = (None, None);
            }
            (None, Some(c)) => load = c.advance(tl).map_err(corrupt)?,
            (None, None) => {}
        }
        if self.cur.as_ref().is_none_or(|c| c.current().is_none()) {
            // Tables that begin at or past `end` are never opened.
            let table = self.tables.get(self.next);
            self.cur = match table.filter(|h| self.end.is_none_or(|e| &*h.first < e)) {
                Some(h) => {
                    let column = h.column.as_deref().filter(|_| self.cache.is_some());
                    if let (Some(start), Some(column)) = (seek, column) {
                        // Hold the table: one DRAM read per 64-byte line
                        // the column search touched.
                        let seek = column.seek(&h.first, start);
                        tl.charge(h.table.cost_model().dram.random_read(64) * seek.lines);
                        let head = match seek.tail() {
                            _ if start <= &*h.first => &h.first,
                            [] => start,
                            _ => &h.first[..column.prefix_len()],
                        };
                        self.held = Some(Held { start, head, seek });
                        return Ok(SpanKind::FilterConsult);
                    }
                    self.next += 1;
                    let start = match self.held.take() {
                        Some(held) => held.start,
                        None => seek.unwrap_or_default(),
                    };
                    let group = if start <= &*h.first {
                        0
                    } else {
                        let (group, lines) = h.fences.group_of(start);
                        tl.charge(h.table.cost_model().dram.random_read(64) * lines);
                        group
                    };
                    let mut c = match self.cache {
                        Some(cache) => h.table.cursor(TableGroupCache::new(cache, h.cache_id)),
                        None => h.table.sequential_cursor(),
                    };
                    load = load.max(c.seek(group, start, tl).map_err(corrupt)?);
                    Some(c)
                }
                None => {
                    self.next = self.tables.len();
                    None
                }
            };
        }
        Ok(if load == GroupLoad::Decoded {
            SpanKind::PmDecodeMiss
        } else {
            SpanKind::PmDecodeHit
        })
    }
}

/// A concatenating cursor over non-overlapping SSTables, reading one
/// block at a time; see [`PmRun`].
pub struct SsRun<'a> {
    tables: &'a [SsTableHandle],
    next: usize,
    end: Option<&'a [u8]>,
    cur: Option<SsCursor<'a>>,
}

impl<'a> SsRun<'a> {
    pub fn new(tables: &'a [SsTableHandle], end: Option<&'a [u8]>) -> Self {
        SsRun {
            tables,
            next: tables.len(),
            end,
            cur: None,
        }
    }

    fn step(&mut self, seek: Option<&[u8]>, tl: &mut Timeline) -> Result<SpanKind, DbError> {
        match (seek, &mut self.cur) {
            (Some(start), _) => {
                self.next = self.tables.partition_point(|h| h.last.as_slice() < start);
                self.cur = None;
            }
            (None, Some(c)) => c.advance(tl)?,
            (None, None) => {}
        }
        if self.cur.as_ref().is_none_or(|c| c.current().is_none()) {
            let table = self.tables.get(self.next);
            self.cur = match table.filter(|h| self.end.is_none_or(|e| h.first.as_slice() < e)) {
                Some(h) => {
                    self.next += 1;
                    let mut c = h.table.cursor();
                    c.seek(seek.unwrap_or_default(), tl)?;
                    Some(c)
                }
                None => {
                    self.next = self.tables.len();
                    None
                }
            };
        }
        Ok(SpanKind::SsdRead)
    }
}

/// Where one scan's virtual time went, and what its merge did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// The cursor steps that charged time, by the stage each reported.
    /// Key-column searches are `filter_consult`.
    pub stages: StageTimes,
    /// Records pulled off the merge heap, each charged
    /// `cpu.merge_per_entry`.
    pub records: u64,
    /// Unsorted PM tables the merge held under a key-column bound, and
    /// how many of those it then opened.
    pub tables_held: u64,
    pub tables_opened: u64,
}

/// Key bytes a [`Head`] holds in place; a longer key spills.
const INLINE_KEY: usize = 24;

/// A source's place in the merge's order, copied out of its cursor
/// each time the merge steps it: the key of its entry, or a held table's
/// bound already joined, and the sequence. The heap compares heads, so
/// no compare goes back through the cursor.
#[derive(Default)]
struct Head {
    len: usize,
    inline: [u8; INLINE_KEY],
    /// The key when it is longer than `INLINE_KEY`; reused step to step.
    spill: Vec<u8>,
    seq: u64,
}

impl Head {
    fn key(&self) -> &[u8] {
        self.inline.get(..self.len).unwrap_or(&self.spill)
    }

    /// Hold `key ‖ tail` under `seq`.
    fn set(&mut self, key: &[u8], tail: &[u8], seq: u64) {
        (self.len, self.seq) = (key.len() + tail.len(), seq);
        match self.inline.get_mut(..self.len) {
            Some(inline) => {
                let (front, back) = inline.split_at_mut(key.len());
                front.copy_from_slice(key);
                back.copy_from_slice(tail);
            }
            None => {
                self.spill.clear();
                self.spill.extend_from_slice(key);
                self.spill.extend_from_slice(tail);
            }
        }
    }
}

/// One input of the merge: a cursor and, while it is in the heap, its
/// head.
struct Source<'a> {
    cursor: Cursor<'a>,
    head: Head,
}

/// Heap-based k-way merge over [`Cursor`]s, bounded by `end`.
///
/// The entry handed out by [`MergingIter::next`] borrows from the
/// cursor at the top of the heap, so that cursor is stepped at the
/// start of the *following* call: a caller that stops after `limit`
/// rows never pays for the step past its last row.
pub struct MergingIter<'a> {
    sources: Vec<Source<'a>>,
    /// Indices of the sources with an entry under them, or held under a
    /// bound: a binary min-heap on (user key, newest sequence first).
    heap: Vec<usize>,
    end: Option<&'a [u8]>,
    drop_tombstones: bool,
    /// The entry at the top of the heap was already considered.
    consumed: bool,
    /// The last user key *seen* (not yielded): a dropped tombstone must
    /// still shadow the older versions behind it.
    last_key: Option<Vec<u8>>,
    merge_cost: SimDuration,
    stats: &'a mut ScanStats,
}

impl<'a> MergingIter<'a> {
    /// Seek every cursor to `start` and build the heap.
    pub fn new<'c: 'a>(
        cursors: impl IntoIterator<Item = Cursor<'c>>,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        drop_tombstones: bool,
        merge_cost: SimDuration,
        stats: &'a mut ScanStats,
        tl: &mut Timeline,
    ) -> Result<Self, DbError> {
        let sources: Vec<_> = cursors
            .into_iter()
            .map(|cursor| Source {
                cursor,
                head: Head::default(),
            })
            .collect();
        let mut iter = MergingIter {
            heap: Vec::with_capacity(sources.len()),
            sources,
            end,
            drop_tombstones,
            consumed: false,
            last_key: None,
            merge_cost,
            stats,
        };
        for i in 0..iter.sources.len() {
            if iter.step(i, Some(start), tl)? {
                iter.stats.tables_held += u64::from(iter.sources[i].cursor.current().is_none());
                iter.heap.push(i);
            }
        }
        for slot in (0..iter.heap.len() / 2).rev() {
            iter.sift_down(slot);
        }
        Ok(iter)
    }

    /// Step source `i`, attribute the virtual time it charged, write its
    /// head, and report whether it still has a place in the heap.
    fn step(
        &mut self,
        i: usize,
        seek: Option<&'a [u8]>,
        tl: &mut Timeline,
    ) -> Result<bool, DbError> {
        let before = tl.elapsed().as_nanos();
        let Source { cursor, head } = &mut self.sources[i];
        let kind = cursor.step(seek, tl)?;
        let spent = tl.elapsed().as_nanos() - before;
        if spent > 0 {
            self.stats.stages.add(kind, spent, 1, 0);
        }
        let placed = cursor
            .head()
            .map(|(key, tail, seq)| head.set(key, tail, seq));
        Ok(placed.is_some())
    }

    /// The head of the source in `slot`.
    fn head(&self, slot: usize) -> &Head {
        &self.sources[self.heap[slot]].head
    }

    fn less(&self, a: usize, b: usize) -> bool {
        let (a, b) = (self.head(a), self.head(b));
        a.key().cmp(b.key()).then(b.seq.cmp(&a.seq)).is_lt()
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let mut least = slot;
            for child in [2 * slot + 1, 2 * slot + 2] {
                if child < self.heap.len() && self.less(child, least) {
                    least = child;
                }
            }
            if least == slot {
                return;
            }
            self.heap.swap(slot, least);
            slot = least;
        }
    }

    /// The newest version of the next user key in `[start, end)`
    /// (skipping deleted keys when `drop_tombstones`), or `None` at the
    /// end of the range. Charges `merge_cost` per record pulled.
    pub fn next(&mut self, tl: &mut Timeline) -> Result<Option<EntryRef<'_>>, DbError> {
        loop {
            if std::mem::take(&mut self.consumed) {
                let top = self.heap[0];
                if !self.step(top, None, tl)? {
                    self.heap.swap_remove(0);
                }
                self.sift_down(0);
            }
            let Some(&top) = self.heap.first() else {
                return Ok(None);
            };
            if self.end.is_some_and(|end| self.head(0).key() >= end) {
                self.heap.clear();
                return Ok(None);
            }
            let Some(e) = self.sources[top].cursor.current() else {
                // A held table's bound reached the top: open it.
                self.stats.tables_opened += 1;
                if !self.step(top, None, tl)? {
                    self.heap.swap_remove(0);
                }
                self.sift_down(0);
                continue;
            };
            tl.charge(self.merge_cost);
            self.stats.records += 1;
            self.consumed = true;
            if self.last_key.as_deref() == Some(e.user_key) {
                continue; // older version of the same key
            }
            match &mut self.last_key {
                Some(last) => {
                    last.clear();
                    last.extend_from_slice(e.user_key);
                }
                None => self.last_key = Some(e.user_key.to_vec()),
            }
            if !(self.drop_tombstones && e.kind == KeyKind::Delete) {
                break;
            }
        }
        Ok(self.sources[self.heap[0]].cursor.current())
    }
}

/// One compaction pass: every record of `cursors` through the merge
/// into `sink`. Returns how many records were read. A failure to read
/// an input ticks `input_errors`; a failure of the sink does not.
pub fn merge_into<'a, E: Into<DbError>>(
    cursors: impl IntoIterator<Item = Cursor<'a>>,
    drop_tombstones: bool,
    cost: &sim::CostModel,
    input_errors: &sim::Counter,
    tl: &mut Timeline,
    mut sink: impl FnMut(EntryRef<'_>, &mut Timeline) -> Result<(), E>,
) -> Result<u64, DbError> {
    let mut stats = ScanStats::default();
    let cost = cost.cpu.merge_per_entry;
    let merge = MergingIter::new(cursors, b"", None, drop_tombstones, cost, &mut stats, tl);
    let mut merge = merge.inspect_err(|_| input_errors.incr())?;
    while let Some(entry) = merge.next(tl).inspect_err(|_| input_errors.incr())? {
        sink(entry, tl).map_err(Into::into)?;
    }
    Ok(stats.records)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::handle::merge_dedup;
    use crate::level0::tests::table_opts;
    use crate::level0::PmLevel0;
    use memtable::MemTable;
    use pm_device::PmPool;
    use pmtable::{OwnedEntry, PmTableOptions};
    use proptest::collection::{btree_set, vec};
    use proptest::prelude::*;
    use sim::CostModel;
    use std::collections::BTreeSet;

    /// Everything a merge over `cursors` yields for `[start, end)`.
    pub(crate) fn drain<'a>(
        cursors: Vec<Cursor<'a>>,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        drop_tombstones: bool,
    ) -> Vec<OwnedEntry> {
        merge_rows(cursors, start, end, drop_tombstones, usize::MAX).0
    }

    /// The first `limit` rows a merge over `cursors` yields for
    /// `[start, end)`, and the merge's stats.
    fn merge_rows<'a>(
        cursors: Vec<Cursor<'a>>,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        drop_tombstones: bool,
        limit: usize,
    ) -> (Vec<OwnedEntry>, ScanStats) {
        let mut stats = ScanStats::default();
        let mut tl = Timeline::new();
        let cost = CostModel::default().cpu.merge_per_entry;
        let mut iter = MergingIter::new(
            cursors,
            start,
            end,
            drop_tombstones,
            cost,
            &mut stats,
            &mut tl,
        )
        .unwrap();
        let mut out = Vec::new();
        while out.len() < limit {
            let Some(e) = iter.next(&mut tl).unwrap() else {
                assert!(iter.next(&mut tl).unwrap().is_none(), "stays exhausted");
                break;
            };
            out.push(e.to_owned());
        }
        drop(iter);
        assert_eq!(
            stats.stages.nanos() + stats.records * cost.as_nanos(),
            tl.elapsed().as_nanos(),
            "every nanosecond of the merge is attributed to a stage"
        );
        (out, stats)
    }

    /// What keys are made of: zero bytes (trailing ones too), pieces
    /// shorter than the column's 8-byte window, one that fills it, so
    /// keys tie on their window and differ after it, and one longer than
    /// a head holds in place, so heads spill and tie on what they hold.
    const PIECES: [&[u8]; 7] = [
        b"\0",
        b"\0\0\0",
        b"a",
        b"ab",
        b"\xff",
        b"zzzzzzzz",
        &[b'~'; INLINE_KEY + 3],
    ];

    fn key() -> impl Strategy<Value = Vec<u8>> {
        vec(0..PIECES.len(), 1..4)
            .prop_map(|p| p.into_iter().flat_map(|i| PIECES[i]).copied().collect())
    }

    /// The bound a held table sits under, or `None` when its seek
    /// dropped it.
    fn bound(run: &PmRun<'_>) -> Option<Vec<u8>> {
        run.held
            .as_ref()
            .map(|held| [held.head, held.seek.tail()].concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `handle::merge_dedup` is the reference: over the same
        /// overlapping sources (duplicate keys within and across
        /// sources, tombstones), kept or dropped, the iterator yields
        /// the same entries in the same order. Two in three keys are
        /// longer than a head holds in place and tie on all of it.
        #[test]
        fn merging_iter_equals_merge_dedup(
            writes in proptest::collection::vec((0usize..6, 0u8..24, proptest::bool::ANY), 0..160),
            drop_tombstones in proptest::bool::ANY,
            start in 0u8..8,
            span in 0u8..10,
        ) {
            let cost = CostModel::default();
            let mut tl = Timeline::new();
            let mut sources: Vec<MemTable> = (0..6).map(|_| MemTable::new(cost)).collect();
            for (seq, (source, k, delete)) in writes.iter().enumerate() {
                let kind = if *delete { KeyKind::Delete } else { KeyKind::Value };
                let mut key = vec![b'k', k / 3];
                if k % 3 > 0 {
                    key.extend([b'~'; INLINE_KEY].iter().chain(&[k % 3]));
                }
                sources[*source].insert(&key, seq as u64 + 1, kind, &[*k], &mut tl);
            }
            let (start, end) = ([b'k', start], [b'k', start.saturating_add(span)]);
            let end = (span < 9).then_some(&end[..]);
            let in_range = |e: &OwnedEntry| {
                e.user_key.as_slice() >= &start[..] && end.is_none_or(|end| e.user_key.as_slice() < end)
            };
            let materialized = sources.iter().map(|s| {
                s.iter().map(|e| e.to_owned()).filter(in_range).collect()
            });
            let reference =
                merge_dedup(materialized.collect(), drop_tombstones, &cost, &mut tl);
            let cursors = sources.iter().map(|s| Cursor::Mem(s.cursor())).collect();
            prop_assert_eq!(drain(cursors, &start, end, drop_tombstones), reference);
        }

        /// Over a level-0 of up to 40 unsorted tables (and maybe a sorted
        /// run cut into one to three tables) whose keys tie on their
        /// column window, hold zero bytes and run shorter than it, with
        /// one key's versions and tombstones spread across tables, a
        /// scan's merge over deferred tables yields what one over eager
        /// cursors does, and both what a merge of every table's full
        /// contents does — from a start before, inside and after every
        /// table, to no end or a bounded one, whole (a reverse scan
        /// keeps the tail of this pass) or cut at a limit. Every bound a
        /// seek leaves lies between the seek key and the table's first
        /// key at or past it.
        #[test]
        fn prop_deferred_tables_merge_like_eager_ones(
            keys in btree_set(key(), 1..24),
            in_run in vec(proptest::bool::ANY, 24),
            cuts in vec(0usize..24, 0..3),
            tables in vec(vec((0usize..24, 0u8..5), 1..12), 0..40),
            group_size in 2usize..5,
            drop_tombstones in proptest::bool::ANY,
            end_at in 0usize..80,
            limit in 1usize..20,
        ) {
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            let pool = PmPool::new(64 << 20, CostModel::default());
            let opts = PmTableOptions { group_size, ..PmTableOptions::default() };
            let (mut l0, mut seq) = (PmLevel0::new(), 0);
            let run: Vec<OwnedEntry> = keys.iter().zip(&in_run).filter(|(_, &r)| r).map(|(k, _)| {
                seq += 1;
                OwnedEntry::value(k.clone(), seq, b"run".to_vec())
            }).collect();
            // Each table its own group-cache id (`table_opts` mints 1).
            let ids = crate::handle::CacheIds::new();
            let new_table = |entries| {
                let (table, keys) = table_opts(&pool, entries, opts);
                (crate::handle::PmTableHandle { cache_id: ids.next(), ..table }, keys)
            };
            // The run, cut between two of its keys at the drawn points.
            let points: BTreeSet<usize> = cuts.iter().map(|&c| c % run.len().max(1)).collect();
            let bounds: Vec<usize> = [0].into_iter().chain(points).chain([run.len()]).collect();
            let pieces = bounds.windows(2).map(|w| &run[w[0]..w[1]]).filter(|p| !p.is_empty());
            l0.set_sorted_run(pieces.map(|p| new_table(p.to_vec()).0).collect());
            for table in &tables {
                let entries = table.iter().map(|&(k, kind)| {
                    seq += 1;
                    let k = keys[k % keys.len()].clone();
                    match kind {
                        0 => OwnedEntry::tombstone(k, seq),
                        _ => OwnedEntry::value(k, seq, seq.to_le_bytes().to_vec()),
                    }
                });
                let (table, table_keys) = new_table(entries.collect());
                l0.push_unsorted(table, table_keys);
            }
            let mut starts = vec![Vec::new(), vec![0xff; 12]];
            for k in &keys {
                starts.extend([k.clone(), [k.as_slice(), b"\0"].concat(), k[..k.len() - 1].to_vec()]);
            }
            let (cache, cost) = (PmGroupCache::new(1 << 20), CostModel::default());
            for start in &starts {
                let end_key = &starts[end_at % starts.len()];
                for end in [None, Some(end_key.as_slice()).filter(|e| *e > start.as_slice())] {
                    let deferred = l0.cursors(usize::MAX, end, Some(&cache)).collect();
                    let (rows, stats) = merge_rows(deferred, start, end, drop_tombstones, usize::MAX);
                    let eager = drain(l0.cursors(usize::MAX, end, None).collect(), start, end, drop_tombstones);
                    prop_assert_eq!(&rows, &eager);
                    let in_range = |e: &OwnedEntry| {
                        e.user_key.as_slice() >= start.as_slice() && end.is_none_or(|end| e.user_key.as_slice() < end)
                    };
                    let whole = l0.tables().map(|h| {
                        h.table.scan_all(&mut Timeline::new()).into_iter().filter(in_range).collect()
                    });
                    let reference = merge_dedup(whole.collect(), drop_tombstones, &cost, &mut Timeline::new());
                    prop_assert_eq!(&eager, &reference);
                    prop_assert!(stats.tables_opened <= stats.tables_held);
                    let deferred = l0.cursors(usize::MAX, end, Some(&cache)).collect();
                    let (first, _) = merge_rows(deferred, start, end, drop_tombstones, limit);
                    prop_assert_eq!(&first[..], &eager[..limit.min(eager.len())]);
                }
            }
            for h in l0.unsorted() {
                let entries = h.table.scan_all(&mut Timeline::new());
                for start in &starts {
                    let mut cursor = PmRun::new(std::slice::from_ref(h), None, Some(&cache));
                    cursor.step(Some(start), &mut Timeline::new()).unwrap();
                    let target = entries.iter().find(|e| e.user_key >= *start);
                    match (bound(&cursor), target) {
                        (Some(bound), Some(target)) => prop_assert!(
                            start <= &bound && bound <= target.user_key,
                            "bound {:?} outside [{:?}, {:?}]", bound, start, target.user_key
                        ),
                        (None, None) => {}
                        (bound, target) => prop_assert!(false, "bound {:?}, target {:?}", bound, target),
                    }
                }
            }
        }
    }
}
