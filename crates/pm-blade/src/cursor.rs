//! Scan cursors and the k-way merging iterator over them.
//!
//! A range scan is a merge over every sorted source of a partition: the
//! memtable, each unsorted PM table, the PM sorted run, matrix rows, SSD
//! level-0 tables and one run per SSD level. Each source is a lazy
//! [`Cursor`], and every run of tables, PM or SSD, is read by one
//! [`RunCursor`]; [`MergingIter`] keeps them in a binary heap ordered by
//! internal key (user key ascending, sequence descending) and yields the
//! newest version of each user key. Nothing is materialized: a source
//! decodes one PM group or reads one SSD block at a time, and only when
//! the merge steps it.
//!
//! A scan *defers* the unsorted PM tables of a level-0: one
//! [`Reveal`] stands in the heap for every table not yet opened, at a
//! lower bound on their keys that one search of the level-0's merged
//! key column ([`pmtable::MergedColumn`]) yields. When that bound
//! reaches the top, the merge opens the table it stands for, from the
//! group its DRAM fences name, and the revealer walks on. So a scan's
//! set-up and PM work follow the rows it returns, not the
//! unsorted-table count.
//!
//! Compactions are the same merge run to the end ([`merge_into`]) over
//! cursors that read their tables front to back, past the group and
//! block caches, into a run writer.

use encoding::key::KeyKind;
use memtable::MemCursor;
use pm_device::PmRegion;
use pmtable::{ArrayCursor, EntryRef, GroupLoad, MergedColumn, PmCursor};
use sim::{SimDuration, Timeline};
use sstable::SsCursor;

use crate::engine::DbError;
use crate::groupcache::TableGroupCache;
use crate::handle::{PmTableHandle, SsTableHandle};
use crate::run::{RunCursor, RunTable};
use crate::telemetry::{SpanKind, StageTimes};

pub(crate) fn corrupt(e: impl std::fmt::Display) -> DbError {
    DbError::Corrupt(e.to_string())
}

/// One sorted scan source. An enum, not a trait object: the merge
/// compares and steps cursors in its innermost loop.
pub enum Cursor<'a> {
    Mem(MemCursor<'a>),
    /// PM tables in key order (an unsorted table is a run of one).
    Pm(RunCursor<'a, PmTableHandle, PmCursor<'a, PmRegion, TableGroupCache<'a>>>),
    /// The unsorted PM tables of a level-0 not yet opened; their
    /// cursors follow it, parked.
    Reveal(Reveal<'a>),
    /// One matrix-container row.
    Row(ArrayCursor<'a, PmRegion>),
    /// SSTables in key order (an SSD level-0 table is a run of one).
    Ss(RunCursor<'a, SsTableHandle, SsCursor<'a>>),
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
            Cursor::Pm(run) => match run.step(seek, tl)? {
                GroupLoad::Decoded => Ok(SpanKind::PmDecodeMiss),
                _ => Ok(SpanKind::PmDecodeHit),
            },
            Cursor::Reveal(reveal) => Ok(reveal.step(seek, tl)),
            Cursor::Ss(run) => run.step(seek, tl).map(|_| SpanKind::SsdRead),
        }
    }

    fn current(&self) -> Option<EntryRef<'_>> {
        match self {
            Cursor::Mem(c) => c.current(),
            Cursor::Row(c) => c.current(),
            Cursor::Pm(run) => run.current(),
            Cursor::Reveal(_) => None,
            Cursor::Ss(run) => run.current(),
        }
    }

    /// Where the cursor sits in the merge's order: its entry's user key
    /// (in two pieces to concatenate) and sequence, or a revealer's
    /// bound under the newest sequence there can be. [`Head::set`] joins
    /// the pieces.
    fn head(&self) -> Option<(&[u8], &[u8], u64)> {
        match self {
            Cursor::Reveal(reveal) => reveal.head(),
            _ => self.current().map(|e| (e.user_key, &[][..], e.seq)),
        }
    }
}

/// The unsorted tables of a level-0 that a scan has not opened, behind
/// their [`MergedColumn`]. Its seek searches the column once, charged
/// one DRAM random read per 64-byte line, for the first entry whose
/// window is at or past the scan's start; every entry of a key at or
/// past the start sits there or later. A start at or before every
/// table's first key lands on the first entry with no search. It then
/// walks the column one entry at a time, charged each line it steps
/// into, and its head is a lower bound on every key at or past the
/// start whose entry is at or past the walk's: the common prefix and
/// the entry's window trimmed of trailing zero bytes (a prefix of the
/// entry's key), or the start when that sorts before it (the window
/// ties with the start's). A table's own first key is no such bound, as
/// another table's key can tie with it on the window and sort before
/// it.
///
/// The tables' own cursors follow the revealer in the merge's sources,
/// parked: never stepped. When the head reaches the top of the heap,
/// the merge opens the table of the entry it stands for, unless that is
/// open already or outside the scan's range, and steps the revealer to
/// the next entry.
pub struct Reveal<'a> {
    /// The tables whose cursors follow this one, parked.
    tables: &'a [PmTableHandle],
    column: &'a MergedColumn,
    end: Option<&'a [u8]>,
    start: &'a [u8],
    /// Where the walk began, and the entry the head stands for.
    from: usize,
    pos: usize,
    /// The window of the entry the head stands for, trimmed.
    tail: ([u8; 8], usize),
    /// Tables in the scan's range: last key at or past the start, first
    /// key before the end.
    held: u64,
}

impl<'a> Reveal<'a> {
    pub(crate) fn new(
        tables: &'a [PmTableHandle],
        column: &'a MergedColumn,
        end: Option<&'a [u8]>,
    ) -> Self {
        Reveal {
            tables,
            column,
            end,
            start: b"",
            from: 0,
            pos: column.len(),
            tail: ([0; 8], 0),
            held: 0,
        }
    }

    /// Seek to `start`, or step one entry on; either way a filter
    /// consult.
    fn step(&mut self, seek: Option<&'a [u8]>, tl: &mut Timeline) -> SpanKind {
        let mut lines = 0;
        match seek {
            Some(start) => {
                self.start = start;
                let (mut held, mut before_all) = (0, true);
                for h in self.tables {
                    held += u64::from(self.in_range(h));
                    before_all &= start <= h.first();
                }
                // A start at or before every table's first key is at or
                // before every entry: no search finds another place.
                (self.pos, lines) = match before_all {
                    true => (0, 0),
                    false => self.column.seek(start),
                };
                (self.from, self.held) = (self.pos, held);
            }
            None => self.pos += 1,
        }
        if self.pos < self.column.len() {
            // A search probed the entry it landed on, so its windows
            // line is read already: the walk adds the table-index line.
            let searched = seek.is_some() && lines > 0;
            lines += MergedColumn::walk_lines(self.from, self.pos) - u64::from(searched);
            self.tail = self.column.tail(self.pos);
        }
        if lines > 0 {
            tl.charge(self.tables[0].table.cost_model().dram.random_read(64) * lines);
        }
        SpanKind::FilterConsult
    }

    fn in_range(&self, h: &PmTableHandle) -> bool {
        h.last() >= self.start && self.end.is_none_or(|e| h.first() < e)
    }

    /// `prefix ‖ tail`, or `start` when that sorts before it.
    fn head(&self) -> Option<(&[u8], &[u8], u64)> {
        let (prefix, tail) = (self.column.prefix(), &self.tail.0[..self.tail.1]);
        let at_start = prefix.iter().chain(tail).le(self.start);
        let (key, tail) = if at_start {
            (self.start, &[][..])
        } else {
            (prefix, tail)
        };
        (self.pos < self.column.len()).then_some((key, tail, u64::MAX))
    }

    /// The table of the entry the head stands for, if it is in the
    /// scan's range.
    fn table(&self) -> (usize, bool) {
        let table = self.column.table(self.pos);
        (table, self.in_range(&self.tables[table]))
    }
}

/// Where one scan's virtual time went, and what its merge did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// The cursor steps that charged time, by the stage each reported.
    /// The merged key column's search and walk are `filter_consult`.
    pub stages: StageTimes,
    /// Records pulled off the merge heap, each charged
    /// `cpu.merge_per_entry`.
    pub records: u64,
    /// Unsorted PM tables in the scan's range, which the merge held
    /// behind a [`Reveal`], and how many of those it then opened.
    pub tables_held: u64,
    pub tables_opened: u64,
}

/// Key bytes a [`Head`] holds in place; a longer key spills.
const INLINE_KEY: usize = 24;

/// A source's place in the merge's order, copied out of its cursor
/// each time the merge steps it: the key of its entry, or a revealer's
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
    /// An unsorted table's cursor a [`Reveal`] has not opened yet.
    parked: bool,
}

/// Heap-based k-way merge over [`Cursor`]s, bounded by `end`.
///
/// The entry handed out by [`MergingIter::next`] borrows from the
/// cursor at the top of the heap, so that cursor is stepped at the
/// start of the *following* call: a caller that stops after `limit`
/// rows never pays for the step past its last row.
///
/// A [`Cursor::Reveal`] is followed in `cursors` by the cursors of its
/// tables, in table order. The merge parks them and seeks each only
/// when the revealer opens it.
pub struct MergingIter<'a> {
    sources: Vec<Source<'a>>,
    /// Indices of the sources with an entry under them, or a revealer
    /// under its bound: a binary min-heap on (user key, newest sequence
    /// first).
    heap: Vec<usize>,
    start: &'a [u8],
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
                parked: false,
            })
            .collect();
        let mut iter = MergingIter {
            heap: Vec::with_capacity(sources.len()),
            sources,
            start,
            end,
            drop_tombstones,
            consumed: false,
            last_key: None,
            merge_cost,
            stats,
        };
        let mut parked = 0;
        for i in 0..iter.sources.len() {
            if parked > 0 {
                (iter.sources[i].parked, parked) = (true, parked - 1);
                continue;
            }
            if iter.step(i, Some(start), tl)? {
                iter.heap.push(i);
            }
            if let Cursor::Reveal(reveal) = &iter.sources[i].cursor {
                iter.stats.tables_held += reveal.held;
                parked = reveal.tables.len();
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
        let Source { cursor, head, .. } = &mut self.sources[i];
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

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 && self.less(slot, (slot - 1) / 2) {
            self.heap.swap(slot, (slot - 1) / 2);
            slot = (slot - 1) / 2;
        }
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

    /// The revealer in source `top` reached the top of the heap: step it
    /// to its next entry, and open the table of the entry it stood for —
    /// its parked cursor, sought to the scan's start and pushed on the
    /// heap — unless that is open already or outside the scan's range.
    fn reveal(&mut self, top: usize, tl: &mut Timeline) -> Result<(), DbError> {
        let Cursor::Reveal(reveal) = &self.sources[top].cursor else {
            unreachable!("only a revealer sits in the heap without an entry");
        };
        let (table, in_range) = reveal.table();
        let source = top + 1 + table;
        let open = std::mem::take(&mut self.sources[source].parked) && in_range;
        if !self.step(top, None, tl)? {
            self.heap.swap_remove(0);
        }
        self.sift_down(0);
        if open {
            self.stats.tables_opened += 1;
            if self.step(source, Some(self.start), tl)? {
                self.heap.push(source);
                self.sift_up(self.heap.len() - 1);
            }
        }
        Ok(())
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
                self.reveal(top, tl)?;
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
    use crate::groupcache::PmGroupCache;
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

    /// Eight unsorted tables of 32 keys each, `key00100` up, dealt out
    /// in turn.
    fn interleaved_level0(pool: &PmPool) -> PmLevel0 {
        let (mut l0, mut seq) = (PmLevel0::new(), 0);
        for t in 0..8u64 {
            let entries = (0..32u64).map(|i| {
                seq += 1;
                let key = format!("key{:05}", 100 + 8 * i + t);
                OwnedEntry::value(key.into_bytes(), seq, b"v".to_vec())
            });
            let (table, keys) = table_opts(pool, entries.collect(), PmTableOptions::default());
            l0.push_unsorted(table, keys);
        }
        l0
    }

    /// A scan from a key that shares the merged column's prefix but
    /// precedes every unsorted table lands where a scan from the empty
    /// key does, and is charged no search to get there.
    #[test]
    fn a_seek_before_every_table_searches_nothing() {
        let pool = PmPool::new(64 << 20, CostModel::default());
        let l0 = interleaved_level0(&pool);
        assert_eq!(l0.key_column().prefix(), b"key00");
        let cache = PmGroupCache::new(1 << 20);
        let scan = |start: &'static [u8]| {
            let cursors = l0.cursors(usize::MAX, None, Some(&cache)).collect();
            let (rows, stats) = merge_rows(cursors, start, None, false, 5);
            (rows, stats.stages.of(SpanKind::FilterConsult).0)
        };
        let (rows, nanos) = scan(b"");
        assert!(nanos > 0, "the walk onto the first entry is charged");
        assert_eq!(scan(b"key000"), (rows, nanos));
    }

    /// A seek that searches the merged column is charged the lines its
    /// search touched plus the table-index line of the entry it lands
    /// on, whose windows line the search read; a seek that lands with
    /// no search is charged both lines of that entry.
    #[test]
    fn a_searched_seek_charges_its_search_and_one_table_index_line() {
        let pool = PmPool::new(64 << 20, CostModel::default());
        let l0 = interleaved_level0(&pool);
        let (column, line) = (l0.key_column(), CostModel::default().dram.random_read(64));
        let seek = |start: &'static [u8]| {
            let mut tl = Timeline::new();
            Reveal::new(l0.unsorted(), column, None).step(Some(start), &mut tl);
            tl.elapsed().as_nanos()
        };
        let (pos, searched) = column.seek(b"key00200");
        assert!(searched > 0 && pos < column.len());
        assert_eq!(seek(b"key00200"), line.as_nanos() * (searched + 1));
        assert_eq!(seek(b"key000"), line.as_nanos() * 2);
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
        /// keeps the tail of this pass) or cut at a limit. Every bound
        /// the revealer takes on its walk lies at or past the seek key
        /// and at or before the first key at or past it of every table
        /// it has not walked past.
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
            let new_table = |entries| table_opts(&pool, entries, opts);
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
            let contents: Vec<Vec<OwnedEntry>> =
                l0.unsorted().iter().map(|h| h.table.scan_all(&mut Timeline::new())).collect();
            let column = l0.key_column();
            for start in &starts {
                let mut reveal = Reveal::new(l0.unsorted(), column, None);
                reveal.step(Some(start), &mut Timeline::new());
                prop_assert_eq!(reveal.pos, column.seek(start).0);
                // Each table's first entry at or past the seek's.
                let mut first_at = vec![usize::MAX; contents.len()];
                for (pos, (_, table)) in column.entries().enumerate().skip(reveal.pos) {
                    first_at[table] = first_at[table].min(pos);
                }
                let targets = contents.iter().map(|entries| entries.iter().find(|e| e.user_key >= *start));
                let targets: Vec<Option<&OwnedEntry>> = targets.collect();
                for (table, target) in targets.iter().enumerate() {
                    prop_assert!(target.is_none() || first_at[table] != usize::MAX);
                }
                while let Some((key, tail, _)) = reveal.head() {
                    let bound = [key, tail].concat();
                    prop_assert!(start <= &bound, "bound {:?} before {:?}", bound, start);
                    for (table, target) in targets.iter().enumerate() {
                        if let Some(target) = target.filter(|_| first_at[table] >= reveal.pos) {
                            prop_assert!(
                                bound <= target.user_key,
                                "bound {:?} past {:?}", bound, target.user_key
                            );
                        }
                    }
                    reveal.step(None, &mut Timeline::new());
                }
            }
        }
    }
}
