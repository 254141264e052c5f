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
//! Compactions are the same merge run to the end ([`merge_into`]) over
//! cursors that read their tables front to back, into a run writer.

use std::cmp::Reverse;

use encoding::key::KeyKind;
use memtable::MemCursor;
use pm_device::PmRegion;
use pmtable::{ArrayCursor, EntryRef, GroupLoad, PmCursor};
use sim::{SimDuration, Timeline};
use sstable::SsCursor;

use crate::engine::DbError;
use crate::groupcache::{PmGroupCache, TableGroupCache};
use crate::handle::{PmTableHandle, SsTableHandle};
use crate::telemetry::SpanKind;

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

impl Cursor<'_> {
    /// Seek to the first entry with user key >= `seek`, or step to the
    /// next entry when `None`. Returns the trace stage the virtual time
    /// the step charged belongs to.
    fn step(&mut self, seek: Option<&[u8]>, tl: &mut Timeline) -> Result<SpanKind, DbError> {
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
}

/// A concatenating cursor over non-overlapping PM tables: opens only
/// the table holding the seek key and moves to the next one lazily.
/// Groups are fetched through the shared decode cache; without one (a
/// compaction's input) each table is read sequentially, see
/// [`pmtable::PmTable::sequential_cursor`].
pub struct PmRun<'a> {
    tables: &'a [PmTableHandle],
    /// The table opened when `cur` runs out.
    next: usize,
    end: Option<&'a [u8]>,
    cache: Option<&'a PmGroupCache>,
    cur: Option<PmCursor<'a, PmRegion, TableGroupCache<'a>>>,
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
            cur: None,
        }
    }

    fn step(&mut self, seek: Option<&[u8]>, tl: &mut Timeline) -> Result<SpanKind, DbError> {
        let mut load = GroupLoad::None;
        match (seek, &mut self.cur) {
            (Some(start), _) => {
                self.next = self.tables.partition_point(|h| &*h.last < start);
                self.cur = None;
            }
            (None, Some(c)) => load = c.advance(tl).map_err(corrupt)?,
            (None, None) => {}
        }
        if self.cur.as_ref().is_none_or(|c| c.current().is_none()) {
            // Tables that begin at or past `end` are never opened.
            let table = self.tables.get(self.next);
            self.cur = match table.filter(|h| self.end.is_none_or(|e| &*h.first < e)) {
                Some(h) => {
                    self.next += 1;
                    let mut c = match self.cache {
                        Some(cache) => h.table.cursor(cache.for_table(h.cache_id)),
                        None => h.table.sequential_cursor(),
                    };
                    load = load.max(c.seek(seek.unwrap_or_default(), tl).map_err(corrupt)?);
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

/// Where one scan's virtual time went, by trace stage.
#[derive(Clone, Copy, Debug)]
pub struct ScanStats {
    /// Per source kind: (stage, nanos, cursor steps that charged time).
    pub stages: [(SpanKind, u64, u64); 4],
    /// Records pulled off the merge heap, each charged
    /// `cpu.merge_per_entry`.
    pub records: u64,
}

impl Default for ScanStats {
    fn default() -> Self {
        ScanStats {
            stages: [
                SpanKind::MemtableProbe,
                SpanKind::PmDecodeHit,
                SpanKind::PmDecodeMiss,
                SpanKind::SsdRead,
            ]
            .map(|kind| (kind, 0, 0)),
            records: 0,
        }
    }
}

/// Heap-based k-way merge over [`Cursor`]s, bounded by `end`.
///
/// The entry handed out by [`MergingIter::next`] borrows from the
/// cursor at the top of the heap, so that cursor is stepped at the
/// start of the *following* call: a caller that stops after `limit`
/// rows never pays for the step past its last row.
pub struct MergingIter<'a> {
    cursors: Vec<Cursor<'a>>,
    /// Indices of the cursors with an entry under them: a binary
    /// min-heap on (user key, newest sequence first).
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
    pub fn new(
        cursors: Vec<Cursor<'a>>,
        start: &[u8],
        end: Option<&'a [u8]>,
        drop_tombstones: bool,
        merge_cost: SimDuration,
        stats: &'a mut ScanStats,
        tl: &mut Timeline,
    ) -> Result<Self, DbError> {
        let mut iter = MergingIter {
            heap: Vec::with_capacity(cursors.len()),
            cursors,
            end,
            drop_tombstones,
            consumed: false,
            last_key: None,
            merge_cost,
            stats,
        };
        for i in 0..iter.cursors.len() {
            if iter.step(i, Some(start), tl)? {
                iter.heap.push(i);
            }
        }
        for slot in (0..iter.heap.len() / 2).rev() {
            iter.sift_down(slot);
        }
        Ok(iter)
    }

    /// Step cursor `i`, attribute the virtual time it charged, and
    /// report whether an entry is under it.
    fn step(&mut self, i: usize, seek: Option<&[u8]>, tl: &mut Timeline) -> Result<bool, DbError> {
        let before = tl.elapsed().as_nanos();
        let kind = self.cursors[i].step(seek, tl)?;
        let spent = tl.elapsed().as_nanos() - before;
        if spent > 0 {
            let stage = self.stats.stages.iter_mut().find(|s| s.0 == kind);
            let stage = stage.expect("every cursor stage has a slot");
            stage.1 += spent;
            stage.2 += 1;
        }
        Ok(self.cursors[i].current().is_some())
    }

    /// Heap order of the cursor in `slot`.
    fn key(&self, slot: usize) -> (&[u8], Reverse<u64>) {
        let e = self.cursors[self.heap[slot]].current();
        let e = e.expect("the heap holds only cursors with an entry under them");
        (e.user_key, Reverse(e.seq))
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let mut least = slot;
            for child in [2 * slot + 1, 2 * slot + 2] {
                if child < self.heap.len() && self.key(child) < self.key(least) {
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
            let e = self.cursors[top].current().expect("heap top has an entry");
            if self.end.is_some_and(|end| e.user_key >= end) {
                self.heap.clear();
                return Ok(None);
            }
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
        Ok(self.cursors[self.heap[0]].current())
    }
}

/// One compaction pass: every record of `cursors` through the merge
/// into `sink`. Returns how many records were read. A failure to read
/// an input ticks `input_errors`; a failure of the sink does not.
pub fn merge_into<E: Into<DbError>>(
    cursors: Vec<Cursor<'_>>,
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
    use memtable::MemTable;
    use pmtable::OwnedEntry;
    use proptest::prelude::*;
    use sim::CostModel;

    /// Everything a merge over `cursors` yields for `[start, end)`.
    pub(crate) fn drain<'a>(
        cursors: Vec<Cursor<'a>>,
        start: &[u8],
        end: Option<&'a [u8]>,
        drop_tombstones: bool,
    ) -> Vec<OwnedEntry> {
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
        while let Some(e) = iter.next(&mut tl).unwrap() {
            out.push(e.to_owned());
        }
        assert!(iter.next(&mut tl).unwrap().is_none(), "stays exhausted");
        let staged: u64 = stats.stages.iter().map(|s| s.1).sum();
        assert_eq!(
            staged + stats.records * cost.as_nanos(),
            tl.elapsed().as_nanos(),
            "every nanosecond of the merge is attributed to a stage"
        );
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `handle::merge_dedup` is the reference: over the same
        /// overlapping sources (duplicate keys within and across
        /// sources, tombstones), kept or dropped, the iterator yields
        /// the same entries in the same order.
        #[test]
        fn merging_iter_equals_merge_dedup(
            writes in proptest::collection::vec((0usize..6, 0u8..24, proptest::bool::ANY), 0..160),
            drop_tombstones in proptest::bool::ANY,
            start in 0u8..24,
            span in 0u8..30,
        ) {
            let cost = CostModel::default();
            let mut tl = Timeline::new();
            let mut sources: Vec<MemTable> = (0..6).map(|_| MemTable::new(cost)).collect();
            for (seq, (source, k, delete)) in writes.iter().enumerate() {
                let kind = if *delete { KeyKind::Delete } else { KeyKind::Value };
                sources[*source].insert(&[b'k', *k], seq as u64 + 1, kind, &[*k], &mut tl);
            }
            let (start, end) = ([b'k', start], [b'k', start.saturating_add(span)]);
            let end = (span < 26).then_some(&end[..]);
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
    }
}
