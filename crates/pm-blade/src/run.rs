//! A sorted run: tables in key order whose key ranges do not overlap.
//!
//! Every sorted run of a partition is one [`Run`], whatever the medium:
//! the PM level-0's sorted run and each SSD level. A run finds the one
//! table whose range holds a key (`Run::locate`) and the tables a key
//! range overlaps (`Run::overlap`), and takes new tables in place of
//! a range of its own (`Run::splice`). One [`RunCursor`] reads a run,
//! or a slice of one, opening only the table that holds the seek key
//! and the next one lazily. An unsorted PM table and an SSD level-0
//! table overlap their neighbours, so each is read as a run of one.
//!
//! How one table is opened and stepped is the one thing that differs
//! between a PM table and an SSTable: [`RunTable`], so the cursor is
//! compiled once per kind.

use std::ops::{Range, RangeBounds};

use pm_device::PmRegion;
use pmtable::{EntryRef, GroupLoad, PmCursor};
use sim::Timeline;
use sstable::SsCursor;

use crate::cursor::corrupt;
use crate::engine::DbError;
use crate::groupcache::{PmGroupCache, TableGroupCache};
use crate::handle::{PmTableHandle, SsTableHandle};

/// A table a [`Run`] holds: its key range, and how a [`RunCursor`]
/// opens and steps it.
pub trait RunTable {
    /// A cursor over one table.
    type Cursor<'a>
    where
        Self: 'a;

    /// The smallest user key. A handle's table is never empty: a run
    /// writer never cuts one, and a reopen refuses one.
    fn first(&self) -> &[u8];

    /// The largest user key.
    fn last(&self) -> &[u8];

    /// Could this table contain `key`?
    fn overlaps_key(&self, key: &[u8]) -> bool {
        self.first() <= key && key <= self.last()
    }

    /// A cursor at the first entry with user key >= `start`, and what
    /// the seek loaded. A scan passes the group `cache` and reads
    /// through the caches; a compaction passes none and reads the table
    /// front to back, past them.
    fn open<'a>(
        &'a self,
        start: &[u8],
        cache: Option<&'a PmGroupCache>,
        tl: &mut Timeline,
    ) -> Result<(Self::Cursor<'a>, GroupLoad), DbError>;

    /// Step `cursor` to its next entry.
    fn advance(cursor: &mut Self::Cursor<'_>, tl: &mut Timeline) -> Result<GroupLoad, DbError>;

    fn current<'c>(cursor: &'c Self::Cursor<'_>) -> Option<EntryRef<'c>>;
}

impl RunTable for PmTableHandle {
    type Cursor<'a> = PmCursor<'a, PmRegion, TableGroupCache<'a>>;

    fn first(&self) -> &[u8] {
        self.table.first_user_key().unwrap_or_default()
    }

    fn last(&self) -> &[u8] {
        self.table.last_user_key().unwrap_or_default()
    }

    /// From the group the table's DRAM [`pmtable::GroupFences`] name
    /// for `start`, charged one DRAM random read per 64-byte line, or
    /// from group 0 when `start` is at or before the first key (a step
    /// onto a run's next table seeks the empty key). It never searches
    /// the table's prefix layer.
    fn open<'a>(
        &'a self,
        start: &[u8],
        cache: Option<&'a PmGroupCache>,
        tl: &mut Timeline,
    ) -> Result<(Self::Cursor<'a>, GroupLoad), DbError> {
        let (group, lines) = match start > self.first() {
            true => self.fences.group_of(start),
            false => (0, 0),
        };
        tl.charge(self.table.cost_model().dram.random_read(64) * lines);
        let mut cursor = match cache {
            Some(c) => self.table.cursor(TableGroupCache::new(c, self.region())),
            None => self.table.sequential_cursor(),
        };
        let load = cursor.seek(group, start, tl).map_err(corrupt)?;
        Ok((cursor, load))
    }

    #[inline]
    fn advance(cursor: &mut Self::Cursor<'_>, tl: &mut Timeline) -> Result<GroupLoad, DbError> {
        cursor.advance(tl).map_err(corrupt)
    }

    #[inline]
    fn current<'c>(cursor: &'c Self::Cursor<'_>) -> Option<EntryRef<'c>> {
        cursor.current()
    }
}

impl RunTable for SsTableHandle {
    type Cursor<'a> = SsCursor<'a>;

    fn first(&self) -> &[u8] {
        &self.first
    }

    fn last(&self) -> &[u8] {
        &self.last
    }

    /// A scan reads one block at a time through the block cache.
    fn open<'a>(
        &'a self,
        start: &[u8],
        cache: Option<&'a PmGroupCache>,
        tl: &mut Timeline,
    ) -> Result<(Self::Cursor<'a>, GroupLoad), DbError> {
        let mut cursor = match cache {
            Some(_) => self.table.cursor(),
            None => self.table.sequential_cursor(),
        };
        cursor.seek(start, tl)?;
        Ok((cursor, GroupLoad::None))
    }

    #[inline]
    fn advance(cursor: &mut Self::Cursor<'_>, tl: &mut Timeline) -> Result<GroupLoad, DbError> {
        cursor.advance(tl)?;
        Ok(GroupLoad::None)
    }

    #[inline]
    fn current<'c>(cursor: &'c Self::Cursor<'_>) -> Option<EntryRef<'c>> {
        cursor.current()
    }
}

/// Tables in key order whose key ranges do not overlap.
#[derive(Clone)]
pub struct Run<H> {
    tables: Vec<H>,
}

impl<H> Default for Run<H> {
    fn default() -> Self {
        Run { tables: Vec::new() }
    }
}

impl<H: RunTable> Run<H> {
    /// The run of `tables`, which are in key order and do not overlap.
    pub(crate) fn new(tables: Vec<H>) -> Self {
        debug_assert!(tables.windows(2).all(|w| w[0].last() < w[1].first()));
        Run { tables }
    }

    /// The tables, in key order.
    pub(crate) fn tables(&self) -> &[H] {
        &self.tables
    }

    /// The one table whose `[first, last]` range holds `key`, if any:
    /// a binary search over the last keys, then one first-key
    /// comparison to reject a key in a gap.
    pub(crate) fn locate(&self, key: &[u8]) -> Option<&H> {
        let i = self.tables.partition_point(|t| t.last() < key);
        self.tables.get(i).filter(|t| t.first() <= key)
    }

    /// The index range of the tables that overlap `[first, last]`: the
    /// tables are sorted and do not overlap, so these are contiguous.
    pub(crate) fn overlap(&self, first: &[u8], last: &[u8]) -> Range<usize> {
        let lo = self.tables.partition_point(|t| t.last() < first);
        lo..self.tables.partition_point(|t| t.first() <= last)
    }

    /// Put `tables` in place of `range`, returning the tables they
    /// replace; the result must again be a run.
    pub(crate) fn splice(&mut self, range: impl RangeBounds<usize>, tables: Vec<H>) -> Vec<H> {
        let replaced = self.tables.splice(range, tables).collect();
        *self = Run::new(std::mem::take(&mut self.tables));
        replaced
    }
}

/// A concatenating cursor over a run, or a slice of one: a seek opens
/// only the table holding the seek key, and the cursor moves to the
/// next table lazily. A table that begins at or past `end` is never
/// opened. `C` is `H`'s table cursor, a parameter of its own so that a
/// run cursor is covariant in `'a`, as the merge's sources must be.
pub struct RunCursor<'a, H, C> {
    tables: &'a [H],
    /// The table opened when `cur` runs out.
    next: usize,
    end: Option<&'a [u8]>,
    cache: Option<&'a PmGroupCache>,
    cur: Option<C>,
}

impl<'a, H: RunTable<Cursor<'a> = C>, C> RunCursor<'a, H, C> {
    /// A cursor over `tables` for `[.., end)`. A scan passes the group
    /// `cache` and reads through the caches; a compaction's input
    /// passes none, and each table is read whole, front to back, past
    /// them.
    pub fn new(tables: &'a [H], end: Option<&'a [u8]>, cache: Option<&'a PmGroupCache>) -> Self {
        RunCursor {
            tables,
            next: tables.len(),
            end,
            cache,
            cur: None,
        }
    }

    /// Seek to the first entry with user key >= `seek`, or step to the
    /// next entry when `None`. Returns what the step loaded: a PM group
    /// decoded, or one taken from the cache. Inlined: the merge steps a
    /// cursor once per record, and a call per step shows in a
    /// compaction's host time.
    #[inline]
    pub(crate) fn step(
        &mut self,
        seek: Option<&[u8]>,
        tl: &mut Timeline,
    ) -> Result<GroupLoad, DbError> {
        let mut load = GroupLoad::None;
        match (seek, &mut self.cur) {
            (Some(start), _) => {
                self.next = self.tables.partition_point(|t| t.last() < start);
                self.cur = None;
            }
            (None, Some(cursor)) => load = H::advance(cursor, tl)?,
            (None, None) => {}
        }
        if self.current().is_none() {
            self.cur = None;
            let next = self.tables.get(self.next);
            if let Some(table) = next.filter(|t| self.end.is_none_or(|e| t.first() < e)) {
                self.next += 1;
                let (cursor, opened) = table.open(seek.unwrap_or_default(), self.cache, tl)?;
                (self.cur, load) = (Some(cursor), load.max(opened));
            }
        }
        Ok(load)
    }

    /// The entry under the cursor.
    #[inline]
    pub(crate) fn current(&self) -> Option<EntryRef<'_>> {
        H::current(self.cur.as_ref()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level0::tests::table_opts;
    use crate::levels::tests::build_ss_tables;
    use pm_device::PmPool;
    use pmtable::OwnedEntry;
    use sim::CostModel;
    use ssd_device::SsdDevice;
    use sstable::BlockCache;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// The run both kinds are tested on: `[b, d]` and `[h, k]`.
    const TABLES: [[(&str, &str); 2]; 2] = [[("b", "1"), ("d", "2")], [("h", "3"), ("k", "4")]];

    fn entries(table: &[(&str, &str)], seq: u64) -> Vec<OwnedEntry> {
        let entry = |(i, (k, v)): (usize, &(&str, &str))| {
            OwnedEntry::value(k.as_bytes().to_vec(), seq + i as u64, v.as_bytes().to_vec())
        };
        table.iter().enumerate().map(entry).collect()
    }

    /// `locate` and `overlap` over the two tables, and over no table:
    /// keys before, in, between and past them, and keys equal to a
    /// table's first or last key.
    fn check<H: RunTable>(run: &Run<H>) {
        let located = |key: &str| run.locate(key.as_bytes()).map(|t| t.first().to_vec());
        let (first, second) = (Some(b"b".to_vec()), Some(b"h".to_vec()));
        for (key, want) in [("b", &first), ("c", &first), ("d", &first), ("h", &second)] {
            assert_eq!(&located(key), want, "{key}");
        }
        assert_eq!(located("k"), second);
        for key in ["a", "f", "z"] {
            assert_eq!(located(key), None, "{key}");
        }
        let cases = [
            (("c", "e"), 0..1),
            (("a", "z"), 0..2),
            (("e", "f"), 1..1),
            (("d", "h"), 0..2),
            (("a", "b"), 0..1),
            (("k", "z"), 1..2),
            (("l", "z"), 2..2),
            (("0", "a"), 0..0),
        ];
        for ((first, last), want) in cases {
            assert_eq!(run.overlap(first.as_bytes(), last.as_bytes()), want);
        }
        let empty = Run::<H>::default();
        assert!(empty.locate(b"c").is_none());
        assert_eq!(empty.overlap(b"a", b"z"), 0..0);
    }

    /// The run searches over both handle kinds. The searches built on
    /// them are tested where they live: `level0`'s sorted-run get and
    /// `levels`' get and overlap.
    #[test]
    fn locate_and_overlap_find_only_covering_tables() {
        let pool = PmPool::new(8 << 20, CostModel::default());
        let pm = TABLES.iter().enumerate();
        let pm =
            pm.map(|(i, t)| table_opts(&pool, entries(t, 2 * i as u64 + 1), Default::default()));
        let pm: Vec<PmTableHandle> = pm.map(|(h, _)| h).collect();
        check(&Run::new(pm));
        let (device, cache) = (
            SsdDevice::new(CostModel::default()),
            Arc::new(BlockCache::new(1 << 20)),
        );
        let (counter, mut tl) = (AtomicU64::new(0), Timeline::new());
        let mut ss = Vec::new();
        for (i, table) in TABLES.iter().enumerate() {
            let entries = entries(table, 2 * i as u64 + 1);
            ss.extend(
                build_ss_tables(
                    &entries,
                    &device,
                    &cache,
                    "x",
                    &counter,
                    usize::MAX,
                    &mut tl,
                )
                .unwrap(),
            );
        }
        check(&Run::new(ss));
    }
}
