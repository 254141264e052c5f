//! The forward cursor over one table, and the hook through which a
//! caller caches the groups it decodes.
//!
//! A cursor holds one decoded group at a time. Reading sequentially (a
//! compaction's input), nothing else ever holds it, so the cursor
//! decodes each next group into that same run: an input allocates for
//! its largest group once, not a run per group.

use std::sync::Arc;

use sim::Timeline;

use super::{PmTable, PmTableError};
use crate::storage::Storage;
use crate::{EntryRef, EntryRun};

/// Where a cursor step found the group it moved onto.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum GroupLoad {
    /// The step stayed inside the current group (or ran off the table).
    None,
    /// Served from the decoded-group cache.
    Cached,
    /// Decoded from PM.
    Decoded,
}

/// A forward cursor over one [`PmTable`] in internal-key order, holding
/// one decoded group at a time.
pub struct PmCursor<'a, S: Storage, A: GroupAccess> {
    table: &'a PmTable<S>,
    /// `None` reads sequentially: see [`PmTable::sequential_cursor`].
    access: Option<A>,
    /// Reading sequentially, the next group's block follows the one
    /// just read.
    adjacent: bool,
    /// The group `load_next` fetches.
    next_group: u32,
    /// The current group; `Some` only while `pos` indexes into it.
    entries: Option<Arc<EntryRun>>,
    pos: usize,
}

impl<S: Storage, A: GroupAccess> PmCursor<'_, S, A> {
    /// Position at the first entry with user key >= `start`, reading
    /// from `group`, which the caller knows no entry at or past `start`
    /// precedes: [`PmTable::scan_range`] searches the prefix layer for
    /// it, level-0 the table's DRAM [`super::GroupFences`]; group 0
    /// reads from the front.
    pub fn seek(
        &mut self,
        group: u32,
        start: &[u8],
        tl: &mut Timeline,
    ) -> Result<GroupLoad, PmTableError> {
        self.next_group = group;
        self.adjacent = false;
        let mut load = GroupLoad::None;
        // The located group can end before `start`; the next one then
        // begins after it.
        loop {
            load = load.max(self.load_next(tl)?);
            let Some(entries) = &self.entries else {
                return Ok(load);
            };
            self.pos = entries.lower_bound(start);
            if self.pos < entries.len() {
                return Ok(load);
            }
        }
    }

    /// Step to the next entry; a no-op once the table is exhausted.
    pub fn advance(&mut self, tl: &mut Timeline) -> Result<GroupLoad, PmTableError> {
        let Some(entries) = &self.entries else {
            return Ok(GroupLoad::None);
        };
        self.pos += 1;
        if self.pos < entries.len() {
            return Ok(GroupLoad::None);
        }
        self.load_next(tl)
    }

    /// The entry under the cursor; `None` before a seek and after the
    /// last entry.
    pub fn current(&self) -> Option<EntryRef<'_>> {
        self.entries.as_ref().map(|entries| entries.get(self.pos))
    }

    /// The group of the entry under the cursor, while there is one.
    pub fn group(&self) -> u32 {
        self.next_group.saturating_sub(1)
    }

    /// Move onto the first entry of the next non-empty group. Reading
    /// sequentially, it decodes into the run it held, which no cache
    /// shares: a compaction input allocates for its largest group, not
    /// for every group.
    fn load_next(&mut self, tl: &mut Timeline) -> Result<GroupLoad, PmTableError> {
        self.pos = 0;
        let mut held = self.entries.take();
        while self.next_group < self.table.group_count {
            let (table, group) = (self.table, self.next_group);
            let loaded = match &self.access {
                Some(access) => table.load_group(group, access, tl),
                None => {
                    let (_, block_len, _, _) = table.gindex(group);
                    if std::mem::replace(&mut self.adjacent, true) {
                        table.storage.meter_sequential(block_len as usize, tl);
                    } else {
                        table.storage.meter_random(block_len as usize, tl);
                    }
                    let decoded = match held.as_mut().and_then(Arc::get_mut) {
                        Some(run) => table.decode_group_into(group, run).and(held.take()),
                        None => table.decode_group(group).map(Arc::new),
                    };
                    decoded.map(|entries| (entries, GroupLoad::Decoded))
                }
            };
            let (entries, load) = loaded.ok_or(PmTableError::Corrupt("group block"))?;
            self.next_group += 1;
            if entries.is_empty() {
                held = Some(entries);
            } else {
                self.entries = Some(entries);
                return Ok(load);
            }
        }
        Ok(GroupLoad::None)
    }
}

/// Hook letting a caller memoize [`PmTable`] group decodes. The cache is
/// scoped to one table by the caller (the key is just the group index);
/// `store` receives the freshly decoded group so hot groups skip prefix
/// reconstruction on later lookups.
pub trait GroupAccess {
    /// A previously stored decode of `group`, if still cached.
    fn lookup(&self, group: u32) -> Option<Arc<EntryRun>>;
    /// Offer a freshly decoded group to the cache (may be dropped).
    fn store(&self, group: u32, entries: Arc<EntryRun>);
}

/// The no-op cache behind the plain [`crate::PmTable::get`] path.
pub struct NoGroupCache;

impl GroupAccess for NoGroupCache {
    fn lookup(&self, _group: u32) -> Option<Arc<EntryRun>> {
        None
    }

    fn store(&self, _group: u32, _entries: Arc<EntryRun>) {}
}

impl<S: Storage> PmTable<S> {
    /// A cursor over this table, unpositioned until its first `seek`.
    /// Groups are fetched through `access`, one at a time, on demand.
    pub fn cursor<A: GroupAccess>(&self, access: A) -> PmCursor<'_, S, A> {
        PmCursor {
            access: Some(access),
            ..self.sequential_cursor()
        }
    }

    /// A cursor that reads the table the way a compaction does, front
    /// to back past every cache: the group a `seek` lands on is one
    /// random PM read, each group after it a sequential read of the
    /// adjacent block, nothing is charged for decoding, and the
    /// decoded-group cache is neither consulted nor filled.
    pub fn sequential_cursor<A: GroupAccess>(&self) -> PmCursor<'_, S, A> {
        PmCursor {
            table: self,
            access: None,
            adjacent: false,
            next_group: self.group_count,
            entries: None,
            pos: 0,
        }
    }
}
