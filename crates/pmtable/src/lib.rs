//! Level-0 table formats for PM-Blade.
//!
//! This crate implements the paper's compressed **PM table** (§IV-A) and
//! the array table the engine's MatrixKV mode stores:
//!
//! - [`pm_table::PmTable`] — three-layer meta / prefix / entry structure
//!   with group prefix compression;
//! - [`array_table::ArrayTable`] — plain sorted data array + metadata
//!   offsets, no compression (MatrixKV-style).
//!
//! Fig 6's two snappy-compressed array baselines live beside their one
//! caller, in the `bench` crate.
//!
//! Both formats store *internal* entries (user key, sequence, kind, value)
//! in internal-key order, read from any [`Storage`] (simulated PM or a
//! DRAM buffer), and meter every access to a [`sim::Timeline`].
//!
//! Three types say "entry": [`EntryRef`] borrows one — what every cursor
//! yields and every builder takes; [`EntryRun`] holds a run of them in
//! one buffer — what the PM table builder buffers and what a PM table
//! group decodes into; [`OwnedEntry`] owns one, for results that outlive
//! their table (`scan_all`, `scan_range`) and for tests.

pub mod array_table;
pub mod pm_table;
pub mod storage;

pub use array_table::ArrayCursor;
pub use array_table::{ArrayTable, ArrayTableBuilder};
pub use pm_table::{
    CodecMode, GroupAccess, GroupFences, GroupLoad, MergedColumn, MetaExtractor, NoGroupCache,
    PmCursor, PmTable, PmTableBuilder, PmTableError, PmTableOptions, TableKeys, CODEC_COUNT,
    CODEC_DELTA, CODEC_FIXED, CODEC_NAMES, CODEC_PREFIX,
};
pub use storage::{DramBuf, Storage};

use encoding::key::{KeyKind, SequenceNumber};

/// A fully materialized table entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OwnedEntry {
    pub user_key: Vec<u8>,
    pub seq: SequenceNumber,
    pub kind: KeyKind,
    pub value: Vec<u8>,
}

impl OwnedEntry {
    pub fn value(
        user_key: impl Into<Vec<u8>>,
        seq: SequenceNumber,
        value: impl Into<Vec<u8>>,
    ) -> Self {
        OwnedEntry {
            user_key: user_key.into(),
            seq,
            kind: KeyKind::Value,
            value: value.into(),
        }
    }

    pub fn tombstone(user_key: impl Into<Vec<u8>>, seq: SequenceNumber) -> Self {
        OwnedEntry {
            user_key: user_key.into(),
            seq,
            kind: KeyKind::Delete,
            value: Vec::new(),
        }
    }

    /// Internal-key ordering: user key ascending, sequence descending.
    pub fn internal_cmp(&self, other: &OwnedEntry) -> std::cmp::Ordering {
        self.as_ref().internal_cmp(&other.as_ref())
    }

    /// Approximate in-memory footprint of this entry.
    pub fn raw_len(&self) -> usize {
        self.as_ref().raw_len()
    }

    pub fn as_ref(&self) -> EntryRef<'_> {
        EntryRef {
            user_key: &self.user_key,
            seq: self.seq,
            kind: self.kind,
            value: &self.value,
        }
    }
}

/// A borrowed view of one entry: what every table cursor yields, so a
/// merge can compare and skip entries without materializing them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EntryRef<'a> {
    pub user_key: &'a [u8],
    pub seq: SequenceNumber,
    pub kind: KeyKind,
    pub value: &'a [u8],
}

impl<'a> EntryRef<'a> {
    /// Bytes of key, trailer and value: what [`OwnedEntry::raw_len`]
    /// reports for the same entry.
    pub fn raw_len(&self) -> usize {
        self.user_key.len() + 8 + self.value.len()
    }

    /// Internal-key ordering: user key ascending, sequence descending.
    pub fn internal_cmp(&self, other: &EntryRef<'_>) -> std::cmp::Ordering {
        self.user_key
            .cmp(other.user_key)
            .then(other.seq.cmp(&self.seq))
    }

    /// View an encoded internal key and its value. `None` when the key
    /// is shorter than its trailer or the trailer's kind byte is unknown.
    pub fn parse(ikey: &'a [u8], value: &'a [u8]) -> Option<Self> {
        if ikey.len() < 8 {
            return None;
        }
        Some(EntryRef {
            user_key: encoding::key::user_key(ikey),
            seq: encoding::key::sequence(ikey),
            kind: encoding::key::kind(ikey)?,
            value,
        })
    }

    pub fn to_owned(&self) -> OwnedEntry {
        OwnedEntry {
            user_key: self.user_key.to_vec(),
            seq: self.seq,
            kind: self.kind,
            value: self.value.to_vec(),
        }
    }
}

/// A run of entries in one buffer: keys and values back to back in
/// `arena`, one slot per entry. What the PM table builder buffers
/// and what a decoded PM table group is — two allocations per run,
/// none per entry — handing out [`EntryRef`]s like every cursor does.
#[derive(Default, Debug)]
pub struct EntryRun {
    arena: Vec<u8>,
    slots: Vec<Slot>,
}

/// Bytes an [`EntryRun`]'s arena may hold: its slots keep 32-bit
/// offsets. A table build buffers the whole table in one run, so the
/// engine refuses options under which one table could reach it.
pub const MAX_RUN_BYTES: usize = u32::MAX as usize;

/// Where one entry sits in the arena: 24 bytes.
#[derive(Debug)]
struct Slot {
    /// Offset of the key; the value follows it and runs to the next
    /// slot's key (or the end of the arena).
    at: u32,
    key_len: u32,
    seq: SequenceNumber,
    kind: KeyKind,
}

impl EntryRun {
    /// An empty run with room for `entries` entries of `bytes` key and
    /// value bytes in all.
    pub fn with_capacity(entries: usize, bytes: usize) -> Self {
        EntryRun {
            arena: Vec::with_capacity(bytes),
            slots: Vec::with_capacity(entries),
        }
    }

    /// Make room for `entries` more entries of `bytes` more key and
    /// value bytes: on an empty run, exactly what
    /// [`EntryRun::with_capacity`] allocates.
    pub(crate) fn reserve(&mut self, entries: usize, bytes: usize) {
        self.arena.reserve_exact(bytes);
        self.slots.reserve_exact(entries);
    }

    /// Drop every entry, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.slots.clear();
    }

    /// Append an entry whose user key is the concatenation of `key`'s
    /// pieces (a decoder has it as meta ‖ group prefix ‖ remainder).
    /// Panics when the entry would start past [`MAX_RUN_BYTES`].
    pub fn push(&mut self, key: &[&[u8]], seq: SequenceNumber, kind: KeyKind, value: &[u8]) {
        let at = self.arena.len();
        for piece in key {
            self.arena.extend_from_slice(piece);
        }
        let key_len = self.arena.len() - at;
        self.arena.extend_from_slice(value);
        let offset = |n: usize| u32::try_from(n).expect("an entry run holds under 4 GiB");
        self.slots.push(Slot {
            at: offset(at),
            key_len: offset(key_len),
            seq,
            kind,
        });
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `i`th entry, viewed in the arena. Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> EntryRef<'_> {
        let slot = &self.slots[i];
        let end = self
            .slots
            .get(i + 1)
            .map_or(self.arena.len(), |s| s.at as usize);
        let (user_key, value) = self.arena[slot.at as usize..end].split_at(slot.key_len as usize);
        EntryRef {
            user_key,
            seq: slot.seq,
            kind: slot.kind,
            value,
        }
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = EntryRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Index of the first entry whose user key is not below `user_key`
    /// (`len()` when every key is), by binary search: the run must be
    /// in key order.
    pub fn lower_bound(&self, user_key: &[u8]) -> usize {
        self.slots.partition_point(|s| {
            let at = s.at as usize;
            &self.arena[at..at + s.key_len as usize] < user_key
        })
    }

    /// What a cache holding this run charges its byte budget: the key
    /// and value bytes, one 24-byte slot per entry, and 64 bytes for the
    /// run itself (its two vector headers and the `Arc` counts around
    /// it).
    pub fn charge(&self) -> usize {
        64 + self.arena.len() + std::mem::size_of::<Slot>() * self.slots.len()
    }
}

/// An entry a table builder can copy from, owned or borrowed: builders
/// take the bytes out of the view and never keep the entry.
pub trait AsEntry {
    fn as_entry(&self) -> EntryRef<'_>;
}

impl AsEntry for OwnedEntry {
    fn as_entry(&self) -> EntryRef<'_> {
        self.as_ref()
    }
}

impl AsEntry for EntryRef<'_> {
    fn as_entry(&self) -> EntryRef<'_> {
        *self
    }
}

impl<T: AsEntry> AsEntry for &T {
    fn as_entry(&self) -> EntryRef<'_> {
        (*self).as_entry()
    }
}

/// Result of a point lookup in any table format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lookup {
    pub seq: SequenceNumber,
    pub kind: KeyKind,
    pub value: Vec<u8>,
}

impl Lookup {
    /// The value if this is a live entry, `None` for a tombstone.
    pub fn into_value(self) -> Option<Vec<u8>> {
        match self.kind {
            KeyKind::Value => Some(self.value),
            KeyKind::Delete => None,
        }
    }
}

/// Statistics from building one table.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BuildStats {
    /// Bytes of raw input (keys + trailers + values).
    pub raw_bytes: usize,
    /// Bytes of the encoded table.
    pub encoded_bytes: usize,
    /// Number of entries.
    pub entries: usize,
}

impl BuildStats {
    /// Encoded / raw size; below 1.0 means the format compressed.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// Deterministic fixtures for this workspace's tests (the pinned
/// table-byte checksums in `pmtable` and `sstable` share one input).
#[doc(hidden)]
pub mod testutil {
    use super::*;
    use sim::Pcg64;

    /// Generate `n` sorted unique entries shaped like the paper's index
    /// tables: `t{table:04}:{key:010}` with shared prefixes.
    pub fn index_entries(n: usize, value_len: usize, seed: u64) -> Vec<OwnedEntry> {
        let mut rng = Pcg64::seeded(seed);
        let mut entries: Vec<OwnedEntry> = (0..n)
            .map(|i| {
                let table = i % 4;
                let key = format!("t{:04}:{:010}", table, i * 7 + 13);
                let mut value = vec![0u8; value_len];
                rng.fill_bytes(&mut value);
                OwnedEntry::value(key.into_bytes(), (i as u64 % 100) + 1, value)
            })
            .collect();
        entries.sort_by(|a, b| a.internal_cmp(b));
        entries
    }
}
