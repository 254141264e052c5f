//! The array-based PM table baseline (MatrixKV-style, §IV-A / Fig 6).
//!
//! Layout: a sorted **data array** of `[user_key][trailer u64][value]`
//! records plus a fixed-stride **metadata array** of
//! `(offset u32, key_len u16, value_len u32)` rows. A point lookup binary
//! searches the metadata; every probe pays **two** dependent PM reads —
//! the metadata row, then the key bytes it points at — which is exactly
//! the access-pattern cost the paper's three-layer structure removes.

use encoding::key::{self, SequenceNumber};
use sim::Timeline;

use crate::storage::Storage;
use crate::{AsEntry, BuildStats, EntryRef, Lookup, OwnedEntry};

const MAGIC: u32 = 0x4152_5442; // "ARTB"
const HEADER_LEN: usize = 8;
const META_ROW_LEN: usize = 10;

/// Builder for [`ArrayTable`]; feed entries in internal-key order.
#[derive(Default)]
pub struct ArrayTableBuilder {
    data: Vec<u8>,
    meta: Vec<u8>,
    raw_bytes: usize,
    count: usize,
    /// Where the last entry's key and trailer sit in `data`.
    last: std::ops::Range<usize>,
}

impl ArrayTableBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, entry: impl AsEntry) {
        let entry = entry.as_entry();
        debug_assert!(
            EntryRef::parse(&self.data[self.last.clone()], &[])
                .is_none_or(|prev| prev.internal_cmp(&entry).is_le()),
            "entries must arrive in internal-key order"
        );
        let off = self.data.len();
        self.meta.extend_from_slice(&(off as u32).to_le_bytes());
        self.meta
            .extend_from_slice(&(entry.user_key.len() as u16).to_le_bytes());
        self.meta
            .extend_from_slice(&(entry.value.len() as u32).to_le_bytes());
        self.data.extend_from_slice(entry.user_key);
        self.data
            .extend_from_slice(&key::pack_trailer(entry.seq, entry.kind).to_le_bytes());
        self.last = off..self.data.len();
        self.data.extend_from_slice(entry.value);
        self.raw_bytes += entry.raw_len();
        self.count += 1;
    }

    pub fn entry_count(&self) -> usize {
        self.count
    }

    /// Encode: header | metadata array | data array. Charges encode CPU.
    pub fn finish(self, cost: &sim::CostModel, tl: &mut Timeline) -> (Vec<u8>, BuildStats) {
        let mut out = Vec::with_capacity(HEADER_LEN + self.meta.len() + self.data.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.count as u32).to_le_bytes());
        out.extend_from_slice(&self.meta);
        out.extend_from_slice(&self.data);
        tl.charge(cost.cpu.encode(self.raw_bytes));
        tl.charge(cost.cpu.merge_per_entry * self.count as u64);
        let stats = BuildStats {
            raw_bytes: self.raw_bytes,
            encoded_bytes: out.len(),
            entries: self.count,
        };
        (out, stats)
    }
}

/// Read handle over an encoded array table.
#[derive(Clone)]
pub struct ArrayTable<S: Storage> {
    storage: S,
    count: u32,
    data_off: usize,
    first_key: Option<Vec<u8>>,
    last_key: Option<Vec<u8>>,
}

impl<S: Storage> ArrayTable<S> {
    pub fn open(storage: S) -> Result<Self, &'static str> {
        let data = storage.bytes();
        if data.len() < HEADER_LEN {
            return Err("array table: truncated");
        }
        if u32::from_le_bytes(data[0..4].try_into().unwrap()) != MAGIC {
            return Err("array table: bad magic");
        }
        let count = u32::from_le_bytes(data[4..8].try_into().unwrap());
        let data_off = HEADER_LEN + count as usize * META_ROW_LEN;
        if data_off > data.len() {
            return Err("array table: truncated metadata");
        }
        let mut t = ArrayTable {
            storage,
            count,
            data_off,
            first_key: None,
            last_key: None,
        };
        if count > 0 {
            let mut noop = Timeline::new();
            t.first_key = Some(t.read_entry(0, &mut noop).user_key);
            t.last_key = Some(t.read_entry(count - 1, &mut noop).user_key);
        }
        Ok(t)
    }

    #[inline]
    fn meta_row(&self, idx: u32) -> (u32, u16, u32) {
        let off = HEADER_LEN + idx as usize * META_ROW_LEN;
        let d = self.storage.bytes();
        (
            u32::from_le_bytes(d[off..off + 4].try_into().unwrap()),
            u16::from_le_bytes(d[off + 4..off + 6].try_into().unwrap()),
            u32::from_le_bytes(d[off + 6..off + 10].try_into().unwrap()),
        )
    }

    /// Read the key bytes of entry `idx`, paying the two dependent PM
    /// accesses (metadata row, then key).
    fn probe_key(&self, idx: u32, tl: &mut Timeline) -> &[u8] {
        let (off, klen, _) = self.meta_row(idx);
        self.storage.meter_random(META_ROW_LEN, tl);
        self.storage.meter_random(klen as usize + 8, tl);
        let start = self.data_off + off as usize;
        &self.storage.bytes()[start..start + klen as usize]
    }

    fn read_entry(&self, idx: u32, tl: &mut Timeline) -> OwnedEntry {
        let (off, klen, vlen) = self.meta_row(idx);
        let start = self.data_off + off as usize;
        let d = self.storage.bytes();
        let user_key = d[start..start + klen as usize].to_vec();
        let tstart = start + klen as usize;
        let trailer = u64::from_le_bytes(d[tstart..tstart + 8].try_into().unwrap());
        let (seq, kind) = key::unpack_trailer(trailer);
        let value = d[tstart + 8..tstart + 8 + vlen as usize].to_vec();
        self.storage
            .meter_sequential(klen as usize + 8 + vlen as usize, tl);
        OwnedEntry {
            user_key,
            seq,
            kind: kind.expect("valid kind"),
            value,
        }
    }

    /// Index of the first entry with user key >= `user_key`.
    fn lower_bound(&self, user_key: &[u8], tl: &mut Timeline) -> u32 {
        let cpu = self.storage.cost_model().cpu;
        let (mut lo, mut hi) = (0u32, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            tl.charge(cpu.key_compare);
            if self.probe_key(mid, tl) < user_key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<S: Storage> ArrayTable<S> {
    /// A cursor over this table, unpositioned until its first `seek`.
    pub fn cursor(&self) -> ArrayCursor<'_, S> {
        ArrayCursor {
            table: self,
            idx: self.count,
            whole_table: false,
        }
    }

    /// A cursor that reads the whole table front to back, as a
    /// compaction does: its `seek` lands on the first entry whatever
    /// the key, for one metadata-row read instead of a binary search.
    pub fn scan_cursor(&self) -> ArrayCursor<'_, S> {
        ArrayCursor {
            whole_table: true,
            ..self.cursor()
        }
    }
}

/// A forward cursor over one [`ArrayTable`], borrowing each entry from
/// the table's storage.
pub struct ArrayCursor<'a, S: Storage> {
    table: &'a ArrayTable<S>,
    idx: u32,
    /// See [`ArrayTable::scan_cursor`].
    whole_table: bool,
}

impl<'a, S: Storage> ArrayCursor<'a, S> {
    /// Position at the first entry with user key >= `start`.
    pub fn seek(&mut self, start: &[u8], tl: &mut Timeline) -> Result<(), &'static str> {
        self.idx = if !self.whole_table {
            self.table.lower_bound(start, tl)
        } else {
            if self.table.count > 0 {
                self.table.storage.meter_random(META_ROW_LEN, tl);
            }
            0
        };
        self.land(tl)
    }

    /// Step to the next entry; a no-op once the table is exhausted.
    pub fn advance(&mut self, tl: &mut Timeline) -> Result<(), &'static str> {
        if self.idx >= self.table.count {
            return Ok(());
        }
        self.idx += 1;
        self.land(tl)
    }

    /// One sequential PM read of the entry the cursor moved onto, which
    /// must parse: `current` then yields `None` only past the end.
    fn land(&mut self, tl: &mut Timeline) -> Result<(), &'static str> {
        if self.idx >= self.table.count {
            return Ok(());
        }
        let (_, klen, vlen) = self.table.meta_row(self.idx);
        self.table
            .storage
            .meter_sequential(klen as usize + 8 + vlen as usize, tl);
        if self.current().is_none() {
            self.idx = self.table.count;
            return Err("array table: corrupt entry");
        }
        Ok(())
    }

    /// The entry under the cursor; `None` before a seek and after the
    /// last entry.
    pub fn current(&self) -> Option<EntryRef<'a>> {
        if self.idx >= self.table.count {
            return None;
        }
        let (off, klen, vlen) = self.table.meta_row(self.idx);
        let start = self.table.data_off + off as usize;
        let value_at = start + klen as usize + 8;
        let d = self.table.storage.bytes();
        EntryRef::parse(
            d.get(start..value_at)?,
            d.get(value_at..value_at + vlen as usize)?,
        )
    }
}

impl<S: Storage> ArrayTable<S> {
    /// Newest entry for `user_key` visible at `snapshot`, if present.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        let mut idx = self.lower_bound(user_key, tl);
        // Versions of one key are adjacent, newest first; walk forward to
        // the first one at or below the snapshot.
        while idx < self.count {
            let entry = self.read_entry(idx, tl);
            if entry.user_key != user_key {
                return None;
            }
            if entry.seq <= snapshot {
                return Some(Lookup {
                    seq: entry.seq,
                    kind: entry.kind,
                    value: entry.value,
                });
            }
            idx += 1;
        }
        None
    }

    /// Number of entries stored.
    pub fn entry_count(&self) -> usize {
        self.count as usize
    }

    /// The medium the table's bytes live in.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.storage.bytes().len()
    }

    /// Every entry in internal-key order, metering reads.
    ///
    /// A [`ArrayTable::scan_cursor`] pass collected into a `Vec`. An
    /// entry that does not parse ends the result early.
    pub fn scan_all(&self, tl: &mut Timeline) -> Vec<OwnedEntry> {
        let mut out = Vec::with_capacity(self.count as usize);
        let mut cursor = self.scan_cursor();
        let mut step = cursor.seek(b"", tl);
        while let (Ok(()), Some(e)) = (step, cursor.current()) {
            out.push(e.to_owned());
            step = cursor.advance(tl);
        }
        out
    }

    /// Smallest user key, if non-empty.
    pub fn first_user_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Largest user key, if non-empty.
    pub fn last_user_key(&self) -> Option<&[u8]> {
        self.last_key.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm_table::{CodecMode, MetaExtractor, PmTable, PmTableBuilder, PmTableOptions};
    use crate::storage::DramBuf;
    use crate::testutil::index_entries;
    use sim::CostModel;

    fn build(entries: &[OwnedEntry]) -> ArrayTable<DramBuf> {
        let cost = CostModel::default();
        let mut b = ArrayTableBuilder::new();
        for e in entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, _) = b.finish(&cost, &mut tl);
        ArrayTable::open(DramBuf::new(bytes, cost)).unwrap()
    }

    #[test]
    fn empty_table() {
        let t = build(&[]);
        let mut tl = Timeline::new();
        assert_eq!(t.entry_count(), 0);
        assert!(t.get(b"x", u64::MAX, &mut tl).is_none());
        assert!(t.scan_all(&mut tl).is_empty());
    }

    #[test]
    fn get_and_scan_roundtrip() {
        let entries = index_entries(400, 32, 21);
        let t = build(&entries);
        let mut tl = Timeline::new();
        for e in entries.iter().step_by(7) {
            let hit = t.get(&e.user_key, u64::MAX, &mut tl).unwrap();
            assert_eq!(hit.value, e.value);
        }
        assert_eq!(t.scan_all(&mut tl), entries);
    }

    #[test]
    fn a_full_scan_charges_one_metadata_read_then_every_entry_in_sequence() {
        // What a MatrixKV column compaction has always paid per row: no
        // binary search, whatever key the scan cursor is sent to.
        let entries = index_entries(400, 32, 21);
        let t = build(&entries);
        let dram = CostModel::default().dram;
        let rows = entries.iter().map(|e| dram.sequential_read(e.raw_len()));
        let expect = rows.fold(dram.random_read(META_ROW_LEN), |sum, row| sum + row);
        let mut tl = Timeline::new();
        assert_eq!(t.scan_all(&mut tl), entries);
        assert_eq!(tl.elapsed(), expect);
        let (mut tl, mut cursor) = (Timeline::new(), t.scan_cursor());
        cursor.seek(b"zzz", &mut tl).unwrap();
        while cursor.current().is_some() {
            cursor.advance(&mut tl).unwrap();
        }
        assert_eq!(tl.elapsed(), expect);
    }

    #[test]
    fn snapshot_visibility() {
        let entries = vec![
            OwnedEntry::value(b"k".to_vec(), 9, b"new".to_vec()),
            OwnedEntry::value(b"k".to_vec(), 3, b"old".to_vec()),
        ];
        let t = build(&entries);
        let mut tl = Timeline::new();
        assert_eq!(t.get(b"k", 9, &mut tl).unwrap().value, b"new");
        assert_eq!(t.get(b"k", 8, &mut tl).unwrap().value, b"old");
        assert!(t.get(b"k", 2, &mut tl).is_none());
    }

    #[test]
    fn miss_between_keys() {
        let entries = vec![
            OwnedEntry::value(b"a".to_vec(), 1, b"1".to_vec()),
            OwnedEntry::value(b"c".to_vec(), 2, b"2".to_vec()),
        ];
        let t = build(&entries);
        let mut tl = Timeline::new();
        assert!(t.get(b"b", u64::MAX, &mut tl).is_none());
        assert!(t.get(b"0", u64::MAX, &mut tl).is_none());
        assert!(t.get(b"z", u64::MAX, &mut tl).is_none());
    }

    #[test]
    fn probe_pays_two_pm_reads_vs_pm_table_one() {
        // The paper's core claim for the three-layer structure: fewer PM
        // random accesses per lookup than the array layout.
        let entries = index_entries(4096, 100, 22);
        let cost = CostModel::default();

        let arr = build(&entries);
        let mut b = PmTableBuilder::new(PmTableOptions {
            group_size: 16,
            extractor: MetaExtractor::Delimiter(b':'),
            filter_bits_per_key: 0,
            codec: CodecMode::Prefix,
        });
        for e in &entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, _) = b.finish(&cost, &mut tl);
        let pmt = PmTable::open(DramBuf::new(bytes, cost)).unwrap();

        let mut t_arr = Timeline::new();
        let mut t_pm = Timeline::new();
        for e in entries.iter().step_by(97) {
            assert!(arr.get(&e.user_key, u64::MAX, &mut t_arr).is_some());
            assert!(pmt.get(&e.user_key, u64::MAX, &mut t_pm).is_some());
        }
        assert!(
            t_pm.elapsed() < t_arr.elapsed(),
            "pm table {} should beat array {}",
            t_pm.elapsed(),
            t_arr.elapsed()
        );
    }

    #[test]
    fn cursor_seeks_before_between_and_past() {
        let entries = index_entries(100, 8, 24);
        let t = build(&entries);
        let drain_from = |table: &ArrayTable<DramBuf>, start: &[u8]| {
            let mut tl = Timeline::new();
            let mut cursor = table.cursor();
            assert!(cursor.current().is_none(), "unpositioned before a seek");
            cursor.seek(start, &mut tl).unwrap();
            let mut out = Vec::new();
            while let Some(e) = cursor.current() {
                out.push(e.to_owned());
                cursor.advance(&mut tl).unwrap();
            }
            out
        };
        assert_eq!(drain_from(&t, b""), entries);
        assert_eq!(drain_from(&t, &entries[40].user_key), entries[40..]);
        let mut between = entries[40].user_key.clone();
        between.push(0);
        assert_eq!(drain_from(&t, &between), entries[41..]);
        assert!(drain_from(&t, b"zzzz").is_empty());
        assert!(drain_from(&build(&[]), b"").is_empty());
    }

    #[test]
    fn open_rejects_garbage() {
        let cost = CostModel::default();
        assert!(ArrayTable::open(DramBuf::new(vec![1, 2], cost)).is_err());
        assert!(ArrayTable::open(DramBuf::new(vec![0xAB; 16], cost)).is_err());
    }

    #[test]
    fn array_encodes_larger_than_pm_table_on_prefixed_keys() {
        let entries = index_entries(1000, 24, 23);
        let cost = CostModel::default();
        let mut tl = Timeline::new();
        let mut ab = ArrayTableBuilder::new();
        let mut pb = PmTableBuilder::new(PmTableOptions {
            group_size: 16,
            extractor: MetaExtractor::Delimiter(b':'),
            filter_bits_per_key: 0,
            codec: CodecMode::Prefix,
        });
        for e in &entries {
            ab.add(e.clone());
            pb.add(e.clone());
        }
        let (_, astats) = ab.finish(&cost, &mut tl);
        let (_, pstats) = pb.finish(&cost, &mut tl);
        assert!(pstats.encoded_bytes < astats.encoded_bytes);
    }
}
