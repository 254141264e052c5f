//! Snappy-style compressed array baselines (Fig 6's "Array-snappy" and
//! "Array-snappy-group").
//!
//! Both reuse the array layout but LZ-compress the payload with
//! [`szip`]. `fig6` is their one caller: it builds a table, opens it
//! and probes it with `get`.
//!
//! - [`SnappyTable`] compresses each record (`key ∥ trailer ∥ value`)
//!   individually: every binary-search probe must decompress the probed
//!   record before comparing, which is why the paper measures its reads at
//!   ≈2.3× the plain array.
//! - [`SnappyGroupTable`] compresses runs of [`GROUP`] records together:
//!   builds are cheaper (one compressor call per group, better ratio), but
//!   a probe must decompress the whole group, making reads the slowest of
//!   the PM-resident formats — matching Fig 6(b).

use encoding::key::{self, SequenceNumber};
use encoding::varint;
use pmtable::{BuildStats, Lookup, OwnedEntry, Storage};
use sim::{SimDuration, Timeline};

use crate::szip;

// The CPU cost of one `szip` call: a per-call setup plus a throughput
// term per KiB (of input when compressing, of output when decompressing).
// LZ compression is what makes these baselines CPU-expensive next to the
// PM table's prefix stripping.
const COMPRESS_BASE: SimDuration = SimDuration::from_nanos(250);
const COMPRESS_PER_KIB: SimDuration = SimDuration::from_nanos(350); // ~2.9 GiB/s
const DECOMPRESS_BASE: SimDuration = SimDuration::from_nanos(200);
const DECOMPRESS_PER_KIB: SimDuration = SimDuration::from_nanos(700); // ~1.4 GiB/s

/// `unit` per KiB over `bytes`, rounded down to the nanosecond.
fn per_kib(unit: SimDuration, bytes: usize) -> SimDuration {
    SimDuration::from_nanos((unit.as_nanos() as u128 * bytes as u128 / 1024) as u64)
}

/// The cost of `calls` compressor calls over `input` bytes in total.
fn compress_cost(calls: usize, input: usize) -> SimDuration {
    COMPRESS_BASE * calls as u64 + per_kib(COMPRESS_PER_KIB, input)
}

const MAGIC_PAIR: u32 = 0x535A_5031; // "SZP1"
const MAGIC_GROUP: u32 = 0x535A_4731; // "SZG1"
const HEADER_LEN: usize = 8;
const META_ROW_LEN: usize = 12;

/// Records per compression group in [`SnappyGroupTable`] (the paper uses
/// eight).
pub const GROUP: usize = 8;

fn encode_record(e: &OwnedEntry) -> Vec<u8> {
    let mut rec = Vec::with_capacity(e.raw_len() + 8);
    varint::put_slice(&mut rec, &e.user_key);
    rec.extend_from_slice(&key::pack_trailer(e.seq, e.kind).to_le_bytes());
    varint::put_slice(&mut rec, &e.value);
    rec
}

fn decode_record(r: &mut varint::Reader<'_>) -> Option<OwnedEntry> {
    let user_key = r.read_slice()?.to_vec();
    let trailer = u64::from_le_bytes(r.read_bytes(8)?.try_into().unwrap());
    let value = r.read_slice()?.to_vec();
    let (seq, kind) = key::unpack_trailer(trailer);
    Some(OwnedEntry {
        user_key,
        seq,
        kind: kind?,
        value,
    })
}

/// Shared encoded form: header | meta rows | blob area.
/// Meta row: `(blob_off u32, comp_len u32, raw_len u32)`.
#[derive(Default)]
struct Encoded {
    meta: Vec<u8>,
    blobs: Vec<u8>,
    rows: u32,
}

impl Encoded {
    fn push(&mut self, raw: &[u8]) -> usize {
        let comp = szip::compress(raw);
        let off = self.blobs.len() as u32;
        self.meta.extend_from_slice(&off.to_le_bytes());
        self.meta
            .extend_from_slice(&(comp.len() as u32).to_le_bytes());
        self.meta
            .extend_from_slice(&(raw.len() as u32).to_le_bytes());
        self.blobs.extend_from_slice(&comp);
        self.rows += 1;
        comp.len()
    }

    fn assemble(self, magic: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.meta.len() + self.blobs.len());
        out.extend_from_slice(&magic.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.meta);
        out.extend_from_slice(&self.blobs);
        out
    }
}

struct Opened<S: Storage> {
    storage: S,
    rows: u32,
    blob_off: usize,
}

impl<S: Storage> Opened<S> {
    fn open(storage: S, magic: u32, what: &'static str) -> Result<Self, String> {
        let data = storage.bytes();
        if data.len() < HEADER_LEN {
            return Err(format!("{what}: truncated"));
        }
        if u32::from_le_bytes(data[0..4].try_into().unwrap()) != magic {
            return Err(format!("{what}: bad magic"));
        }
        let rows = u32::from_le_bytes(data[4..8].try_into().unwrap());
        let blob_off = HEADER_LEN + rows as usize * META_ROW_LEN;
        if blob_off > data.len() {
            return Err(format!("{what}: truncated metadata"));
        }
        Ok(Opened {
            storage,
            rows,
            blob_off,
        })
    }

    fn meta_row(&self, idx: u32) -> (u32, u32, u32) {
        let off = HEADER_LEN + idx as usize * META_ROW_LEN;
        let d = self.storage.bytes();
        (
            u32::from_le_bytes(d[off..off + 4].try_into().unwrap()),
            u32::from_le_bytes(d[off + 4..off + 8].try_into().unwrap()),
            u32::from_le_bytes(d[off + 8..off + 12].try_into().unwrap()),
        )
    }

    /// Read + decompress blob `idx`, metering the PM read and the CPU
    /// decompression.
    fn load_blob(&self, idx: u32, tl: &mut Timeline) -> Vec<u8> {
        let (off, comp_len, raw_len) = self.meta_row(idx);
        self.storage.meter_random(META_ROW_LEN, tl);
        self.storage.meter_random(comp_len as usize, tl);
        tl.charge(DECOMPRESS_BASE + per_kib(DECOMPRESS_PER_KIB, raw_len as usize));
        let start = self.blob_off + off as usize;
        szip::decompress(&self.storage.bytes()[start..start + comp_len as usize])
            .expect("blob written by our builder")
    }
}

// ---------------------------------------------------------------------
// Per-pair variant
// ---------------------------------------------------------------------

/// Builder for [`SnappyTable`].
#[derive(Default)]
pub struct SnappyTableBuilder {
    enc: Encoded,
    raw_bytes: usize,
    last: Option<OwnedEntry>,
    compress_calls: usize,
    compressed_input: usize,
}

impl SnappyTableBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, entry: OwnedEntry) {
        if let Some(prev) = &self.last {
            debug_assert!(prev.internal_cmp(&entry) != std::cmp::Ordering::Greater);
        }
        let rec = encode_record(&entry);
        self.compressed_input += rec.len();
        self.compress_calls += 1;
        self.enc.push(&rec);
        self.raw_bytes += entry.raw_len();
        self.last = Some(entry);
    }

    pub fn finish(self, cost: &sim::CostModel, tl: &mut Timeline) -> (Vec<u8>, BuildStats) {
        // One compressor invocation per record: pay the per-call base every
        // time — the expense the paper calls out for Array-snappy.
        tl.charge(compress_cost(self.compress_calls, self.compressed_input));
        tl.charge(cost.cpu.merge_per_entry * self.enc.rows as u64);
        let entries = self.enc.rows as usize;
        let out = self.enc.assemble(MAGIC_PAIR);
        let stats = BuildStats {
            raw_bytes: self.raw_bytes,
            encoded_bytes: out.len(),
            entries,
        };
        (out, stats)
    }
}

/// Array table with each record compressed individually.
pub struct SnappyTable<S: Storage> {
    inner: Opened<S>,
}

impl<S: Storage> SnappyTable<S> {
    pub fn open(storage: S) -> Result<Self, String> {
        Ok(SnappyTable {
            inner: Opened::open(storage, MAGIC_PAIR, "snappy table")?,
        })
    }

    fn record(&self, idx: u32, tl: &mut Timeline) -> OwnedEntry {
        let raw = self.inner.load_blob(idx, tl);
        decode_record(&mut varint::Reader::new(&raw)).expect("record written by our builder")
    }

    /// Newest entry for `user_key` visible at `snapshot`, if present.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        let cpu = self.inner.storage.cost_model().cpu;
        let (mut lo, mut hi) = (0u32, self.inner.rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            tl.charge(cpu.key_compare);
            // Must decompress the whole record just to see its key.
            if self.record(mid, tl).user_key.as_slice() < user_key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut idx = lo;
        while idx < self.inner.rows {
            let e = self.record(idx, tl);
            if e.user_key != user_key {
                return None;
            }
            if e.seq <= snapshot {
                return Some(Lookup {
                    seq: e.seq,
                    kind: e.kind,
                    value: e.value,
                });
            }
            idx += 1;
        }
        None
    }
}

// ---------------------------------------------------------------------
// Group variant
// ---------------------------------------------------------------------

/// Builder for [`SnappyGroupTable`].
#[derive(Default)]
pub struct SnappyGroupTableBuilder {
    enc: Encoded,
    pending: Vec<OwnedEntry>,
    pending_bytes: usize,
    raw_bytes: usize,
    entries: usize,
    compress_calls: usize,
    compressed_input: usize,
}

impl SnappyGroupTableBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, entry: OwnedEntry) {
        if let Some(prev) = self.pending.last() {
            debug_assert!(prev.internal_cmp(&entry) != std::cmp::Ordering::Greater);
        }
        self.raw_bytes += entry.raw_len();
        self.entries += 1;
        self.pending_bytes += entry.raw_len();
        self.pending.push(entry);
        if self.pending.len() == GROUP {
            self.flush_group();
        }
    }

    fn flush_group(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut raw = Vec::with_capacity(self.pending_bytes + 16);
        varint::put_u32(&mut raw, self.pending.len() as u32);
        for e in &self.pending {
            raw.extend_from_slice(&encode_record(e));
        }
        self.compressed_input += raw.len();
        self.compress_calls += 1;
        self.enc.push(&raw);
        self.pending.clear();
        self.pending_bytes = 0;
    }

    pub fn finish(mut self, cost: &sim::CostModel, tl: &mut Timeline) -> (Vec<u8>, BuildStats) {
        self.flush_group();
        // One compressor call per GROUP records: the per-call base is
        // amortized 8×, the saving the paper credits to group compression.
        tl.charge(compress_cost(self.compress_calls, self.compressed_input));
        tl.charge(cost.cpu.merge_per_entry * self.entries as u64);
        let entries = self.entries;
        let out = self.enc.assemble(MAGIC_GROUP);
        let stats = BuildStats {
            raw_bytes: self.raw_bytes,
            encoded_bytes: out.len(),
            entries,
        };
        (out, stats)
    }
}

/// Array table compressing [`GROUP`] records per blob.
pub struct SnappyGroupTable<S: Storage> {
    inner: Opened<S>,
}

impl<S: Storage> SnappyGroupTable<S> {
    pub fn open(storage: S) -> Result<Self, String> {
        Ok(SnappyGroupTable {
            inner: Opened::open(storage, MAGIC_GROUP, "snappy group table")?,
        })
    }

    fn group(&self, idx: u32, tl: &mut Timeline) -> Vec<OwnedEntry> {
        let raw = self.inner.load_blob(idx, tl);
        let mut r = varint::Reader::new(&raw);
        let count = r.read_u32().expect("group header") as usize;
        (0..count)
            .map(|_| decode_record(&mut r).expect("group record"))
            .collect()
    }

    /// Newest entry for `user_key` visible at `snapshot`, if present.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        let cpu = self.inner.storage.cost_model().cpu;
        // Binary search on groups: each probe decompresses a whole group
        // to read its first key — the cost the paper flags.
        let (mut lo, mut hi) = (0u32, self.inner.rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            tl.charge(cpu.key_compare);
            let group = self.group(mid, tl);
            let first = group.first().map(|e| e.user_key.clone());
            match first {
                Some(k) if k.as_slice() <= user_key => lo = mid + 1,
                _ => hi = mid,
            }
        }
        let mut g = lo.saturating_sub(1);
        while g < self.inner.rows {
            let group = self.group(g, tl);
            let past = group
                .first()
                .map(|e| e.user_key.as_slice() > user_key)
                .unwrap_or(true);
            for e in group {
                tl.charge(cpu.key_compare);
                if e.user_key == user_key && e.seq <= snapshot {
                    return Some(Lookup {
                        seq: e.seq,
                        kind: e.kind,
                        value: e.value,
                    });
                }
            }
            if past {
                return None;
            }
            g += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtable::testutil::index_entries;
    use pmtable::{ArrayTable, ArrayTableBuilder, DramBuf};
    use sim::CostModel;

    fn build_pair(entries: &[OwnedEntry]) -> (SnappyTable<DramBuf>, BuildStats, Timeline) {
        let cost = CostModel::default();
        let mut b = SnappyTableBuilder::new();
        for e in entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, stats) = b.finish(&cost, &mut tl);
        (
            SnappyTable::open(DramBuf::new(bytes, cost)).unwrap(),
            stats,
            tl,
        )
    }

    fn build_group(entries: &[OwnedEntry]) -> (SnappyGroupTable<DramBuf>, BuildStats, Timeline) {
        let cost = CostModel::default();
        let mut b = SnappyGroupTableBuilder::new();
        for e in entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, stats) = b.finish(&cost, &mut tl);
        (
            SnappyGroupTable::open(DramBuf::new(bytes, cost)).unwrap(),
            stats,
            tl,
        )
    }

    /// Every entry of `entries` (unique keys) reads back through `get`.
    fn every_entry_reads_back(
        entries: &[OwnedEntry],
        get: impl Fn(&[u8], &mut Timeline) -> Option<Lookup>,
    ) {
        let mut tl = Timeline::new();
        for e in entries {
            let got = get(&e.user_key, &mut tl).unwrap();
            assert_eq!(
                (got.seq, got.kind, got.value.as_slice()),
                (e.seq, e.kind, &e.value[..])
            );
        }
        assert!(get(b"missing", &mut tl).is_none());
    }

    #[test]
    fn pair_roundtrip() {
        let entries = index_entries(200, 48, 31);
        let (t, stats, _) = build_pair(&entries);
        assert_eq!(stats.entries, 200);
        every_entry_reads_back(&entries, |k, tl| t.get(k, u64::MAX, tl));
    }

    #[test]
    fn group_roundtrip_including_ragged_tail() {
        // 203 entries: last group has 3 records.
        let entries = index_entries(203, 48, 32);
        let (t, stats, _) = build_group(&entries);
        assert_eq!(stats.entries, 203);
        every_entry_reads_back(&entries, |k, tl| t.get(k, u64::MAX, tl));
    }

    #[test]
    fn group_ratio_beats_per_pair_ratio() {
        // Cross-record redundancy (shared key prefixes) is only visible
        // to the group compressor.
        let entries = index_entries(800, 32, 33);
        let (_, pair_stats, _) = build_pair(&entries);
        let (_, group_stats, _) = build_group(&entries);
        assert!(
            group_stats.ratio() < pair_stats.ratio(),
            "group {} vs pair {}",
            group_stats.ratio(),
            pair_stats.ratio()
        );
    }

    #[test]
    fn group_build_cpu_cheaper_than_pair() {
        let entries = index_entries(800, 32, 34);
        let (_, _, pair_tl) = build_pair(&entries);
        let (_, _, group_tl) = build_group(&entries);
        assert!(
            group_tl.elapsed() < pair_tl.elapsed(),
            "group build {} vs pair {}",
            group_tl.elapsed(),
            pair_tl.elapsed()
        );
    }

    #[test]
    fn read_cost_ordering_matches_fig6b() {
        // Paper: array < snappy < snappy-group on read latency.
        let entries = index_entries(2048, 100, 35);
        let cost = CostModel::default();
        let mut ab = ArrayTableBuilder::new();
        for e in &entries {
            ab.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, _) = ab.finish(&cost, &mut tl);
        let arr = ArrayTable::open(DramBuf::new(bytes, cost)).unwrap();
        let (pair, _, _) = build_pair(&entries);
        let (group, _, _) = build_group(&entries);

        let mut t_arr = Timeline::new();
        let mut t_pair = Timeline::new();
        let mut t_group = Timeline::new();
        for e in entries.iter().step_by(67) {
            arr.get(&e.user_key, u64::MAX, &mut t_arr).unwrap();
            pair.get(&e.user_key, u64::MAX, &mut t_pair).unwrap();
            group.get(&e.user_key, u64::MAX, &mut t_group).unwrap();
        }
        assert!(t_arr.elapsed() < t_pair.elapsed());
        assert!(t_pair.elapsed() < t_group.elapsed());
    }

    #[test]
    fn snapshot_semantics_hold() {
        let entries = vec![
            OwnedEntry::value(b"t0:k".to_vec(), 8, b"v8".to_vec()),
            OwnedEntry::value(b"t0:k".to_vec(), 2, b"v2".to_vec()),
        ];
        let (pair, _, _) = build_pair(&entries);
        let (group, _, _) = build_group(&entries);
        let mut tl = Timeline::new();
        assert_eq!(pair.get(b"t0:k", 5, &mut tl).unwrap().value, b"v2");
        assert!(pair.get(b"t0:k", 1, &mut tl).is_none());
        assert_eq!(group.get(b"t0:k", 5, &mut tl).unwrap().value, b"v2");
        assert!(group.get(b"t0:k", 1, &mut tl).is_none());
    }

    #[test]
    fn empty_tables() {
        let (pair, pair_stats, _) = build_pair(&[]);
        let (group, group_stats, _) = build_group(&[]);
        let mut tl = Timeline::new();
        assert!(pair.get(b"x", u64::MAX, &mut tl).is_none());
        assert!(group.get(b"x", u64::MAX, &mut tl).is_none());
        assert_eq!(pair_stats.entries, 0);
        assert_eq!(group_stats.entries, 0);
    }

    #[test]
    fn open_rejects_cross_format() {
        let entries = index_entries(16, 8, 36);
        let cost = CostModel::default();
        let mut b = SnappyTableBuilder::new();
        for e in &entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, _) = b.finish(&cost, &mut tl);
        assert!(SnappyGroupTable::open(DramBuf::new(bytes, cost)).is_err());
    }
}
