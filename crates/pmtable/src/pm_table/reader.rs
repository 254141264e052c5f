//! The read handle: parses the header and the meta layer at open, then
//! serves point lookups and range scans out of the prefix and entry
//! layers.

use std::cmp::Ordering;
use std::sync::Arc;

use encoding::bitpack;
use encoding::bloom::BloomFilter;
use encoding::key::SequenceNumber;
use encoding::prefix::FixedPrefix;
use encoding::varint;
use sim::Timeline;

use super::codec::{decode_delta_block, decode_fixed_block, decode_prefix_block};
use super::{
    GroupAccess, GroupLoad, MetaExtractor, NoGroupCache, PmCursor, CODEC_COUNT, CODEC_DELTA,
    CODEC_FIXED, CODEC_PREFIX, FLAG_CODECS, FLAG_FILTER, GINDEX_ENTRY_LEN, HEADER_LEN, MAGIC,
    PREFIX_WIDTH,
};
use crate::storage::Storage;
use crate::{EntryRun, Lookup, OwnedEntry};

/// One decoded meta-layer row, cached in DRAM by the reader.
#[derive(Clone, Debug)]
struct MetaRow {
    prefix: Vec<u8>,
    first_group: u32,
    group_count: u32,
}

/// Read handle over an encoded PM table.
#[derive(Clone)]
pub struct PmTable<S: Storage> {
    pub(super) storage: S,
    extractor: MetaExtractor,
    entry_count: u32,
    pub(super) group_count: u32,
    prefix_off: u32,
    gindex_off: u32,
    entry_off: u32,
    /// Meta layer rows, decoded once at open. The meta layer is deduped and
    /// tiny by construction — the paper stores it separately precisely so
    /// it stays resident.
    metas: Vec<MetaRow>,
    first_key: Option<Vec<u8>>,
    last_key: Option<Vec<u8>>,
    /// Decoded bloom filter (DRAM-resident, like the meta layer); `None`
    /// for tables built with `filter_bits_per_key = 0`.
    filter: Option<BloomFilter>,
    /// Offset of the per-group codec id array; `None` for all-codec-0
    /// tables (which omit the array).
    pub(super) codecs_off: Option<u32>,
    /// Groups per codec id, tallied once at open.
    codec_hist: [u32; CODEC_COUNT],
}

/// Errors opening a PM table.
#[derive(Debug, PartialEq, Eq)]
pub enum PmTableError {
    BadMagic,
    Truncated,
    Corrupt(&'static str),
}

impl std::fmt::Display for PmTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmTableError::BadMagic => write!(f, "pm table: bad magic"),
            PmTableError::Truncated => write!(f, "pm table: truncated"),
            PmTableError::Corrupt(what) => write!(f, "pm table: corrupt {what}"),
        }
    }
}

impl std::error::Error for PmTableError {}

/// The little-endian `u32` at `bytes[at..at + 4]`, a range the caller
/// has checked.
fn u32_le(bytes: &[u8], at: usize) -> u32 {
    let mut le = [0; 4];
    le.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(le)
}

/// Order of the concatenation `head ‖ tail` relative to `other`, without
/// building it.
#[inline]
fn cmp_concat(head: &[u8], tail: &[u8], other: &[u8]) -> Ordering {
    match other.get(..head.len()) {
        Some(prefix) => head
            .cmp(prefix)
            .then_with(|| tail.cmp(&other[head.len()..])),
        // `other` ends inside `head`, so `head` alone decides.
        None => head.cmp(other),
    }
}

impl<S: Storage> PmTable<S> {
    /// Parse the header and meta layer.
    pub fn open(storage: S) -> Result<Self, PmTableError> {
        let data = storage.bytes();
        if data.len() < HEADER_LEN {
            return Err(PmTableError::Truncated);
        }
        // Every header field read below lies in those `HEADER_LEN` bytes.
        let u32_at = |off: usize| u32_le(data, off);
        if u32_at(0) != MAGIC {
            return Err(PmTableError::BadMagic);
        }
        let entry_count = u32_at(4);
        let group_count = u32_at(8);
        let extractor = MetaExtractor::decode(data[12], data[13])
            .ok_or(PmTableError::Corrupt("extractor tag"))?;
        let meta_off = u32_at(16);
        let prefix_off = u32_at(20);
        let gindex_off = u32_at(24);
        let entry_off = u32_at(28);
        if (entry_off as usize) > data.len()
            || meta_off > prefix_off
            || prefix_off > gindex_off
            || gindex_off > entry_off
        {
            return Err(PmTableError::Corrupt("section offsets"));
        }
        // The prefix layer and the gindex (checked next) hold one row per
        // group: what `prefix_at` and `gindex` index by.
        if (gindex_off - prefix_off) as usize != group_count as usize * PREFIX_WIDTH {
            return Err(PmTableError::Corrupt("prefix section"));
        }
        // Every codec spends at least a byte of the table per entry.
        if entry_count as usize > data.len() {
            return Err(PmTableError::Corrupt("entry count"));
        }
        // Codec section: `group_count` codec id bytes between the gindex
        // and the entry layer (encoding v2).
        let gindex_len = group_count as usize * GINDEX_ENTRY_LEN;
        let mut codec_hist = [0u32; CODEC_COUNT];
        let codecs_off = if data[15] & FLAG_CODECS != 0 {
            let off = gindex_off as usize + gindex_len;
            if entry_off as usize != off + group_count as usize {
                return Err(PmTableError::Corrupt("codec section"));
            }
            for &id in &data[off..entry_off as usize] {
                if id as usize >= CODEC_COUNT {
                    return Err(PmTableError::Corrupt("codec id"));
                }
                codec_hist[id as usize] += 1;
            }
            Some(off as u32)
        } else {
            if entry_off as usize != gindex_off as usize + gindex_len {
                return Err(PmTableError::Corrupt("gindex length"));
            }
            codec_hist[CODEC_PREFIX as usize] = group_count;
            None
        };
        // Filter section: trailing `bloom bytes | filter_len u32`.
        let filter = if data[15] & FLAG_FILTER != 0 {
            // `data` is at least a header long.
            let len_off = data.len() - 4;
            let start = len_off
                .checked_sub(u32_at(len_off) as usize)
                .filter(|&s| s >= entry_off as usize)
                .ok_or(PmTableError::Corrupt("filter section"))?;
            Some(
                BloomFilter::decode(&data[start..len_off])
                    .ok_or(PmTableError::Corrupt("filter bytes"))?,
            )
        } else {
            None
        };
        // Decode meta layer.
        let mut metas = Vec::new();
        {
            let mut r = varint::Reader::new(&data[meta_off as usize..prefix_off as usize]);
            let count = r.read_u32().ok_or(PmTableError::Truncated)?;
            for _ in 0..count {
                let prefix = r.read_slice().ok_or(PmTableError::Truncated)?.to_vec();
                let range = r.read_bytes(8).ok_or(PmTableError::Truncated)?;
                let (first_group, gcount) = (u32_le(range, 0), u32_le(range, 4));
                // A lookup searches the prefix layer over the row's groups.
                if first_group
                    .checked_add(gcount)
                    .is_none_or(|end| end > group_count)
                {
                    return Err(PmTableError::Corrupt("meta row groups"));
                }
                metas.push(MetaRow {
                    prefix,
                    first_group,
                    group_count: gcount,
                });
            }
        }
        let mut table = PmTable {
            storage,
            extractor,
            entry_count,
            group_count,
            prefix_off,
            gindex_off,
            entry_off,
            metas,
            first_key: None,
            last_key: None,
            filter,
            codecs_off,
            codec_hist,
        };
        if group_count > 0 {
            // The two reads count on the device, on nobody's clock.
            let mut scratch = Timeline::new();
            table.meter_group(0, &mut scratch);
            table.meter_group(group_count - 1, &mut scratch);
            let first = table
                .decode_group(0)
                .ok_or(PmTableError::Corrupt("first group"))?;
            let last = table
                .decode_group(group_count - 1)
                .ok_or(PmTableError::Corrupt("last group"))?;
            table.first_key = first.iter().next().map(|e| e.user_key.to_vec());
            table.last_key = last.iter().next_back().map(|e| e.user_key.to_vec());
        }
        Ok(table)
    }

    pub fn group_count(&self) -> u32 {
        self.group_count
    }

    /// Codec id of one group (0 for tables without a codec section).
    pub(super) fn group_codec(&self, group: u32) -> u8 {
        match self.codecs_off {
            // `group < group_count`, the length open found the section has.
            Some(off) => self.storage.bytes()[off as usize + group as usize],
            None => CODEC_PREFIX,
        }
    }

    /// Groups per codec id, tallied at open.
    pub fn codec_histogram(&self) -> [u32; CODEC_COUNT] {
        self.codec_hist
    }

    /// The codec covering the most groups (lowest id wins ties); 0 for
    /// empty tables. Used as the table's summary codec in the manifest
    /// and cost-model accounting.
    pub fn dominant_codec(&self) -> u8 {
        let mut best = 0usize;
        for (id, &n) in self.codec_hist.iter().enumerate() {
            if n > self.codec_hist[best] {
                best = id;
            }
        }
        best as u8
    }

    /// One gindex row: `(block_off, block_len, count, meta_id)`. Here as
    /// in `prefix_at` and `group_codec`, `group < group_count`: callers
    /// walk `0..group_count` or a meta row's groups, which open checked
    /// lie inside it, as it checked that each section holds
    /// `group_count` rows inside the table.
    pub(super) fn gindex(&self, group: u32) -> (u32, u32, u16, u16) {
        let off = self.gindex_off as usize + group as usize * GINDEX_ENTRY_LEN;
        let row = &self.storage.bytes()[off..off + GINDEX_ENTRY_LEN];
        let u16_at = |at: usize| u16::from_le_bytes([row[at], row[at + 1]]);
        (u32_le(row, 0), u32_le(row, 4), u16_at(8), u16_at(10))
    }

    /// One prefix-layer row; `group < group_count` as in `gindex`, and
    /// open checked the layer holds `group_count` rows.
    fn prefix_at(&self, group: u32) -> &[u8] {
        let off = self.prefix_off as usize + group as usize * PREFIX_WIDTH;
        &self.storage.bytes()[off..off + PREFIX_WIDTH]
    }

    /// One group's block of the entry layer, with its entry count and
    /// meta id; `None` when its gindex row points outside the table.
    fn block(&self, group: u32) -> Option<(&[u8], usize, usize)> {
        let (block_off, block_len, count, meta_id) = self.gindex(group);
        let start = self.entry_off as usize + block_off as usize;
        let block = self
            .storage
            .bytes()
            .get(start..start + block_len as usize)?;
        Some((block, count as usize, meta_id as usize))
    }

    /// Meter one random read of a group's block (plus a small per-group
    /// unpack charge for the bit-packed codecs; the branch-light unpack
    /// largely overlaps the PM access, and the block it reads is smaller
    /// than the codec-0 equivalent).
    fn meter_group(&self, group: u32, tl: &mut Timeline) {
        let (_, block_len, _, _) = self.gindex(group);
        self.storage.meter_random(block_len as usize, tl);
        if self.group_codec(group) != CODEC_PREFIX {
            tl.charge(self.storage.cost_model().cpu.key_compare);
        }
    }

    /// Decode every entry of one group. Meters nothing: the caller
    /// charges the block read its access pattern implies.
    pub(super) fn decode_group(&self, group: u32) -> Option<EntryRun> {
        let (block, count, meta_id) = self.block(group)?;
        let meta = &self.metas.get(meta_id)?.prefix;
        match self.group_codec(group) {
            CODEC_DELTA => decode_delta_block(block, count, meta),
            CODEC_FIXED => decode_fixed_block(block, count, meta),
            _ => decode_prefix_block(block, count, meta),
        }
    }

    /// Order of a group's (meta-stripped) first key — its stored LCP
    /// bytes followed by the first entry's remainder — relative to
    /// `rest`, compared piecewise so the key is never materialised.
    pub(super) fn cmp_group_first(&self, group: u32, rest: &[u8]) -> Option<Ordering> {
        let (block, count, _) = self.block(group)?;
        if count == 0 {
            return None;
        }
        let mut r = varint::Reader::new(block);
        let lcp_len = r.read_u32()? as usize;
        let lcp = r.read_bytes(lcp_len)?;
        match self.group_codec(group) {
            CODEC_DELTA => {
                // lcp | w | key_bits | trailer_bits | varint first_rem …
                let w = *r.read_bytes(1)?.first()? as usize;
                let _bits = r.read_bytes(2)?;
                let first_rem = r.read_u64()?.to_be_bytes();
                let krem = first_rem.get(8usize.checked_sub(w)?..)?;
                Some(cmp_concat(lcp, krem, rest))
            }
            CODEC_FIXED => {
                // lcp | vw | value_bits | trailer_bits | varint min_value |
                // varint min_trailer | packed values | packed trailers |
                // first krem.
                let header = r.read_bytes(3)?;
                let (value_bits, trailer_bits) = (header[1] as u32, header[2] as u32);
                let _min_value = r.read_u64()?;
                let _min_trailer = r.read_u64()?;
                let _packed = r.read_bytes(
                    bitpack::packed_len(count, value_bits)
                        + bitpack::packed_len(count, trailer_bits),
                )?;
                let krem_len = r.read_u32()? as usize;
                Some(cmp_concat(lcp, r.read_bytes(krem_len)?, rest))
            }
            _ => {
                let krem_len = r.read_u32()? as usize;
                let _vlen = r.read_u32()?;
                let _trailer = r.read_bytes(8)?;
                Some(cmp_concat(lcp, r.read_bytes(krem_len)?, rest))
            }
        }
    }

    /// The first group of meta `row` that can hold `rest` (a key with
    /// the row's meta prefix stripped): a binary search of the row's
    /// prefix layer for the last group whose leader prefix <= `rest`,
    /// charged one fixed-size PM read per probe, then a step back while
    /// the group's full first key is >= `rest`, one PM read per step.
    /// Fixed-width leaders can tie across groups, and the versions of
    /// one key can straddle a group boundary — internal-key order
    /// stores the newest sequence *first*, so newer versions live in
    /// earlier groups.
    fn locate_group(&self, row: &MetaRow, rest: &[u8], tl: &mut Timeline) -> u32 {
        let probe = FixedPrefix::<PREFIX_WIDTH>::of(rest);
        let cpu = self.storage.cost_model().cpu;
        let base = row.first_group as i64;
        let (mut lo, mut hi) = (base, base + row.group_count as i64);
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.storage.meter_random(PREFIX_WIDTH, tl);
            tl.charge(cpu.key_compare);
            let leader = FixedPrefix::<PREFIX_WIDTH>::of(self.prefix_at(mid as u32));
            if leader <= probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut group = (lo - 1).max(base) as u32;
        while group > row.first_group {
            self.storage.meter_random(32, tl);
            match self.cmp_group_first(group, rest) {
                Some(first) if first.is_ge() => group -= 1,
                _ => break,
            }
        }
        group
    }

    /// Whether the table carries a bloom filter section.
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// DRAM the decoded bloom filter takes; 0 without one.
    pub fn filter_bytes(&self) -> usize {
        self.filter.as_ref().map_or(0, BloomFilter::encoded_len)
    }

    /// The cost model the table's storage charges reads under.
    pub fn cost_model(&self) -> &sim::CostModel {
        self.storage.cost_model()
    }

    /// Probe the bloom filter: `Some(false)` means the key is definitely
    /// absent and the group search can be skipped entirely; `None` means
    /// the table was built without a filter. The filter is DRAM-resident
    /// (decoded at open, like the meta layer), so a probe costs a small
    /// DRAM read, not a PM access.
    ///
    /// Takes the key as its [`BloomFilter::hashes`] pair: a level-0 get
    /// consults one filter per table, and hashes its key once for all.
    pub fn filter_may_contain(&self, hashes: (u64, u64), tl: &mut Timeline) -> Option<bool> {
        let filter = self.filter.as_ref()?;
        tl.charge(self.storage.cost_model().dram.random_read(8));
        Some(filter.may_contain_hashed(hashes))
    }

    /// [`PmTable::get`] with a decoded-group cache: a cache hit replaces
    /// the group block's PM read + prefix reconstruction with one DRAM
    /// read of the same length. Results are byte-identical to the
    /// uncached path — the cache only memoizes `decode_group`.
    pub fn get_with_cache(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
        cache: &dyn GroupAccess,
    ) -> Option<Lookup> {
        let (row, rest) = self.meta_row(user_key, tl)?;
        let group = self.locate_group(row, rest, tl);
        let groups = group..row.first_group + row.group_count;
        self.get_in_groups(groups, rest, user_key, snapshot, tl, cache)
    }

    /// [`PmTable::get_with_cache`] from `group`, which the caller found
    /// without the prefix-layer search: a group at or before the one
    /// holding the newest version of `user_key` (its DRAM
    /// [`crate::GroupFences::group_of`]).
    pub fn get_from_group(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        group: u32,
        tl: &mut Timeline,
        cache: &dyn GroupAccess,
    ) -> Option<Lookup> {
        let (row, rest) = self.meta_row(user_key, tl)?;
        // Every group of an earlier meta row sorts before the key.
        let groups = group.max(row.first_group)..row.first_group + row.group_count;
        self.get_in_groups(groups, rest, user_key, snapshot, tl, cache)
    }

    /// The meta row `user_key` falls in, searched in DRAM, and the key
    /// with the row's meta prefix stripped.
    fn meta_row<'k>(&self, user_key: &'k [u8], tl: &mut Timeline) -> Option<(&MetaRow, &'k [u8])> {
        if self.group_count == 0 {
            return None;
        }
        let (meta, rest) = self.extractor.split(user_key);
        // Meta layer is DRAM-resident; binary search it at DRAM cost.
        let cpu = self.storage.cost_model().cpu;
        tl.charge(cpu.key_compare * (self.metas.len().max(2) as u64).ilog2() as u64);
        let mid = self
            .metas
            .binary_search_by(|row| row.prefix.as_slice().cmp(meta))
            .ok()?;
        Some((&self.metas[mid], rest))
    }

    /// Scan `groups` of one meta row forward from the earliest
    /// candidate; `rest` is the key with the row's meta prefix stripped.
    /// Versions are laid out newest-first, so the first group with a
    /// visible (seq <= snapshot) entry holds the newest visible version.
    fn get_in_groups(
        &self,
        groups: std::ops::Range<u32>,
        rest: &[u8],
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
        cache: &dyn GroupAccess,
    ) -> Option<Lookup> {
        let cpu = self.storage.cost_model().cpu;
        let group = groups.start;
        for g in groups {
            if g > group {
                self.storage.meter_random(32, tl);
                match self.cmp_group_first(g, rest) {
                    Some(first) if first.is_gt() => break,
                    _ => {}
                }
            }
            let (entries, _) = self.load_group(g, cache, tl)?;
            tl.charge(cpu.key_compare * entries.len() as u64);
            if let Some(e) = entries
                .iter()
                .filter(|e| e.user_key == user_key && e.seq <= snapshot)
                .max_by_key(|e| e.seq)
            {
                return Some(Lookup {
                    seq: e.seq,
                    kind: e.kind,
                    value: e.value.to_vec(),
                });
            }
        }
        None
    }

    /// One block scan: served from the decoded-group cache at DRAM
    /// cost, or read from PM (one metered random read), decoded and
    /// offered to the cache. `None` when the block does not decode.
    pub(super) fn load_group<A: GroupAccess + ?Sized>(
        &self,
        group: u32,
        cache: &A,
        tl: &mut Timeline,
    ) -> Option<(Arc<EntryRun>, GroupLoad)> {
        if let Some(cached) = cache.lookup(group) {
            let (_, block_len, _, _) = self.gindex(group);
            tl.charge(
                self.storage
                    .cost_model()
                    .dram
                    .random_read(block_len as usize),
            );
            return Some((cached, GroupLoad::Cached));
        }
        self.meter_group(group, tl);
        let decoded = Arc::new(self.decode_group(group)?);
        cache.store(group, Arc::clone(&decoded));
        Some((decoded, GroupLoad::Decoded))
    }

    /// The first group that can hold an entry with user key >= `start`
    /// (`group_count` when every key sorts before it): the meta row,
    /// then the group search `get` uses — a newer version of `start` may
    /// sit at the tail of the group before the one whose first key
    /// equals it.
    pub(super) fn seek_group(&self, start: &[u8], tl: &mut Timeline) -> u32 {
        if self.first_key.as_deref().is_none_or(|first| first >= start) {
            return 0;
        }
        let (meta, rest) = self.extractor.split(start);
        let start_meta = self
            .metas
            .partition_point(|row| row.prefix.as_slice() < meta);
        match self.metas.get(start_meta) {
            Some(row) if row.prefix.as_slice() == meta => self.locate_group(row, rest, tl),
            Some(row) => row.first_group,
            None => self.group_count,
        }
    }
}

impl<S: Storage> PmTable<S> {
    /// Newest entry for `user_key` visible at `snapshot`, if present.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Option<Lookup> {
        self.get_with_cache(user_key, snapshot, tl, &NoGroupCache)
    }

    /// Number of entries stored.
    pub fn entry_count(&self) -> usize {
        self.entry_count as usize
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
    /// A sequential-cursor pass collected into a `Vec`. A group that
    /// fails to decode ends the result early.
    pub fn scan_all(&self, tl: &mut Timeline) -> Vec<OwnedEntry> {
        let out = Vec::with_capacity(self.entry_count as usize);
        let cursor = self.sequential_cursor::<NoGroupCache>();
        collect(cursor, 0, b"", None, usize::MAX, tl, out)
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

/// Range scan support: the entries with user keys in `[start, end)`
/// (end `None` = unbounded), at most `limit` — a cursor pass collected
/// into a `Vec`. A group that fails to decode ends the result early.
impl<S: Storage> PmTable<S> {
    pub fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        tl: &mut Timeline,
    ) -> Vec<OwnedEntry> {
        let (cursor, group) = (self.cursor(NoGroupCache), self.seek_group(start, tl));
        collect(cursor, group, start, end, limit, tl, Vec::new())
    }
}

/// Append to `out` what `cursor` yields in `[start, end)`, seeking from
/// `group`, at most `limit` entries in all, stepping no further than the
/// last one taken.
fn collect<S: Storage, A: GroupAccess>(
    mut cursor: PmCursor<'_, S, A>,
    group: u32,
    start: &[u8],
    end: Option<&[u8]>,
    limit: usize,
    tl: &mut Timeline,
    mut out: Vec<OwnedEntry>,
) -> Vec<OwnedEntry> {
    if limit == 0 {
        return out;
    }
    let mut step = cursor.seek(group, start, tl);
    while let (Ok(_), Some(e)) = (&step, cursor.current()) {
        if end.is_some_and(|end| e.user_key >= end) {
            break;
        }
        out.push(e.to_owned());
        if out.len() >= limit {
            break;
        }
        step = cursor.advance(tl);
    }
    out
}
