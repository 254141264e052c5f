//! SSTable builder and reader.
//!
//! File layout:
//!
//! ```text
//! [data block]* [bloom block] [index block] [footer (28 bytes)]
//! footer: bloom_off u64 | bloom_len u32 | index_off u64 | index_len u32 |
//!         magic u32
//! ```
//!
//! The index block maps each data block's last internal key to
//! `(offset u64, len u32)`. The bloom block is the table's
//! [`BloomFilter`], `ceil(distinct keys × bits_per_key / 512)` lines.
//! Reads go: bloom check (one DRAM line once loaded) → index binary
//! search (DRAM) → data block fetch (block cache or SSD) → in-block
//! restart search (DRAM). A compaction reads its inputs in
//! file order past the block cache ([`SsTable::sequential_cursor`]).

use std::sync::Arc;

use encoding::key::{self, KeyKind, SequenceNumber};
use encoding::varint;
use pmtable::EntryRef;
use sim::Timeline;
use ssd_device::{SsdDevice, SsdError, SsdFile};

use crate::block::{Block, BlockBuilder, InlineKey, KeyBuf};
use crate::bloom::BloomFilter;
use crate::cache::{table_id, BlockCache, CacheKey};

const FOOTER_LEN: usize = 8 + 4 + 8 + 4 + 4;
const MAGIC: u32 = 0x5353_5442; // "SSTB"

/// A raw `(encoded internal key, value)` pair.
pub type RawEntry = (Vec<u8>, Vec<u8>);
/// `(file size, smallest user key, largest user key)` from a builder.
pub type TableSummary = (u64, Option<Vec<u8>>, Option<Vec<u8>>);
/// `(sequence, kind, value)` from a point lookup.
pub type VersionedValue = (SequenceNumber, KeyKind, Vec<u8>);

/// Build-time knobs.
#[derive(Clone, Copy, Debug)]
pub struct SsTableOptions {
    /// Data block target size in bytes (RocksDB default 4 KiB).
    pub block_size: usize,
    /// Bloom bits per key; 0 disables the filter.
    pub bloom_bits_per_key: usize,
}

impl Default for SsTableOptions {
    fn default() -> Self {
        SsTableOptions {
            block_size: 4096,
            bloom_bits_per_key: 10,
        }
    }
}

/// Streaming SSTable builder writing through an [`ssd_device::SsdWriter`].
/// `add` copies an entry's bytes once, into the block being built, and
/// allocates nothing per entry: the internal key is assembled in a
/// reused buffer and the filter remembers a hash pair per key.
pub struct SsTableBuilder {
    opts: SsTableOptions,
    writer: ssd_device::SsdWriter,
    current: BlockBuilder,
    index: Vec<(Vec<u8>, u64, u32)>,
    /// [`BloomFilter::hashes`] of every distinct user key.
    key_hashes: Vec<(u64, u64)>,
    entries: usize,
    first_key: Option<Vec<u8>>,
    /// Encoded internal key of the last entry added.
    ikey: Vec<u8>,
    raw_bytes: usize,
    cost: sim::CostModel,
}

impl SsTableBuilder {
    pub fn new(
        device: &Arc<SsdDevice>,
        name: impl Into<String>,
        opts: SsTableOptions,
    ) -> Result<Self, SsdError> {
        Ok(SsTableBuilder {
            opts,
            writer: device.create(name)?,
            current: BlockBuilder::new(),
            index: Vec::new(),
            key_hashes: Vec::new(),
            entries: 0,
            first_key: None,
            ikey: Vec::new(),
            raw_bytes: 0,
            cost: *device.cost_model(),
        })
    }

    /// Append an entry; must arrive in internal-key order.
    pub fn add(
        &mut self,
        user_key: &[u8],
        seq: SequenceNumber,
        kind: KeyKind,
        value: &[u8],
        tl: &mut Timeline,
    ) {
        if self.entries == 0 {
            self.first_key = Some(user_key.to_vec());
        }
        // Adjacent versions of one user key share a filter entry.
        let new_key = self.entries == 0 || key::user_key(&self.ikey) != user_key;
        if self.opts.bloom_bits_per_key > 0 && new_key {
            self.key_hashes.push(BloomFilter::hashes(user_key));
        }
        self.ikey.clear();
        self.ikey.extend_from_slice(user_key);
        self.ikey
            .extend_from_slice(&key::pack_trailer(seq, kind).to_le_bytes());
        self.raw_bytes += self.ikey.len() + value.len();
        self.current.add(&self.ikey, value);
        self.entries += 1;
        if self.current.size() >= self.opts.block_size {
            self.finish_block(tl);
        }
    }

    fn finish_block(&mut self, tl: &mut Timeline) {
        if self.current.is_empty() {
            return;
        }
        let last_key = self.current.last_key().to_vec();
        let off = self.writer.offset();
        let len = self.current.finish_with(|raw| {
            self.writer.append(raw);
            raw.len()
        });
        tl.charge(self.cost.cpu.encode(len));
        self.index.push((last_key, off, len as u32));
        // One device write per block flush: this is the paper's S3 stage.
        self.writer.flush(tl);
    }

    pub fn entries(&self) -> usize {
        self.entries
    }

    pub fn estimated_size(&self) -> u64 {
        self.writer.offset() + self.current.size() as u64
    }

    /// Seal the table: bloom block, index block, footer, fsync.
    /// Returns `(file size, smallest key, largest key)`.
    pub fn finish(mut self, tl: &mut Timeline) -> Result<TableSummary, SsdError> {
        self.finish_block(tl);
        let bloom_off = self.writer.offset();
        let (distinct, bits_per_key) = (self.key_hashes.len(), self.opts.bloom_bits_per_key);
        let bloom = BloomFilter::build_hashed(self.key_hashes, distinct, bits_per_key);
        let mut bloom_raw = Vec::new();
        bloom.encode_into(&mut bloom_raw);
        self.writer.append(&bloom_raw);
        let index_off = bloom_off + bloom_raw.len() as u64;
        let mut index_raw = Vec::new();
        varint::put_u32(&mut index_raw, self.index.len() as u32);
        for (last_key, off, len) in &self.index {
            varint::put_slice(&mut index_raw, last_key);
            index_raw.extend_from_slice(&off.to_le_bytes());
            index_raw.extend_from_slice(&len.to_le_bytes());
        }
        self.writer.append(&index_raw);
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&(bloom_raw.len() as u32).to_le_bytes());
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index_raw.len() as u32).to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        self.writer.append(&footer);
        let size = self.writer.finish(tl)?;
        let last_key = (self.entries > 0).then(|| key::user_key(&self.ikey).to_vec());
        Ok((size, self.first_key, last_key))
    }
}

/// Errors opening or reading an SSTable.
#[derive(Debug)]
pub enum TableError {
    Ssd(SsdError),
    Corrupt(&'static str),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Ssd(e) => write!(f, "sstable io: {e}"),
            TableError::Corrupt(what) => write!(f, "sstable corrupt: {what}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<SsdError> for TableError {
    fn from(e: SsdError) -> Self {
        TableError::Ssd(e)
    }
}

/// Read handle over one SSTable.
pub struct SsTable {
    file: SsdFile,
    id: u64,
    cache: Arc<BlockCache>,
    bloom: BloomFilter,
    /// (last internal key, offset, len) per data block, DRAM-resident.
    index: Vec<(Vec<u8>, u64, u32)>,
    cost: sim::CostModel,
    entries_hint: usize,
}

impl SsTable {
    /// Open a table: reads footer, bloom and index blocks (three metered
    /// SSD reads), keeping bloom + index resident in DRAM thereafter.
    pub fn open(
        device: &Arc<SsdDevice>,
        name: &str,
        cache: Arc<BlockCache>,
        tl: &mut Timeline,
    ) -> Result<Self, TableError> {
        let file = device.open(name)?;
        let size = file.size();
        if size < FOOTER_LEN as u64 {
            return Err(TableError::Corrupt("too small"));
        }
        let footer = file
            .read(size - FOOTER_LEN as u64, FOOTER_LEN, tl)?
            .to_vec();
        let magic = u32::from_le_bytes(footer[FOOTER_LEN - 4..].try_into().unwrap());
        if magic != MAGIC {
            return Err(TableError::Corrupt("bad magic"));
        }
        let bloom_off = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let bloom_len = u32::from_le_bytes(footer[8..12].try_into().unwrap()) as usize;
        let index_off = u64::from_le_bytes(footer[12..20].try_into().unwrap());
        let index_len = u32::from_le_bytes(footer[20..24].try_into().unwrap()) as usize;
        let bloom_raw = file.read(bloom_off, bloom_len, tl)?.to_vec();
        let bloom = BloomFilter::decode(&bloom_raw).ok_or(TableError::Corrupt("bloom"))?;
        let index_raw = file.read(index_off, index_len, tl)?.to_vec();
        let mut r = varint::Reader::new(&index_raw);
        let n = r.read_u32().ok_or(TableError::Corrupt("index count"))? as usize;
        let mut index = Vec::with_capacity(n);
        for _ in 0..n {
            let last = r
                .read_slice()
                .ok_or(TableError::Corrupt("index key"))?
                .to_vec();
            let off = u64::from_le_bytes(
                r.read_bytes(8)
                    .ok_or(TableError::Corrupt("index off"))?
                    .try_into()
                    .unwrap(),
            );
            let len = u32::from_le_bytes(
                r.read_bytes(4)
                    .ok_or(TableError::Corrupt("index len"))?
                    .try_into()
                    .unwrap(),
            );
            index.push((last, off, len));
        }
        let cost = *device.cost_model();
        Ok(SsTable {
            file,
            id: table_id(name),
            cache,
            bloom,
            index,
            cost,
            entries_hint: 0,
        })
    }

    pub fn name(&self) -> &str {
        self.file.name()
    }

    pub fn size(&self) -> u64 {
        self.file.size()
    }

    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Entries the builder wrote, when the opener said
    /// ([`SsTable::with_entries_hint`]); 0 for a table reopened from
    /// its file alone, which does not record the count.
    pub fn entries_hint(&self) -> usize {
        self.entries_hint
    }

    pub fn with_entries_hint(mut self, entries: usize) -> Self {
        self.entries_hint = entries;
        self
    }

    /// Fetch block `i`, via the cache when possible.
    fn load_block(&self, i: usize, tl: &mut Timeline) -> Result<Block, TableError> {
        let (_, off, len) = self.index[i];
        let key = CacheKey {
            table: self.id,
            pos: off,
        };
        if let Some(block) = self.cache.get(key) {
            // Served from DRAM.
            tl.charge(self.cost.dram.random_read(len as usize));
            return Ok(block);
        }
        let block = self.read_block(i, false, tl)?;
        self.cache.insert(key, block.clone(), block.size());
        Ok(block)
    }

    /// Read block `i` from the SSD and decode it (its CRC checked): a
    /// sequential read when it follows the block just read, else a
    /// random one.
    fn read_block(&self, i: usize, adjacent: bool, tl: &mut Timeline) -> Result<Block, TableError> {
        let (_, off, len) = self.index[i];
        let raw = match adjacent {
            true => self.file.read_sequential(off, len as usize, tl)?,
            false => self.file.read(off, len as usize, tl)?,
        };
        Block::decode(raw.to_vec()).map_err(|_| TableError::Corrupt("data block"))
    }

    /// Point lookup: newest visible version of `user_key` at `snapshot`.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Result<Option<VersionedValue>, TableError> {
        self.get_with(user_key, BloomFilter::hashes(user_key), snapshot, tl)
    }

    /// [`SsTable::get`] for a key already hashed by
    /// [`BloomFilter::hashes`]: a get that consults the filters of many
    /// tables hashes its key once.
    pub fn get_with(
        &self,
        user_key: &[u8],
        hashes: (u64, u64),
        snapshot: SequenceNumber,
        tl: &mut Timeline,
    ) -> Result<Option<VersionedValue>, TableError> {
        // Bloom filter: one DRAM-resident line.
        tl.charge(self.cost.dram.random_read(64));
        if !self.bloom.may_contain_hashed(hashes) {
            return Ok(None);
        }
        // The seek target `(user_key, trailer)` stays in parts and the
        // keys the seek walks are rebuilt on the stack: nothing on this
        // path allocates but the returned value (and a key buffer for a
        // key over 64 bytes).
        let trailer = key::seek_trailer(snapshot);
        // Index binary search (DRAM).
        let cpu = self.cost.cpu;
        let mut probes = 0u64;
        let idx = self.index.partition_point(|(last, _, _)| {
            probes += 1;
            key::compare_to_parts(last, user_key, trailer) == std::cmp::Ordering::Less
        });
        tl.charge((self.cost.dram.random_read(32) + cpu.key_compare) * probes.max(1));
        if idx >= self.index.len() {
            return Ok(None);
        }
        let block = self.load_block(idx, tl)?;
        // In-block restart search at DRAM cost.
        tl.charge(self.cost.dram.random_read(64) * 5);
        let mut found = InlineKey::<64>::new();
        let entry = block.seek_entry(user_key, trailer, &mut found);
        let ikey = found.bytes();
        match entry {
            Some((_, value)) if key::user_key(ikey) == user_key => {
                let seq = key::sequence(ikey);
                let kind = key::kind(ikey).ok_or(TableError::Corrupt("entry kind"))?;
                Ok(Some((seq, kind, block.value(value).to_vec())))
            }
            _ => Ok(None),
        }
    }

    /// A cursor over this table, unpositioned until its first `seek`.
    /// Blocks are fetched through the block cache, one at a time, on
    /// demand.
    pub fn cursor(&self) -> SsCursor<'_> {
        SsCursor {
            cached: true,
            ..self.sequential_cursor()
        }
    }

    /// A cursor that reads the table the way a compaction does, front
    /// to back past the block cache: the block a `seek` lands on is one
    /// random SSD read, each block after it a sequential read of the
    /// adjacent bytes, every block is decoded (its CRC checked), and the
    /// block cache is neither consulted nor filled.
    pub fn sequential_cursor(&self) -> SsCursor<'_> {
        SsCursor {
            table: self,
            cached: false,
            adjacent: false,
            next_block: self.index.len(),
            block: None,
            next_pos: 0,
            key: Vec::new(),
            value: 0..0,
        }
    }

    /// Bounded range scan: reads only the blocks that can intersect
    /// `[start, end)` user-key range, stopping after `limit` entries.
    /// Returns raw (internal key, value) pairs in order — a cursor pass
    /// collected into a `Vec`.
    pub fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        tl: &mut Timeline,
    ) -> Result<Vec<RawEntry>, TableError> {
        let mut out = Vec::new();
        if limit == 0 {
            return Ok(out);
        }
        let mut cursor = self.cursor();
        cursor.seek(start, tl)?;
        while let Some(e) = cursor.current() {
            if end.is_some_and(|end| e.user_key >= end) {
                break;
            }
            out.push((cursor.key.clone(), e.value.to_vec()));
            if out.len() >= limit {
                break;
            }
            cursor.advance(tl)?;
        }
        Ok(out)
    }

    /// Collect all entries, through the block cache (for tests and the
    /// per-layer benchmark; compactions read through
    /// [`SsTable::sequential_cursor`]).
    pub fn scan_all(&self, tl: &mut Timeline) -> Result<Vec<RawEntry>, TableError> {
        let mut out = Vec::new();
        for i in 0..self.index.len() {
            let block = self.load_block(i, tl)?;
            out.extend(block.iter());
        }
        Ok(out)
    }
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("name", &self.file.name())
            .field("size", &self.file.size())
            .field("blocks", &self.index.len())
            .finish()
    }
}

/// A forward cursor over one [`SsTable`] in internal-key order, holding
/// one data block at a time.
pub struct SsCursor<'a> {
    table: &'a SsTable,
    /// `false` reads sequentially: see [`SsTable::sequential_cursor`].
    cached: bool,
    /// Reading sequentially, the next block follows the one just read.
    adjacent: bool,
    /// The block `enter_block` fetches.
    next_block: usize,
    /// The current block; `Some` only while an entry is under the cursor.
    block: Option<Block>,
    /// Offset in `block` of the entry after the current one.
    next_pos: usize,
    /// Encoded internal key of the current entry.
    key: Vec<u8>,
    value: std::ops::Range<usize>,
}

impl SsCursor<'_> {
    /// Position at the first entry with user key >= `start`.
    pub fn seek(&mut self, start: &[u8], tl: &mut Timeline) -> Result<(), TableError> {
        let trailer = key::seek_trailer(key::MAX_SEQUENCE);
        self.next_block = self.table.index.partition_point(|(last, _, _)| {
            key::compare_to_parts(last, start, trailer) == std::cmp::Ordering::Less
        });
        self.adjacent = false;
        self.enter_block(Some((start, trailer)), tl)
    }

    /// Step to the next entry; a no-op once the table is exhausted.
    pub fn advance(&mut self, tl: &mut Timeline) -> Result<(), TableError> {
        let Some(block) = &self.block else {
            return Ok(());
        };
        match block.entry_at(self.next_pos, &mut self.key) {
            Some(found) => self.land(found),
            None => self.enter_block(None, tl),
        }
    }

    /// The entry under the cursor; `None` before a seek and after the
    /// last entry.
    pub fn current(&self) -> Option<EntryRef<'_>> {
        let block = self.block.as_ref()?;
        EntryRef::parse(&self.key, block.value(self.value.clone()))
    }

    /// Load the next block and position at its first entry >= `target`
    /// (its first entry when `None`).
    fn enter_block(
        &mut self,
        target: Option<(&[u8], u64)>,
        tl: &mut Timeline,
    ) -> Result<(), TableError> {
        self.block = None;
        if self.next_block >= self.table.index.len() {
            return Ok(());
        }
        let block = match self.cached {
            true => self.table.load_block(self.next_block, tl)?,
            false => {
                let adjacent = std::mem::replace(&mut self.adjacent, true);
                self.table.read_block(self.next_block, adjacent, tl)?
            }
        };
        self.next_block += 1;
        // The index promised an entry here: every block is non-empty and
        // a seek picks the first block whose last key is >= the target.
        let found = match target {
            Some((user_key, trailer)) => block.seek_entry(user_key, trailer, &mut self.key),
            None => block.entry_at(0, &mut self.key),
        }
        .ok_or(TableError::Corrupt(
            "data block shorter than its index entry",
        ))?;
        self.block = Some(block);
        self.land(found)
    }

    /// Accept the entry `entry_at` / `seek_entry` just decoded into `key`.
    fn land(
        &mut self,
        (next_pos, value): (usize, std::ops::Range<usize>),
    ) -> Result<(), TableError> {
        self.next_pos = next_pos;
        self.value = value;
        if self.current().is_none() {
            self.block = None;
            return Err(TableError::Corrupt("entry kind"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::CostModel;

    fn setup() -> (Arc<SsdDevice>, Arc<BlockCache>) {
        (
            SsdDevice::new(CostModel::default()),
            Arc::new(BlockCache::new(1 << 20)),
        )
    }

    fn build_table(device: &Arc<SsdDevice>, name: &str, n: usize) -> Vec<(String, String)> {
        let mut b = SsTableBuilder::new(device, name, SsTableOptions::default()).unwrap();
        let mut tl = Timeline::new();
        let mut entries = Vec::new();
        for i in 0..n {
            let k = format!("user{:08}", i * 5);
            let v = format!("value-{i}-{}", "x".repeat(i % 37));
            b.add(k.as_bytes(), 100, KeyKind::Value, v.as_bytes(), &mut tl);
            entries.push((k, v));
        }
        b.finish(&mut tl).unwrap();
        entries
    }

    #[test]
    fn build_and_get_roundtrip() {
        let (device, cache) = setup();
        let entries = build_table(&device, "t1.sst", 2000);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "t1.sst", cache, &mut tl).unwrap();
        assert!(t.block_count() > 1, "should span multiple blocks");
        for (k, v) in entries.iter().step_by(61) {
            let (seq, kind, value) = t.get(k.as_bytes(), u64::MAX, &mut tl).unwrap().unwrap();
            assert_eq!(seq, 100);
            assert_eq!(kind, KeyKind::Value);
            assert_eq!(value, v.as_bytes());
        }
    }

    #[test]
    fn get_misses_via_bloom_and_search() {
        let (device, cache) = setup();
        build_table(&device, "t2.sst", 500);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "t2.sst", cache, &mut tl).unwrap();
        // Absent keys (bloom catches most).
        for i in 0..50 {
            let k = format!("absent{:08}", i);
            assert!(t.get(k.as_bytes(), u64::MAX, &mut tl).unwrap().is_none());
        }
        // Between existing keys (keys go by 5).
        assert!(t.get(b"user00000001", u64::MAX, &mut tl).unwrap().is_none());
    }

    #[test]
    fn a_table_built_without_a_filter_serves_every_key() {
        let (device, cache) = setup();
        let opts = SsTableOptions {
            block_size: 256,
            bloom_bits_per_key: 0,
        };
        let mut b = SsTableBuilder::new(&device, "nofilter.sst", opts).unwrap();
        let mut tl = Timeline::new();
        for i in 0..100u32 {
            b.add(
                format!("k{i:03}").as_bytes(),
                1,
                KeyKind::Value,
                b"v",
                &mut tl,
            );
        }
        b.finish(&mut tl).unwrap();
        let t = SsTable::open(&device, "nofilter.sst", cache, &mut tl).unwrap();
        assert_eq!(t.bloom.encoded_len(), 1, "no lines, only the tag byte");
        for i in 0..100u32 {
            let got = t
                .get(format!("k{i:03}").as_bytes(), u64::MAX, &mut tl)
                .unwrap();
            assert_eq!(got.unwrap().2, b"v");
        }
    }

    #[test]
    fn a_get_the_filter_rules_out_costs_one_dram_line() {
        let (device, cache) = setup();
        build_table(&device, "t5.sst", 500);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "t5.sst", cache, &mut tl).unwrap();
        // ceil(500 keys × 10 bits / 512) lines and the tag byte.
        assert_eq!(t.bloom.encoded_len(), 10 * 64 + 1);
        // Absent keys inside the table's range, which a get that passed
        // the filter would look for in the index and a block.
        let absent = (0..)
            .map(|i| format!("user{:08}", i * 5 + 1))
            .find(|k| !t.bloom.may_contain(k))
            .unwrap();
        let mut tl = Timeline::new();
        assert!(t
            .get(absent.as_bytes(), u64::MAX, &mut tl)
            .unwrap()
            .is_none());
        assert_eq!(tl.elapsed(), CostModel::default().dram.random_read(64));
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let (device, cache) = setup();
        let entries = build_table(&device, "t3.sst", 777);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "t3.sst", cache, &mut tl).unwrap();
        let got = t.scan_all(&mut tl).unwrap();
        assert_eq!(got.len(), entries.len());
        for ((ikey, value), (k, v)) in got.iter().zip(&entries) {
            assert_eq!(key::user_key(ikey), k.as_bytes());
            assert_eq!(value, v.as_bytes());
        }
    }

    #[test]
    fn cached_reads_cost_less_than_cold_reads() {
        let (device, cache) = setup();
        let entries = build_table(&device, "t4.sst", 3000);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "t4.sst", Arc::clone(&cache), &mut tl).unwrap();
        let probe = entries[1234].0.clone();
        let mut cold = Timeline::new();
        t.get(probe.as_bytes(), u64::MAX, &mut cold)
            .unwrap()
            .unwrap();
        let mut warm = Timeline::new();
        t.get(probe.as_bytes(), u64::MAX, &mut warm)
            .unwrap()
            .unwrap();
        assert!(
            warm.elapsed().as_nanos() * 4 < cold.elapsed().as_nanos(),
            "warm {} cold {}",
            warm.elapsed(),
            cold.elapsed()
        );
        assert!(cache.hits.get() >= 1);
    }

    #[test]
    fn table1_latency_anchors() {
        // The paper's Table I: ~22us cold SSD lookup, ~2.6us cached.
        let (device, cache) = setup();
        build_table(&device, "t5.sst", 100_000);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "t5.sst", Arc::clone(&cache), &mut tl).unwrap();
        let mut cold = Timeline::new();
        t.get(b"user00250000", u64::MAX, &mut cold)
            .unwrap()
            .unwrap();
        let cold_us = cold.elapsed().as_micros_f64();
        assert!(
            (12.0..40.0).contains(&cold_us),
            "cold lookup {cold_us}us should be ~22us"
        );
        let mut warm = Timeline::new();
        t.get(b"user00250000", u64::MAX, &mut warm)
            .unwrap()
            .unwrap();
        let warm_us = warm.elapsed().as_micros_f64();
        assert!(
            (0.5..6.0).contains(&warm_us),
            "warm lookup {warm_us}us should be ~2.6us"
        );
    }

    #[test]
    fn snapshot_visibility_across_versions() {
        let (device, cache) = setup();
        let mut b = SsTableBuilder::new(&device, "v.sst", SsTableOptions::default()).unwrap();
        let mut tl = Timeline::new();
        b.add(b"k", 9, KeyKind::Value, b"v9", &mut tl);
        b.add(b"k", 5, KeyKind::Delete, b"", &mut tl);
        b.add(b"k", 2, KeyKind::Value, b"v2", &mut tl);
        b.finish(&mut tl).unwrap();
        let t = SsTable::open(&device, "v.sst", cache, &mut tl).unwrap();
        let (seq, kind, _) = t.get(b"k", u64::MAX, &mut tl).unwrap().unwrap();
        assert_eq!((seq, kind), (9, KeyKind::Value));
        let (seq, kind, _) = t.get(b"k", 7, &mut tl).unwrap().unwrap();
        assert_eq!((seq, kind), (5, KeyKind::Delete));
        let (seq, _, v) = t.get(b"k", 3, &mut tl).unwrap().unwrap();
        assert_eq!((seq, v.as_slice()), (2, &b"v2"[..]));
        assert!(t.get(b"k", 1, &mut tl).unwrap().is_none());
    }

    #[test]
    fn table_bytes_are_pinned() {
        // CRC32C of the whole object: same input, same bytes. Last
        // recorded when the bloom block became the blocked filter's lines.
        let (device, _) = setup();
        let mut b = SsTableBuilder::new(&device, "pin.sst", SsTableOptions::default()).unwrap();
        let mut tl = Timeline::new();
        for e in pmtable::testutil::index_entries(3000, 8, 77) {
            b.add(&e.user_key, e.seq, e.kind, &e.value, &mut tl);
        }
        let (size, first, last) = b.finish(&mut tl).unwrap();
        assert_eq!(first.unwrap(), b"t0000:0000000013");
        assert_eq!(last.unwrap(), b"t0003:0000021006");
        let file = device.open("pin.sst").unwrap();
        let bytes = file.read(0, size as usize, &mut tl).unwrap();
        assert_eq!(encoding::crc::crc32c(bytes), 1_030_574_790);
    }

    #[test]
    fn open_rejects_non_table() {
        let (device, cache) = setup();
        let mut w = device.create("junk").unwrap();
        w.append(&[0u8; 64]);
        let mut tl = Timeline::new();
        w.finish(&mut tl).unwrap();
        assert!(SsTable::open(&device, "junk", cache, &mut tl).is_err());
    }

    #[test]
    fn scan_range_is_bounded_and_ordered() {
        let (device, cache) = setup();
        let entries = build_table(&device, "r.sst", 3000);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "r.sst", cache, &mut tl).unwrap();
        // Middle slice.
        let lo = entries[100].0.as_bytes();
        let hi = entries[150].0.as_bytes();
        let hits = t.scan_range(lo, Some(hi), usize::MAX, &mut tl).unwrap();
        assert_eq!(hits.len(), 50);
        assert_eq!(key::user_key(&hits[0].0), lo);
        for pair in hits.windows(2) {
            assert!(key::compare(&pair[0].0, &pair[1].0).is_lt());
        }
        // Limit applies.
        let hits = t.scan_range(lo, None, 7, &mut tl).unwrap();
        assert_eq!(hits.len(), 7);
        // A short scan reads far fewer blocks than the full table.
        let mut short = Timeline::new();
        t.scan_range(lo, Some(hi), usize::MAX, &mut short).unwrap();
        let mut full = Timeline::new();
        t.scan_all(&mut full).unwrap();
        assert!(short.elapsed().as_nanos() * 4 < full.elapsed().as_nanos());
        // Past-the-end scan is empty.
        assert!(t.scan_range(b"zzzz", None, 10, &mut tl).unwrap().is_empty());
    }

    #[test]
    fn cursor_seeks_before_between_and_past() {
        let (device, cache) = setup();
        let entries = build_table(&device, "c.sst", 3000);
        let mut tl = Timeline::new();
        let t = SsTable::open(&device, "c.sst", cache, &mut tl).unwrap();
        assert!(t.block_count() > 3);
        let drain_from = |start: &[u8]| {
            let mut tl = Timeline::new();
            let mut cursor = t.cursor();
            assert!(cursor.current().is_none(), "unpositioned before a seek");
            cursor.seek(start, &mut tl).unwrap();
            let mut out = Vec::new();
            while let Some(e) = cursor.current() {
                assert_eq!((e.seq, e.kind), (100, KeyKind::Value));
                out.push((e.user_key.to_vec(), e.value.to_vec()));
                cursor.advance(&mut tl).unwrap();
            }
            cursor.advance(&mut tl).unwrap();
            assert!(
                cursor.current().is_none(),
                "advancing past the end is a no-op"
            );
            out
        };
        let want = |from: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
            let tail = entries[from..].iter();
            tail.map(|(k, v)| (k.clone().into_bytes(), v.clone().into_bytes()))
                .collect()
        };
        assert_eq!(drain_from(b""), want(0), "before the first key");
        // Keys go by 5: `...12` falls between entries 2 and 3.
        assert_eq!(drain_from(b"user00000012"), want(3), "between two keys");
        // The first and last keys of every block, and the gap after each
        // block's last key, land exactly.
        for (last, _, _) in &t.index {
            let last = key::user_key(last);
            let at = entries
                .iter()
                .position(|(k, _)| k.as_bytes() == last)
                .unwrap();
            assert_eq!(drain_from(last), want(at), "a block's last key");
            let mut after = last.to_vec();
            after.push(0);
            assert_eq!(drain_from(&after), want(at + 1), "between two blocks");
        }
        assert!(drain_from(b"zzzz").is_empty(), "past the last key");
    }

    #[test]
    fn cursor_surfaces_an_unreadable_block() {
        let (device, _) = setup();
        build_table(&device, "bad.sst", 3000);
        let mut tl = Timeline::new();
        let cache = Arc::new(BlockCache::disabled());
        let mut t = SsTable::open(&device, "bad.sst", cache, &mut tl).unwrap();
        // Point the second block's index entry past the end of the file.
        t.index[1].1 = t.size();
        for mut cursor in [t.cursor(), t.sequential_cursor()] {
            cursor.seek(b"", &mut tl).unwrap();
            let step = std::iter::from_fn(|| match cursor.advance(&mut tl) {
                Ok(()) => cursor.current().map(|_| Ok(())),
                Err(e) => Some(Err(e)),
            });
            let outcome: Result<Vec<()>, TableError> = step.collect();
            assert!(matches!(outcome, Err(TableError::Ssd(_))), "{outcome:?}");
        }
        assert!(t.scan_range(b"", None, usize::MAX, &mut tl).is_err());
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_roundtrip_and_get(
            keys in proptest::collection::btree_set(
                proptest::collection::vec(b'a'..=b'f', 1..14), 1..150),
            vlen in 0usize..60,
        ) {
            let (device, cache) = setup();
            let mut b = SsTableBuilder::new(
                &device,
                "p.sst",
                SsTableOptions { block_size: 256, bloom_bits_per_key: 10 },
            )
            .unwrap();
            let mut tl = Timeline::new();
            for (i, k) in keys.iter().enumerate() {
                b.add(k, i as u64 + 1, KeyKind::Value, &vec![b'v'; vlen], &mut tl);
            }
            b.finish(&mut tl).unwrap();
            let t = SsTable::open(&device, "p.sst", cache, &mut tl).unwrap();
            // Everything retrievable.
            for (i, k) in keys.iter().enumerate() {
                let (seq, kind, v) =
                    t.get(k, u64::MAX, &mut tl).unwrap().unwrap();
                proptest::prop_assert_eq!(seq, i as u64 + 1);
                proptest::prop_assert_eq!(kind, KeyKind::Value);
                proptest::prop_assert_eq!(v.len(), vlen);
            }
            // Full scan matches input order.
            let all = t.scan_all(&mut tl).unwrap();
            proptest::prop_assert_eq!(all.len(), keys.len());
            for ((ikey, _), k) in all.iter().zip(keys.iter()) {
                proptest::prop_assert_eq!(key::user_key(ikey), &k[..]);
            }
        }

        /// From every seek point a sequential cursor yields what a
        /// cached one does. It makes one random SSD read (none from past
        /// the last key), reads each block from the one it lands on to
        /// the end once, and leaves the block cache as it found it.
        #[test]
        fn prop_sequential_cursor_reads_like_a_compaction(
            keys in proptest::collection::btree_set(
                proptest::collection::vec(b'a'..=b'f', 1..14), 1..150),
            vlen in 0usize..60,
            warm in proptest::collection::vec(0usize..150, 0..8),
        ) {
            let (device, cache) = setup();
            let opts = SsTableOptions { block_size: 256, bloom_bits_per_key: 10 };
            let mut b = SsTableBuilder::new(&device, "s.sst", opts).unwrap();
            let mut tl = Timeline::new();
            for (i, k) in keys.iter().enumerate() {
                b.add(k, i as u64 + 1, KeyKind::Value, &vec![b'v'; vlen], &mut tl);
            }
            b.finish(&mut tl).unwrap();
            let t = SsTable::open(&device, "s.sst", Arc::clone(&cache), &mut tl).unwrap();
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            // Some blocks cached, some not.
            for &i in &warm {
                t.get(&keys[i % keys.len()], u64::MAX, &mut tl).unwrap();
            }
            let drain = |mut cursor: SsCursor<'_>, start: &[u8]| {
                let mut tl = Timeline::new();
                cursor.seek(start, &mut tl).unwrap();
                let mut out = Vec::new();
                while let Some(e) = cursor.current() {
                    out.push(e.to_owned());
                    cursor.advance(&mut tl).unwrap();
                }
                out
            };
            let mut starts = vec![Vec::new(), b"g".to_vec()];
            for k in &keys {
                starts.extend([k.clone(), [k.as_slice(), b"\0"].concat()]);
            }
            let stats = device.stats();
            for start in &starts {
                let want = drain(t.cursor(), start);
                let cached = (cache.hits.get(), cache.misses.get(), cache.len());
                let (reads, read) = (stats.reads.get(), stats.bytes_read.get());
                proptest::prop_assert_eq!(drain(t.sequential_cursor(), start), want);
                let trailer = key::seek_trailer(key::MAX_SEQUENCE);
                let landing = t.index.partition_point(|(last, _, _)| {
                    key::compare_to_parts(last, start, trailer).is_lt()
                });
                let blocks: u64 = t.index[landing..].iter().map(|&(_, _, len)| len as u64).sum();
                proptest::prop_assert_eq!(stats.reads.get() - reads, u64::from(landing < t.index.len()));
                proptest::prop_assert_eq!(stats.bytes_read.get() - read, blocks);
                proptest::prop_assert_eq!((cache.hits.get(), cache.misses.get(), cache.len()), cached);
            }
        }
    }
}
