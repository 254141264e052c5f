//! Restart-point data blocks.
//!
//! A block stores internal-key / value pairs with delta-compressed keys:
//! each entry records how many leading bytes it shares with the previous
//! key. Every `restart_interval` entries the sharing resets, and the
//! offsets of these restart entries are listed in a trailer so a reader
//! can binary search restarts and then scan forward.
//!
//! Block layout:
//!
//! ```text
//! entry*: varint shared | varint non_shared | varint vlen |
//!         key[shared..] bytes | value bytes
//! trailer: restart offsets (u32 each) | restart count u32 | crc32c u32
//! ```

use encoding::key;
use encoding::varint;

/// Entries between restart points.
pub const RESTART_INTERVAL: usize = 16;

/// Builds one block.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    last_key: Vec<u8>,
    count_since_restart: usize,
    entries: usize,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockBuilder {
    pub fn new() -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            last_key: Vec::new(),
            count_since_restart: 0,
            entries: 0,
        }
    }

    /// Append an encoded internal key + value; keys must arrive in
    /// internal-key order.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || key::compare(&self.last_key, ikey) != std::cmp::Ordering::Greater,
            "block entries must be sorted"
        );
        let shared = if self.count_since_restart < RESTART_INTERVAL {
            encoding::prefix::common_prefix_len(&self.last_key, ikey)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        };
        varint::put_u32(&mut self.buf, shared as u32);
        varint::put_u32(&mut self.buf, (ikey.len() - shared) as u32);
        varint::put_u32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&ikey[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.count_since_restart += 1;
        self.entries += 1;
    }

    /// Current encoded size (without trailer).
    pub fn size(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 8
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    pub fn entries(&self) -> usize {
        self.entries
    }

    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Seal the block, appending the restart trailer and checksum.
    pub fn finish(mut self) -> Vec<u8> {
        self.finish_with(<[u8]>::to_vec)
    }

    /// Seal the block, hand its bytes to `sink`, and empty the builder
    /// for the next block: a table builder reuses one `BlockBuilder`,
    /// buffers and all, for every block it writes.
    pub fn finish_with<R>(&mut self, sink: impl FnOnce(&[u8]) -> R) -> R {
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf
            .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        let crc = encoding::crc::mask(encoding::crc::crc32c(&self.buf));
        self.buf.extend_from_slice(&crc.to_le_bytes());
        let out = sink(&self.buf);
        self.buf.clear();
        self.restarts.truncate(1);
        self.last_key.clear();
        (self.count_since_restart, self.entries) = (0, 0);
        out
    }
}

/// Where a block reader rebuilds a delta-compressed key.
pub(crate) trait KeyBuf {
    /// Keep the first `shared` bytes (all, if fewer) and append `tail`.
    fn replace_tail(&mut self, shared: usize, tail: &[u8]);

    fn bytes(&self) -> &[u8];
}

impl KeyBuf for Vec<u8> {
    fn replace_tail(&mut self, shared: usize, tail: &[u8]) {
        self.truncate(shared);
        self.extend_from_slice(tail);
    }

    fn bytes(&self) -> &[u8] {
        self
    }
}

/// A key buffer on the stack for keys of up to `N` bytes: a point
/// lookup's seek allocates nothing for the keys it walks unless one is
/// longer, which moves the key to one heap buffer for good.
pub(crate) struct InlineKey<const N: usize> {
    inline: [u8; N],
    len: usize,
    /// The key, once one did not fit `inline`; empty until then.
    spill: Vec<u8>,
}

impl<const N: usize> InlineKey<N> {
    pub(crate) fn new() -> Self {
        InlineKey {
            inline: [0; N],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl<const N: usize> KeyBuf for InlineKey<N> {
    fn replace_tail(&mut self, shared: usize, tail: &[u8]) {
        let keep = shared.min(self.len);
        self.len = keep + tail.len();
        if self.spill.is_empty() && self.len <= N {
            self.inline[keep..self.len].copy_from_slice(tail);
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..keep]);
            }
            self.spill.replace_tail(keep, tail);
        }
    }

    fn bytes(&self) -> &[u8] {
        match self.spill.is_empty() {
            true => &self.inline[..self.len],
            false => &self.spill,
        }
    }
}

/// A decoded (verified) block ready for searches.
#[derive(Clone, Debug)]
pub struct Block {
    data: std::sync::Arc<Vec<u8>>,
    restarts_off: usize,
    restart_count: usize,
}

/// Errors decoding a block.
#[derive(Debug, PartialEq, Eq)]
pub enum BlockError {
    Truncated,
    BadChecksum,
    Corrupt,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Truncated => write!(f, "block truncated"),
            BlockError::BadChecksum => write!(f, "block checksum mismatch"),
            BlockError::Corrupt => write!(f, "block corrupt"),
        }
    }
}

impl std::error::Error for BlockError {}

impl Block {
    /// Verify the checksum and locate the restart array.
    pub fn decode(raw: Vec<u8>) -> Result<Block, BlockError> {
        if raw.len() < 12 {
            return Err(BlockError::Truncated);
        }
        let body_len = raw.len() - 4;
        let stored = encoding::crc::unmask(u32::from_le_bytes(raw[body_len..].try_into().unwrap()));
        if encoding::crc::crc32c(&raw[..body_len]) != stored {
            return Err(BlockError::BadChecksum);
        }
        let restart_count =
            u32::from_le_bytes(raw[body_len - 4..body_len].try_into().unwrap()) as usize;
        let restarts_off = body_len
            .checked_sub(4 + restart_count * 4)
            .ok_or(BlockError::Corrupt)?;
        Ok(Block {
            data: std::sync::Arc::new(raw),
            restarts_off,
            restart_count,
        })
    }

    /// Total encoded size.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart(&self, i: usize) -> usize {
        let off = self.restarts_off + i * 4;
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap()) as usize
    }

    /// Decode the entry at byte offset `pos`, given the previous key.
    /// Returns (next_pos, key, value_range).
    pub(crate) fn entry_at(
        &self,
        pos: usize,
        prev_key: &mut impl KeyBuf,
    ) -> Option<(usize, std::ops::Range<usize>)> {
        if pos >= self.restarts_off {
            return None;
        }
        let buf = &self.data[pos..self.restarts_off];
        let mut r = varint::Reader::new(buf);
        let shared = r.read_u32()? as usize;
        let non_shared = r.read_u32()? as usize;
        let vlen = r.read_u32()? as usize;
        let header = r.position();
        let key_start = pos + header;
        let val_start = key_start + non_shared;
        if val_start + vlen > self.restarts_off {
            return None;
        }
        prev_key.replace_tail(shared, &self.data[key_start..key_start + non_shared]);
        Some((val_start + vlen, val_start..val_start + vlen))
    }

    /// Iterate all (internal key, value) pairs.
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            block: self,
            pos: 0,
            key: Vec::new(),
        }
    }

    /// Find the first entry whose internal key is >= `target` (by the
    /// internal-key ordering), returning (key, value).
    pub fn seek(&self, target: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
        let mut k = Vec::new();
        let (_, vrange) = self.seek_entry(key::user_key(target), key::trailer(target), &mut k)?;
        Some((k, self.data[vrange].to_vec()))
    }

    /// [`Block::seek`] without the copies: the target is the internal
    /// key `(user_key, trailer)` held in parts; leaves the found entry's
    /// key in `key` and returns (offset of the entry after it, value
    /// range).
    pub(crate) fn seek_entry(
        &self,
        user_key: &[u8],
        trailer: u64,
        key: &mut impl KeyBuf,
    ) -> Option<(usize, std::ops::Range<usize>)> {
        // Binary search restarts for the last restart key <= target.
        let (mut lo, mut hi) = (0usize, self.restart_count);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            // Restart entries have shared == 0, so prev_key content is moot.
            self.entry_at(self.restart(mid), key)?;
            let order = key::compare_to_parts(key.bytes(), user_key, trailer);
            if order == std::cmp::Ordering::Greater {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Linear scan from restart `lo`.
        let mut pos = self.restart(lo);
        while let Some((next, vrange)) = self.entry_at(pos, key) {
            if key::compare_to_parts(key.bytes(), user_key, trailer) != std::cmp::Ordering::Less {
                return Some((next, vrange));
            }
            pos = next;
        }
        None
    }

    /// The bytes of a value range returned by `entry_at` / `seek_entry`.
    pub(crate) fn value(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.data[range]
    }
}

/// Forward iterator over one block.
pub struct BlockIter<'a> {
    block: &'a Block,
    pos: usize,
    key: Vec<u8>,
}

impl Iterator for BlockIter<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        let (next, vrange) = self.block.entry_at(self.pos, &mut self.key)?;
        self.pos = next;
        Some((self.key.clone(), self.block.data[vrange].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encoding::key::{InternalKey, KeyKind};

    fn ikey(k: &str, seq: u64) -> Vec<u8> {
        InternalKey::seek_to(k.as_bytes(), seq).into_encoded()
    }

    #[allow(clippy::type_complexity)]
    fn sample_block(n: usize) -> (Block, Vec<(Vec<u8>, Vec<u8>)>) {
        let mut b = BlockBuilder::new();
        let mut entries = Vec::new();
        for i in 0..n {
            let k = ikey(&format!("user{:06}", i * 3), 7);
            let v = format!("value-{i}").into_bytes();
            b.add(&k, &v);
            entries.push((k, v));
        }
        (Block::decode(b.finish()).unwrap(), entries)
    }

    #[test]
    fn roundtrip_iteration() {
        let (block, entries) = sample_block(100);
        let got: Vec<_> = block.iter().collect();
        assert_eq!(got, entries);
    }

    #[test]
    fn empty_block_roundtrips() {
        let b = BlockBuilder::new();
        assert!(b.is_empty());
        let block = Block::decode(b.finish()).unwrap();
        assert_eq!(block.iter().count(), 0);
        assert!(block.seek(&ikey("a", 1)).is_none());
    }

    #[test]
    fn seek_exact_and_between() {
        let (block, entries) = sample_block(100);
        // Exact hit.
        let (k, v) = block.seek(&entries[40].0).unwrap();
        assert_eq!((k, v), entries[40].clone());
        // Between keys: user000100 doesn't exist (keys go by 3), the next
        // is user000102.
        let probe = ikey("user000100", u64::MAX);
        let (k, _) = block.seek(&probe).unwrap();
        assert_eq!(k, entries[34].0, "seek lands on first key >= target");
        // Before everything.
        let (k, _) = block.seek(&ikey("a", u64::MAX)).unwrap();
        assert_eq!(k, entries[0].0);
        // After everything.
        assert!(block.seek(&ikey("zzz", 1)).is_none());
    }

    #[test]
    fn seek_respects_sequence_ordering() {
        let mut b = BlockBuilder::new();
        let new = ikey("k", 9);
        let old = ikey("k", 3);
        b.add(&new, b"v9");
        b.add(&old, b"v3");
        let block = Block::decode(b.finish()).unwrap();
        // Seeking at snapshot 5 must skip the seq-9 version.
        let target = InternalKey::seek_to(b"k", 5);
        let (k, v) = block.seek(target.encoded()).unwrap();
        assert_eq!(k, old);
        assert_eq!(v, b"v3");
    }

    #[test]
    fn restarts_bound_prefix_chains() {
        let (block, _) = sample_block(100);
        // 100 entries at interval 16 → 7 restarts.
        assert_eq!(block.restart_count, 7);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut b = BlockBuilder::new();
        b.add(&ikey("abc", 1), b"v");
        let mut raw = b.finish();
        raw[2] ^= 1;
        match Block::decode(raw) {
            Err(e) => assert_eq!(e, BlockError::BadChecksum),
            Ok(_) => panic!("corrupted block must not decode"),
        }
    }

    #[test]
    fn truncated_rejected() {
        match Block::decode(vec![0; 5]) {
            Err(e) => assert_eq!(e, BlockError::Truncated),
            Ok(_) => panic!("truncated block must not decode"),
        }
    }

    #[test]
    fn prefix_compression_shrinks_shared_keys() {
        let mut shared = BlockBuilder::new();
        let mut disjoint = BlockBuilder::new();
        for i in 0..64 {
            shared.add(&ikey(&format!("commonprefix{:04}", i), 1), b"v");
            // Vary the leading byte so nothing is shared.
            disjoint.add(&ikey(&format!("{:04}commonprefix", i), 1), b"v");
        }
        assert!(shared.size() < disjoint.size());
    }

    #[test]
    fn size_estimate_matches_finish() {
        let mut b = BlockBuilder::new();
        for i in 0..50 {
            b.add(&ikey(&format!("key{i:04}"), 1), b"value");
        }
        let estimate = b.size();
        let raw = b.finish();
        assert_eq!(raw.len(), estimate);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn prop_roundtrip_sorted_keys(
            keys in proptest::collection::btree_set(
                proptest::collection::vec(b'a'..=b'e', 1..16), 1..80),
        ) {
            let mut b = BlockBuilder::new();
            let mut expect = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                let ik = InternalKey::new(k, i as u64 + 1, KeyKind::Value)
                    .into_encoded();
                b.add(&ik, k);
                expect.push((ik, k.clone()));
            }
            let block = Block::decode(b.finish()).unwrap();
            let got: Vec<_> = block.iter().collect();
            proptest::prop_assert_eq!(&got, &expect);
            // Every key is seekable.
            for (ik, v) in &expect {
                let (k2, v2) = block.seek(ik).unwrap();
                proptest::prop_assert_eq!(&k2, ik);
                proptest::prop_assert_eq!(&v2, v);
            }
        }

        /// A 16-byte stack key rebuilds every key a seek walks — keys
        /// that spill past it included — exactly as a `Vec` does.
        #[test]
        fn prop_inline_key_seeks_like_a_vec(
            keys in proptest::collection::btree_set(
                proptest::collection::vec(b'a'..=b'c', 1..40), 1..80),
            probes in proptest::collection::vec(
                proptest::collection::vec(b'a'..=b'c', 1..40), 1..20),
        ) {
            let mut b = BlockBuilder::new();
            for (i, k) in keys.iter().enumerate() {
                b.add(&InternalKey::new(k, i as u64 + 1, KeyKind::Value).into_encoded(), k);
            }
            let block = Block::decode(b.finish()).unwrap();
            for probe in keys.iter().chain(&probes) {
                let (mut heap, mut stack) = (Vec::new(), InlineKey::<16>::new());
                let want = block.seek_entry(probe, 0, &mut heap);
                proptest::prop_assert_eq!(block.seek_entry(probe, 0, &mut stack), want);
                proptest::prop_assert_eq!(stack.bytes(), heap.as_slice());
            }
        }
    }
}
