//! The hasher of the engine's in-memory maps: fixed, so a key hashes
//! the same in every process and what a map allocates, and when it
//! grows, repeats run to run (std's default is seeded per process).
//!
//! Each word written is folded in with one multiply by 2^64 / φ; the
//! murmur3 `fmix64` finish then spreads every input bit over the whole
//! output, low bits included, which is where a hash table takes its
//! bucket from.
//!
//! Being unkeyed, it gives up std's defence against inputs crafted to
//! collide. Most keys are the engine's own (cache ids, block offsets,
//! table names); `Partition::seen_keys` holds a fixed hash of each
//! written user key, so a client that picks its keys could crowd that
//! set's buckets and slow its own writes' classification.

use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative [`Hasher`] with a murmur3 `fmix64` finish.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

/// Builds [`FixedHasher`]s: every map gets the same one.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// A [`std::collections::HashMap`] over [`FixedHasher`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// A [`std::collections::HashSet`] over [`FixedHasher`].
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(value: impl Hash) -> u64 {
        FixedState::default().hash_one(value)
    }

    /// A `(table, position)` pair hashed as a cache key derives it.
    #[derive(Hash)]
    struct CacheKey {
        table: u64,
        pos: u64,
    }

    fn key(table: u64, pos: u64) -> CacheKey {
        CacheKey { table, pos }
    }

    #[test]
    fn finish_is_pinned() {
        // The same in every process and on every run: no seed.
        assert_eq!(hash(1u64), 0x9ca0_66f1_a4ab_2eea);
        assert_eq!(hash(u64::MAX), 0xd314_d4f7_bbe9_a09e);
        assert_eq!(hash(key(1, 0)), 0x7c9b_67c7_8db9_afde);
        assert_eq!(hash(key(7, 4096)), 0x1c92_2f20_d449_b470);
        assert_eq!(hash("user0000000042"), 0xf83d_d7e0_cdca_fcbf);
    }

    #[test]
    fn one_tables_blocks_spread_over_low_bits() {
        // A hash table takes a bucket from the low bits: 4 096 block
        // offsets of one table must not crowd into a few of them.
        let mut buckets = std::collections::BTreeSet::new();
        for k in 0..4096u64 {
            buckets.insert(hash(key(0xC0FFEE, k * 4096)) & 0xFFF);
        }
        // A uniform hash fills 1 − 1/e of them: about 2 590.
        assert!(buckets.len() > 2400, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn maps_work_over_it() {
        let mut set = HashSet::default();
        assert!(set.insert(42u64));
        assert!(!set.insert(42u64));
        let map: HashMap<&str, u32> = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(map["b"], 2);
    }
}
