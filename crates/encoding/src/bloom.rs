//! Bloom filter over user keys.
//!
//! Double-hashing construction (Kirsch–Mitzenmacher): two base hashes
//! combine into `k` probe positions. Sized at `bits_per_key` bits per key
//! (default 10, ≈1% false positives), matching the RocksDB default the
//! paper's baselines use.
//!
//! Lives in `encoding` because both table formats attach it: the SSD
//! SSTable stores it as a named filter block, and the PM table appends
//! it after the entry layer (flagged in the header) so PM level-0 gets
//! the same negative-lookup pruning as the SSD levels.

/// An immutable bloom filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u8,
}

impl BloomFilter {
    /// Build a filter for `keys` with `bits_per_key` bits of budget each.
    pub fn build<'a>(
        keys: impl IntoIterator<Item = &'a [u8]>,
        count_hint: usize,
        bits_per_key: usize,
    ) -> Self {
        let hashes = keys.into_iter().map(Self::hashes);
        Self::build_hashed(hashes, count_hint, bits_per_key)
    }

    /// [`BloomFilter::build`] for keys already hashed by
    /// [`BloomFilter::hashes`]: a table builder remembers 16 bytes per
    /// key instead of the key.
    pub fn build_hashed(
        hashes: impl IntoIterator<Item = (u64, u64)>,
        count_hint: usize,
        bits_per_key: usize,
    ) -> Self {
        let bits_per_key = bits_per_key.max(1);
        // k = bits_per_key * ln2, clamped to a sane range.
        let k = ((bits_per_key as f64 * 0.69) as u8).clamp(1, 30);
        let nbits = (count_hint * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let mut bits = vec![0u8; nbytes];
        let nbits = nbytes * 8;
        for (h1, h2) in hashes {
            for i in 0..k {
                let bit = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % nbits as u64) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
            }
        }
        BloomFilter { bits, k }
    }

    /// The key's hash pair — the two seeded base hashes (FNV-1a then a
    /// finalizer mix each; quality is plenty for bloom probing), in one
    /// pass over its bytes. It is all a probe needs of the key and does
    /// not depend on the filter, so a lookup that consults many filters
    /// hashes once and probes each with
    /// [`BloomFilter::may_contain_hashed`].
    #[inline]
    pub fn hashes(key: &[u8]) -> (u64, u64) {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        const GOLDEN: u64 = 0x9E3779B97F4A7C15;
        let mut h1 = FNV_OFFSET ^ 0x51ed_u64.wrapping_mul(GOLDEN);
        let mut h2 = FNV_OFFSET ^ 0xa3c9_u64.wrapping_mul(GOLDEN);
        for &b in key {
            h1 = (h1 ^ b as u64).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        let mix = |mut h: u64| {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^ (h >> 33)
        };
        (mix(h1), mix(h2))
    }

    /// True if the key *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hashed(Self::hashes(key))
    }

    /// [`BloomFilter::may_contain`] for a key already hashed by
    /// [`BloomFilter::hashes`].
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let nbits = self.bits.len() as u64 * 8;
        (0..self.k).all(|i| {
            let bit = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % nbits) as usize;
            self.bits[bit / 8] & (1 << (bit % 8)) != 0
        })
    }

    /// Serialize: bits followed by the probe count.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// [`BloomFilter::encode`], appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bits);
        out.push(self.k);
    }

    /// Inverse of [`BloomFilter::encode`]. Returns `None` on an empty buffer.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        let (&k, bits) = raw.split_last()?;
        if k == 0 || k > 30 {
            return None;
        }
        Some(BloomFilter {
            bits: bits.to_vec(),
            k,
        })
    }

    /// Size of the encoded filter.
    pub fn encoded_len(&self) -> usize {
        self.bits.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        for k in &ks {
            assert!(f.may_contain(k), "false negative on {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_near_one_percent() {
        let ks = keys(10_000);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        let fp = (0..10_000)
            .filter(|i| f.may_contain(format!("absent-{i:08}").as_bytes()))
            .count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.03, "fp rate {rate}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(100);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 100, 10);
        let raw = f.encode();
        assert_eq!(raw.len(), f.encoded_len());
        let g = BloomFilter::decode(&raw).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_none());
        assert!(BloomFilter::decode(&[0xff, 0xff, 0]).is_none());
        assert!(BloomFilter::decode(&[0xff, 0xff, 31]).is_none());
    }

    #[test]
    fn empty_filter_contains_nothing_by_construction() {
        let f = BloomFilter::build(std::iter::empty(), 0, 10);
        // Zero-key filter has all-zero bits: any probe must find a zero.
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn more_bits_fewer_false_positives() {
        let ks = keys(5_000);
        let probe = |bpk: usize| {
            let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), bpk);
            (0..5_000)
                .filter(|i| f.may_contain(format!("miss{i}").as_bytes()))
                .count()
        };
        assert!(probe(16) <= probe(4));
    }

    #[test]
    fn hash_pair_is_the_stored_format() {
        // Filters are persisted (PM-table filter section, SSTable bloom
        // block): the one-pass pair must stay the two seeded FNV-1a
        // hashes every filter on media was built with.
        assert_eq!(
            BloomFilter::hashes(b"key-00000042"),
            (0xdcd3905ac3f00c03, 0xaed56462b425e992)
        );
        assert_eq!(
            BloomFilter::hashes(b""),
            (0x4c31933dd91897f0, 0x324bf366c17ac9f9)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn prop_hashed_probe_agrees_with_keyed_probe(
            members in proptest::collection::btree_set(
                proptest::collection::vec(0u8..=255, 0..24), 0..200),
            probes in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..24), 0..100),
            bits_per_key in 1usize..20,
        ) {
            let f = BloomFilter::build(
                members.iter().map(|k| k.as_slice()), members.len(), bits_per_key);
            for k in &members {
                // Hash once, probe many: still no false negatives.
                proptest::prop_assert!(f.may_contain_hashed(BloomFilter::hashes(k)));
            }
            for k in members.iter().chain(&probes) {
                proptest::prop_assert_eq!(
                    f.may_contain_hashed(BloomFilter::hashes(k)),
                    f.may_contain(k)
                );
            }
        }
    }
}
