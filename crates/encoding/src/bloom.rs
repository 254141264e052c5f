//! The key filter of every table: a blocked bloom filter (Putze,
//! Sanders & Singler).
//!
//! A filter is an array of 64-byte lines. A key's line comes from the
//! first of its [`BloomFilter::hashes`] by multiply-shift, and the six
//! bits it sets or tests there from 9-bit chunks of the second, so an
//! insert writes one DRAM line and a probe reads one: every probe, of a
//! memtable, a PM table or an SSTable, is charged one
//! `dram.random_read(64)`.
//!
//! Two sizing rules: a table's filter gets `distinct × bits_per_key`
//! bits rounded up to whole lines ([`BloomFilter::build_hashed`]; at 10
//! bits per key ≈ 1 % false positives, the RocksDB default the paper's
//! baselines use), and a memtable's one line per 4 KiB of its byte
//! budget ([`BloomFilter::for_budget`]). A filter with no lines holds
//! nothing and passes every key.
//!
//! Lives in `encoding` because both table formats attach it: the SSD
//! SSTable stores it as a named filter block, and the PM table appends
//! it after the entry layer (flagged in the header) so PM level-0 gets
//! the same negative-lookup pruning as the SSD levels. Its encoded form
//! is the lines' little-endian words and a tag byte. A section
//! written before lines ("bits ‖ k", k in 1..=30) decodes to a filter
//! with no lines: it costs such a table's gets their probes, never a
//! key.

/// Bits in one line.
const LINE_BITS: usize = 512;
/// Bits a key sets in its line, 9 bits of its second hash each.
const PROBES: u32 = 6;
/// Budget bytes per line of a [`BloomFilter::for_budget`] filter.
const BUDGET_PER_LINE: usize = 4096;
/// The last byte of an encoded filter; never a probe count of the
/// format before lines.
const TAG: u8 = 0x40;

/// A blocked bloom filter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BloomFilter {
    lines: Box<[[u64; 8]]>,
}

impl BloomFilter {
    /// An empty filter of `lines` lines.
    fn with_lines(lines: usize) -> Self {
        BloomFilter {
            lines: vec![[0; 8]; lines].into(),
        }
    }

    /// An empty filter for a write buffer of `budget` bytes: one line
    /// per 4 KiB, at least one.
    pub fn for_budget(budget: usize) -> Self {
        Self::with_lines(budget.div_ceil(BUDGET_PER_LINE).max(1))
    }

    /// Build a filter for `keys` with `bits_per_key` bits of budget each.
    pub fn build<'a>(
        keys: impl IntoIterator<Item = &'a [u8]>,
        count_hint: usize,
        bits_per_key: usize,
    ) -> Self {
        Self::build_hashed(keys.into_iter().map(Self::hashes), count_hint, bits_per_key)
    }

    /// [`BloomFilter::build`] for keys already hashed by
    /// [`BloomFilter::hashes`]: a table builder remembers 16 bytes per
    /// key instead of the key. `count_hint × bits_per_key` bits, rounded
    /// up to whole lines, at least one; 0 bits per key turns the filter
    /// off: no lines, which pass every key.
    pub fn build_hashed(
        hashes: impl IntoIterator<Item = (u64, u64)>,
        count_hint: usize,
        bits_per_key: usize,
    ) -> Self {
        let lines = (count_hint * bits_per_key).div_ceil(LINE_BITS);
        let mut filter = Self::with_lines(lines.max(bits_per_key.min(1)));
        for key in hashes {
            filter.insert(key);
        }
        filter
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

    /// The line of a key whose first hash is `h1` (multiply-shift).
    fn line(&self, h1: u64) -> usize {
        ((h1 as u128 * self.lines.len() as u128) >> 64) as usize
    }

    /// The key's bits within its line.
    fn bits(h2: u64) -> impl Iterator<Item = usize> {
        (0..PROBES).map(move |i| (h2 >> (9 * i)) as usize & (LINE_BITS - 1))
    }

    /// Set the bits of the key hashed to `(h1, h2)`; a filter with no
    /// lines stays empty.
    pub fn insert(&mut self, (h1, h2): (u64, u64)) {
        let line = self.line(h1);
        if let Some(line) = self.lines.get_mut(line) {
            for bit in Self::bits(h2) {
                line[bit / 64] |= 1 << (bit % 64);
            }
        }
    }

    /// Clear every bit, keeping the lines.
    pub fn clear(&mut self) {
        self.lines.fill([0; 8]);
    }

    /// True if the key *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: impl FilterKey) -> bool {
        self.may_contain_hashed(key.hashes())
    }

    /// [`BloomFilter::may_contain`] for a key already hashed by
    /// [`BloomFilter::hashes`]. A filter with no lines passes every key.
    pub fn may_contain_hashed(&self, (h1, h2): (u64, u64)) -> bool {
        let line = self.lines.get(self.line(h1));
        line.is_none_or(|line| Self::bits(h2).all(|bit| line[bit / 64] & (1 << (bit % 64)) != 0))
    }

    /// Serialize, appended to `out`: each line's words little-endian,
    /// then the tag byte.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        for word in self.lines.iter().flatten() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.push(TAG);
    }

    /// Inverse of [`BloomFilter::encode_into`]. A section of the format
    /// before lines decodes to a filter with no lines; `None` on anything
    /// else it does not recognise.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        let (&tag, body) = raw.split_last()?;
        match tag {
            1..=30 => Some(Self::default()),
            TAG if body.len() % 64 == 0 => {
                let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
                let line = |l: &[u8]| std::array::from_fn(|i| word(&l[8 * i..8 * i + 8]));
                Some(BloomFilter {
                    lines: body.chunks_exact(64).map(line).collect(),
                })
            }
            _ => None,
        }
    }

    /// Size of the encoded filter.
    pub fn encoded_len(&self) -> usize {
        self.lines.len() * 64 + 1
    }
}

/// What a probe takes: a key, or the pair [`BloomFilter::hashes`] made
/// of it.
pub trait FilterKey {
    fn hashes(self) -> (u64, u64);
}

impl<K: AsRef<[u8]> + ?Sized> FilterKey for &K {
    fn hashes(self) -> (u64, u64) {
        BloomFilter::hashes(self.as_ref())
    }
}

impl FilterKey for (u64, u64) {
    fn hashes(self) -> (u64, u64) {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i:08}").into_bytes()).collect()
    }

    fn encode(f: &BloomFilter) -> Vec<u8> {
        let mut out = Vec::new();
        f.encode_into(&mut out);
        out
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
    fn ten_bits_per_key_pass_at_most_one_and_a_half_percent_of_absent_keys() {
        // Theory for 512-bit lines and six probes: ≈ 0.96 %, against
        // 0.84 % for an unblocked filter of the same size; 908 pass here.
        let ks = keys(100_000);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        assert_eq!(f.lines.len(), 1954, "ceil(100 000 × 10 / 512)");
        let fp = (0..100_000)
            .filter(|i| f.may_contain(format!("absent-{i:08}").as_bytes()))
            .count();
        assert!(fp <= 1_500, "{fp} false positives in 100 000");
    }

    #[test]
    fn an_insert_sets_bits_in_one_line() {
        let mut f = BloomFilter::for_budget(64 << 10);
        assert_eq!(f.lines.len(), 16, "one line per 4 KiB");
        f.insert(BloomFilter::hashes(b"k"));
        let set: Vec<u32> = f
            .lines
            .iter()
            .map(|l| l.iter().map(|w| w.count_ones()).sum())
            .collect();
        assert_eq!(set.iter().filter(|&&n| n > 0).count(), 1);
        assert!((1..=6).contains(&set.iter().sum::<u32>()));
        f.clear();
        assert_eq!((f.lines.len(), f.may_contain(b"k")), (16, false));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(100);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 100, 10);
        let raw = encode(&f);
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
    fn a_section_of_the_format_before_lines_passes_every_key() {
        // "bits ‖ k": the unblocked filter's bytes, then its probe count.
        for k in [1, 6, 30] {
            let old = BloomFilter::decode(&[0, 0, 0, 0, 0, 0, 0, 0, k]).expect("old format");
            assert_eq!(old, BloomFilter::default());
            assert_eq!(old.encoded_len(), 1);
            assert!(keys(100).iter().all(|key| old.may_contain(key)));
        }
        // A tagged section must hold whole lines.
        assert!(BloomFilter::decode(&[0; 64]).is_none());
        let mut torn = vec![0; 65];
        torn.push(TAG);
        assert!(BloomFilter::decode(&torn).is_none());
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

        #[test]
        fn prop_no_false_negative_through_encode_and_decode(
            members in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..24), 0..600),
            bits_per_key in 1usize..20,
            budget in 0usize..40_000,
            by_budget: bool,
        ) {
            // Either sizing rule, filled past what it was sized for.
            let hashes = members.iter().map(|k| BloomFilter::hashes(k));
            let f = if by_budget {
                let mut f = BloomFilter::for_budget(budget);
                hashes.for_each(|h| f.insert(h));
                f
            } else {
                BloomFilter::build_hashed(hashes, members.len() / 2, bits_per_key)
            };
            let mut raw = vec![0xaa];
            f.encode_into(&mut raw);
            proptest::prop_assert_eq!(raw.len(), 1 + f.encoded_len());
            let g = BloomFilter::decode(&raw[1..]).expect("decodes");
            for k in &members {
                proptest::prop_assert!(g.may_contain(k));
            }
            proptest::prop_assert_eq!(&g, &f);
        }
    }
}
