//! Delta + zigzag transforms and the flush-batch codec analyzer.
//!
//! The PM table's numeric codecs store a group's fixed-width key
//! remainders as one base value plus zigzag-encoded wrapping deltas
//! ([`deltas`]/[`undelta`]), bit-packed at the width of the largest delta
//! (see [`crate::bitpack`]). Wrapping arithmetic makes the transform total:
//! any `u64` sequence round-trips, including strides that cross the
//! `u64` overflow boundary in either direction.
//!
//! [`CodecStats`] is the build-side analyzer: a running fold over the
//! entries of one output table (entry count, whether keys and values
//! are fixed-width, the shared key prefix) from which the engine rules
//! codecs in or out before encoding anything.

/// Map a signed value to an unsigned one with small magnitudes staying
/// small: 0, -1, 1, -2, … → 0, 1, 2, 3, …
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Zigzag-encoded wrapping forward differences: element `i` encodes
/// `values[i + 1] - values[i]` (mod 2^64). Empty or single-element input
/// yields an empty vector.
pub fn deltas(values: &[u64]) -> Vec<u64> {
    let mut out = values.to_vec();
    deltas_in_place(&mut out);
    out
}

/// [`deltas`] computed in the input's own buffer, which ends up one
/// element shorter (empty stays empty).
pub fn deltas_in_place(values: &mut Vec<u64>) {
    for i in 1..values.len() {
        values[i - 1] = zigzag_encode(values[i].wrapping_sub(values[i - 1]) as i64);
    }
    values.pop();
}

/// Rebuild the original sequence from its first value and [`deltas`],
/// one value per pull.
pub fn undelta(first: u64, deltas: impl Iterator<Item = u64>) -> impl Iterator<Item = u64> {
    let rest = deltas.scan(first, |cur, d| {
        *cur = cur.wrapping_add(zigzag_decode(d) as u64);
        Some(*cur)
    });
    std::iter::once(first).chain(rest)
}

/// Interpret up to the last 8 bytes of `bytes` as a big-endian integer.
/// Big-endian keeps numeric order aligned with lexicographic order for
/// fixed-width byte strings, which is what makes delta-coding sorted key
/// remainders meaningful.
#[inline]
pub fn be_suffix_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .take(8)
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | b as u64)
}

/// Shape statistics over one sorted batch of entries (the contents of
/// one output table), used to pre-select codec candidates before any
/// encoding. Folded one entry at a time: [`CodecStats::add`] keeps O(1)
/// state, and the batch's common prefix is the LCP of its first and
/// last key, which whoever buffers the batch fills in at the end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Number of entries inspected.
    pub entries: usize,
    /// `Some(w)` when every key is exactly `w` bytes long.
    pub fixed_key_width: Option<usize>,
    /// `Some(w)` when every value is exactly `w` bytes long.
    pub fixed_value_width: Option<usize>,
    /// Length of the prefix shared by every key in the batch.
    pub batch_lcp: usize,
}

impl CodecStats {
    /// Fold in the next entry's key and value lengths.
    pub fn add(&mut self, key_len: usize, value_len: usize) {
        if self.entries == 0 {
            self.fixed_key_width = Some(key_len);
            self.fixed_value_width = Some(value_len);
        }
        self.fixed_key_width = self.fixed_key_width.filter(|&w| w == key_len);
        self.fixed_value_width = self.fixed_value_width.filter(|&w| w == value_len);
        self.entries += 1;
    }

    /// Analyze a batch of keys plus their value lengths in one call.
    /// The common prefix is folded over every key, so unlike the
    /// first-and-last shortcut it needs no sortedness.
    pub fn analyze(keys: &[&[u8]], value_lens: &[usize]) -> CodecStats {
        let mut stats = CodecStats::default();
        for (key, &value_len) in keys.iter().zip(value_lens) {
            stats.add(key.len(), value_len);
        }
        if let Some(first) = keys.first() {
            let shared = keys
                .iter()
                .map(|k| crate::prefix::common_prefix_len(first, k));
            stats.batch_lcp = shared.min().unwrap_or(0);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_maps_small_magnitudes_low() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
        for v in [-3i64, 0, 5, i64::MAX, i64::MIN, -1_000_000] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn delta_roundtrip_monotonic() {
        let values: Vec<u64> = (0..50).map(|i| 1_000 + i * 17).collect();
        let d = deltas(&values);
        assert!(d.iter().all(|&x| x == zigzag_encode(17)));
        assert!(undelta(values[0], d.into_iter()).eq(values));
    }

    #[test]
    fn delta_roundtrip_across_overflow_boundary() {
        // Strides that wrap past u64::MAX and back must round-trip.
        let values = [u64::MAX - 1, u64::MAX, 0, 1, u64::MAX, 5];
        let d = deltas(&values);
        assert!(undelta(values[0], d.into_iter()).eq(values));
    }

    #[test]
    fn be_suffix_takes_trailing_bytes() {
        assert_eq!(be_suffix_u64(b""), 0);
        assert_eq!(be_suffix_u64(&[0x12]), 0x12);
        assert_eq!(be_suffix_u64(&[1, 2, 3]), 0x010203);
        assert_eq!(
            be_suffix_u64(&[0xff, 1, 2, 3, 4, 5, 6, 7, 8]),
            0x0102030405060708
        );
    }

    #[test]
    fn stats_on_monotonic_fixed_width_batch() {
        let owned: Vec<Vec<u8>> = (0u64..100)
            .map(|i| (i * 3).to_be_bytes().to_vec())
            .collect();
        let keys: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
        let lens = vec![8usize; keys.len()];
        let s = CodecStats::analyze(&keys, &lens);
        assert_eq!(s.entries, 100);
        assert_eq!(s.fixed_key_width, Some(8));
        assert_eq!(s.fixed_value_width, Some(8));
        // 0..=297 differ in the last two bytes only.
        assert_eq!(s.batch_lcp, 6);
    }

    #[test]
    fn stats_on_ragged_batch() {
        let keys: Vec<&[u8]> = vec![b"a", b"ab", b"b", b"cdefghijk"];
        let lens = vec![1usize, 2, 3, 4];
        let s = CodecStats::analyze(&keys, &lens);
        assert_eq!(s.fixed_key_width, None);
        assert_eq!(s.fixed_value_width, None);
        assert_eq!(s.batch_lcp, 0);
        // A width that recurs after a different one stays ragged.
        let s = CodecStats::analyze(&[b"ab", b"abc", b"ad"], &[7, 7, 7]);
        assert_eq!(s.fixed_key_width, None);
        assert_eq!(s.fixed_value_width, Some(7));
        assert_eq!(s.batch_lcp, 1);
    }

    #[test]
    fn stats_empty_batch() {
        let s = CodecStats::analyze(&[], &[]);
        assert_eq!(s, CodecStats::default());
        assert_eq!(s.fixed_key_width, None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn prop_delta_roundtrip(values in proptest::collection::vec(0u64..=u64::MAX, 1..120)) {
            let d = deltas(&values);
            proptest::prop_assert!(undelta(values[0], d.into_iter()).eq(values));
        }

        #[test]
        fn prop_zigzag_roundtrip(v in i64::MIN..i64::MAX) {
            proptest::prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn prop_overflow_boundary_strides(
            start in 0u64..=u64::MAX,
            stride in 0u64..=u64::MAX,
            n in 2usize..64,
        ) {
            // Arithmetic sequences with arbitrary wrapping stride, which
            // deliberately cross the u64 boundary for large strides.
            let mut values = Vec::with_capacity(n);
            let mut cur = start;
            for _ in 0..n {
                values.push(cur);
                cur = cur.wrapping_add(stride);
            }
            let d = deltas(&values);
            proptest::prop_assert!(undelta(values[0], d.into_iter()).eq(values));
        }
    }
}
