//! Shared-prefix utilities for the PM table's prefix layer (§IV-A).
//!
//! The PM table groups consecutive sorted keys (8 or 16 per group), extracts
//! a fixed-length prefix from each group's first key into a dense prefix
//! array that supports fast binary search, and stores the per-entry key
//! remainders (prefix stripped) in the entry layer.

/// Length of the longest common prefix of `a` and `b`.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    // Compare 8 bytes at a time.
    while i + 8 <= n {
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        if wa != wb {
            return i + ((wa ^ wb).trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// A fixed-width prefix extracted from a key, zero-padded on the right.
///
/// Fixed width is what makes the prefix layer binary-searchable without
/// indirection: the paper stresses that "as the prefixes are fixed-sized, a
/// binary search on them will be efficient."
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FixedPrefix<const W: usize>([u8; W]);

impl<const W: usize> FixedPrefix<W> {
    pub fn of(key: &[u8]) -> Self {
        let mut p = [0u8; W];
        let n = key.len().min(W);
        p[..n].copy_from_slice(&key[..n]);
        FixedPrefix(p)
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcp_basics() {
        assert_eq!(common_prefix_len(b"", b""), 0);
        assert_eq!(common_prefix_len(b"abc", b"abd"), 2);
        assert_eq!(common_prefix_len(b"abc", b"abc"), 3);
        assert_eq!(common_prefix_len(b"abc", b"abcdef"), 3);
        assert_eq!(common_prefix_len(b"xyz", b"abc"), 0);
    }

    #[test]
    fn lcp_wide_inputs_use_word_path() {
        let a = b"0123456789abcdefXtail";
        let b = b"0123456789abcdefYtail";
        assert_eq!(common_prefix_len(a, b), 16);
        let c = b"0123456789abcdef";
        assert_eq!(common_prefix_len(a, c), 16);
    }

    #[test]
    fn fixed_prefix_pads_and_orders() {
        let a = FixedPrefix::<8>::of(b"ab");
        let b = FixedPrefix::<8>::of(b"abc");
        assert!(a < b, "padding keeps shorter keys first");
        assert_eq!(a.as_bytes(), b"ab\0\0\0\0\0\0");
    }

    proptest::proptest! {
        #[test]
        fn prop_lcp_is_symmetric_and_bounded(a: Vec<u8>, b: Vec<u8>) {
            let l = common_prefix_len(&a, &b);
            proptest::prop_assert_eq!(l, common_prefix_len(&b, &a));
            proptest::prop_assert!(l <= a.len().min(b.len()));
            proptest::prop_assert_eq!(&a[..l], &b[..l]);
            if l < a.len() && l < b.len() {
                proptest::prop_assert_ne!(a[l], b[l]);
            }
        }
    }
}
