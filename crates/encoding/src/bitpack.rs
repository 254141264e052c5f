//! Fixed-width bit packing for `u64` sequences.
//!
//! Values are packed LSB-first at a uniform bit width chosen by the
//! caller (normally [`width_for`] of the largest value). The layout is
//! deliberately trivial — no blocks, no exceptions — because PM table
//! groups are small (8–16 entries) and the decoder must stay branch-light
//! on the hot read path.

/// Bits needed to represent `v`; 0 for `v == 0` (an all-zero sequence
/// packs to zero bytes).
#[inline]
pub fn width_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Bytes occupied by `count` values packed at `width` bits each.
#[inline]
pub fn packed_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Append `values` to `out`, each truncated to `width` bits, LSB-first.
///
/// Every value must fit in `width` bits (`debug_assert`ed); `width` may
/// be 0 (nothing is written) up to 64 (verbatim little-endian-ish u64s).
pub fn pack(values: &[u64], width: u32, out: &mut Vec<u8>) {
    assert!(width <= 64, "bit width {width} out of range");
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    for &v in values {
        debug_assert!(
            width == 64 || v >> width == 0,
            "value {v} exceeds width {width}"
        );
        acc |= (v as u128) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
}

/// The `count` values of `width` bits at the front of `data`, decoded as
/// they are pulled. Returns `None` if `data` is too short or `width` is
/// out of range.
pub fn unpack(data: &[u8], width: u32, count: usize) -> Option<impl Iterator<Item = u64> + '_> {
    if width > 64 || data.len() < packed_len(count, width) {
        return None;
    }
    let mask: u128 = if width == 64 {
        u64::MAX as u128
    } else {
        (1u128 << width) - 1
    };
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    let mut pos = 0usize;
    Some((0..count).map(move |_| {
        while nbits < width {
            acc |= (data[pos] as u128) << nbits;
            pos += 1;
            nbits += 8;
        }
        let value = (acc & mask) as u64;
        acc >>= width;
        nbits -= width;
        value
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], width: u32) {
        let mut buf = Vec::new();
        pack(values, width, &mut buf);
        assert_eq!(buf.len(), packed_len(values.len(), width));
        let got: Vec<u64> = unpack(&buf, width, values.len()).unwrap().collect();
        assert_eq!(got, values);
    }

    #[test]
    fn width_for_edges() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn zero_width_packs_to_nothing() {
        let mut buf = Vec::new();
        pack(&[0, 0, 0], 0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(unpack(&buf, 0, 3).unwrap().collect::<Vec<_>>(), [0, 0, 0]);
    }

    #[test]
    fn non_byte_aligned_widths_roundtrip() {
        for width in [1, 3, 5, 7, 9, 13, 17, 31, 33, 63, 64] {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let values: Vec<u64> = (0..25u64).map(|i| (i * 0x9E37_79B9) & max).collect();
            roundtrip(&values, width);
        }
    }

    #[test]
    fn full_width_is_verbatim() {
        roundtrip(&[u64::MAX, 0, 1, u64::MAX - 1], 64);
    }

    #[test]
    fn unpack_rejects_short_input() {
        assert!(unpack(&[0u8; 3], 13, 3).is_none());
        assert!(unpack(&[], 1, 1).is_none());
        assert!(unpack(&[0], 65, 0).is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn prop_pack_unpack_roundtrip(values in proptest::collection::vec(0u64..=u64::MAX, 0..80)) {
            let width = values.iter().copied().map(width_for).max().unwrap_or(0);
            roundtrip(&values, width);
            // A wider width must also round-trip (padding bits are zero).
            if width < 64 {
                roundtrip(&values, width + 1);
            }
        }
    }
}
