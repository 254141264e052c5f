//! CRC32C (Castagnoli polynomial).
//!
//! On an x86_64 CPU with SSE4.2, found at run time, the `crc32`
//! instruction does the work: three independent 256-byte lanes at once
//! on a long buffer, one stream on the rest. Every other CPU runs
//! slice-by-8 tables, [`extend_portable`], which is also the oracle the
//! hardware path is tested against. Both give the same value for every
//! input, so nothing stored depends on which one ran.
//!
//! Used as the block checksum for SSTables and the WAL, and as a sanity
//! check on PM table frames during recovery. The masked form follows the
//! LevelDB convention so a checksum stored alongside the data it covers
//! does not collide with the data's own CRC.

const POLY: u32 = 0x82F63B78; // reflected CRC32C polynomial

/// 8-way slicing tables computed at first use.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            t[0][i as usize] = crc;
        }
        for i in 0..256usize {
            let mut crc = t[0][i];
            for slice in 1..8 {
                crc = t[0][(crc & 0xff) as usize] ^ (crc >> 8);
                t[slice][i] = crc;
            }
        }
        t
    })
}

/// Compute the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extend a running CRC with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42::extend` enables SSE4.2 and no other target
        // feature, and the run-time check above found SSE4.2 on this CPU.
        return unsafe { sse42::extend(crc, data) };
    }
    extend_portable(crc, data)
}

/// [`extend`] on slice-by-8 tables: the path of every CPU without
/// SSE4.2, and the oracle the hardware path is tested against.
pub fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The `crc32` instruction's kernel. It works on the raw register (the
/// CRC before its final complement), which is linear: the register of
/// `A ‖ B` is `A`'s register moved past `len(B)` zero bytes, XOR `B`'s
/// register started from zero. That lets three lanes run apart.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    use std::sync::OnceLock;

    /// Bytes per lane. A lane's `crc32` waits on the one before it, so
    /// three lanes keep three in flight; the lanes are rejoined once per
    /// `3 * LANE` bytes.
    const LANE: usize = 256;

    /// `t[k][b]`: the raw register after `LANE` zero bytes, started from
    /// `b << 8k`. Built once, at first use.
    fn shift_table() -> &'static [[u32; 256]; 4] {
        static TABLE: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = [[0; 256]; 4];
            for (k, row) in t.iter_mut().enumerate() {
                for (b, raw) in (0u32..).zip(row.iter_mut()) {
                    *raw = !super::extend_portable(!(b << (8 * k)), &[0; LANE]);
                }
            }
            t
        })
    }

    /// Raw register `crc` moved past `LANE` zero bytes.
    fn shift(t: &[[u32; 256]; 4], crc: u32) -> u32 {
        let [b0, b1, b2, b3] = crc.to_le_bytes().map(usize::from);
        t[0][b0] ^ t[1][b1] ^ t[2][b2] ^ t[3][b3]
    }

    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
    }

    /// [`super::extend`] on the `crc32` instruction.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn extend(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        let mut blocks = data.chunks_exact(3 * LANE);
        for block in &mut blocks {
            let (a, rest) = block.split_at(LANE);
            let (b, c) = rest.split_at(LANE);
            let (mut x, mut y, mut z) = (u64::from(crc), 0, 0);
            let words = a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8));
            for ((a, b), c) in words {
                x = _mm_crc32_u64(x, word(a));
                y = _mm_crc32_u64(y, word(b));
                z = _mm_crc32_u64(z, word(c));
            }
            let t = shift_table();
            crc = shift(t, shift(t, x as u32) ^ y as u32) ^ z as u32;
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for w in &mut words {
            crc = _mm_crc32_u64(u64::from(crc), word(w)) as u32;
        }
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        !crc
    }
}

const MASK_DELTA: u32 = 0xa282ead8;

/// Mask a CRC so it is safe to store alongside the covered bytes.
#[inline]
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Invert [`mask`].
#[inline]
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 CRC32C test vectors, through both paths.
        let ascending: Vec<u8> = (0..32).collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0u8; 32], 0x8A9136AA),
            (&[0xffu8; 32], 0x62A8AB43),
            (&ascending, 0x46DD794E),
            (b"123456789", 0xE3069283),
        ];
        for (data, crc) in vectors {
            assert_eq!(crc32c(data), crc);
            assert_eq!(extend_portable(0, data), crc);
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn extend_equals_whole() {
        let data = b"hello world, this is a crc test spanning chunks";
        let whole = crc32c(data);
        let split = extend(crc32c(&data[..13]), &data[13..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn mask_roundtrip_and_differs() {
        for crc in [0u32, 1, 0xdeadbeef, u32::MAX] {
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc, "mask must change the value");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some block payload".to_vec();
        let before = crc32c(&data);
        data[5] ^= 0x40;
        assert_ne!(crc32c(&data), before);
    }

    #[test]
    fn hardware_crc_equals_portable_at_lane_edges() {
        // One byte short of three lanes, exactly three, one past; two
        // rounds; a 4 KiB block with and without a tail.
        for len in [767, 768, 769, 1536, 4096, 4100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + i / 256) as u8).collect();
            for crc in [0, 0x1234_5678, u32::MAX] {
                assert_eq!(
                    extend(crc, &data),
                    extend_portable(crc, &data),
                    "{len} bytes"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_extend_associative(data: Vec<u8>, split in 0usize..64) {
            let split = split.min(data.len());
            let whole = crc32c(&data);
            let parts = extend(crc32c(&data[..split]), &data[split..]);
            proptest::prop_assert_eq!(whole, parts);
        }

        #[test]
        fn prop_hardware_crc_equals_portable(
            data in proptest::collection::vec(0u8..=255, 0..=3087),
            crc: u32,
            split: usize,
        ) {
            proptest::prop_assert_eq!(extend(crc, &data), extend_portable(crc, &data));
            // Any split, so one inside a lane too: the lanes of `a ‖ b`
            // start where `a`'s did not.
            let (a, b) = data.split_at(split % (data.len() + 1));
            proptest::prop_assert_eq!(extend(crc32c(a), b), crc32c(&data));
        }
    }
}
