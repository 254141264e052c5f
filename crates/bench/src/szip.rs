//! `szip`: a small LZ77-class compressor standing in for snappy.
//!
//! The paper's Fig 6 baselines compress array-table payloads with snappy,
//! per pair (Array-snappy) or per 8-pair group (Array-snappy-group). Since
//! external codec crates are off the approved dependency list, this module
//! implements the same architecture snappy uses — a greedy hash-table
//! matcher emitting literal and copy tags — so the baselines pay a
//! *realistic* relative CPU and ratio cost.
//!
//! Format (little-endian):
//! - varint: uncompressed length
//! - stream of tags:
//!   - literal: `0b000000LL` where LL+1 extra length bytes follow for long
//!     runs, or `len-1 <= 59` packed directly in the upper 6 bits
//!   - copy: `0bOOOOOL01` 2-byte offset copy (as in snappy's copy-2 tag)

use encoding::varint;

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 14;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes(data[..4].try_into().unwrap());
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compress `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    varint::put_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
        let candidate = table[h];
        table[h] = pos;
        if candidate != usize::MAX
            && pos - candidate <= MAX_OFFSET
            && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
        {
            // Flush pending literal.
            emit_literal(&mut out, &input[literal_start..pos]);
            // Extend the match.
            let mut len = MIN_MATCH;
            while pos + len < input.len()
                && input[candidate + len] == input[pos + len]
                && len < 64 + MIN_MATCH - 1
            {
                len += 1;
            }
            emit_copy(&mut out, pos - candidate, len);
            pos += len;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    emit_literal(&mut out, &input[literal_start..]);
    out
}

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    let mut rest = lit;
    while !rest.is_empty() {
        let take = rest.len().min(60);
        out.push((take as u8 - 1) << 2); // tag 0b00: literal
        out.extend_from_slice(&rest[..take]);
        rest = &rest[take..];
    }
}

fn emit_copy(out: &mut Vec<u8>, offset: usize, len: usize) {
    debug_assert!((MIN_MATCH..MIN_MATCH + 64).contains(&len));
    debug_assert!(offset <= MAX_OFFSET);
    out.push((((len - MIN_MATCH) as u8) << 2) | 0b01);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
}

/// Errors from [`decompress`].
#[derive(Debug, PartialEq, Eq)]
pub enum SzipError {
    /// Header or tag stream truncated.
    Truncated,
    /// A copy references data before the output start.
    BadOffset,
    /// Output did not reach the declared length.
    LengthMismatch,
}

impl std::fmt::Display for SzipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzipError::Truncated => write!(f, "szip stream truncated"),
            SzipError::BadOffset => write!(f, "szip copy offset out of range"),
            SzipError::LengthMismatch => {
                write!(f, "szip output length mismatch")
            }
        }
    }
}

impl std::error::Error for SzipError {}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SzipError> {
    let (expected, mut pos) = varint::get_u64(input).ok_or(SzipError::Truncated)?;
    let expected = expected as usize;
    let mut out = Vec::with_capacity(expected);
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        match tag & 0b11 {
            0b00 => {
                let len = (tag >> 2) as usize + 1;
                if pos + len > input.len() {
                    return Err(SzipError::Truncated);
                }
                out.extend_from_slice(&input[pos..pos + len]);
                pos += len;
            }
            0b01 => {
                let len = (tag >> 2) as usize + MIN_MATCH;
                if pos + 2 > input.len() {
                    return Err(SzipError::Truncated);
                }
                let offset = u16::from_le_bytes(input[pos..pos + 2].try_into().unwrap()) as usize;
                pos += 2;
                if offset == 0 || offset > out.len() {
                    return Err(SzipError::BadOffset);
                }
                let start = out.len() - offset;
                // Overlapping copies must be byte-by-byte.
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => return Err(SzipError::Truncated),
        }
    }
    if out.len() != expected {
        return Err(SzipError::LengthMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty_and_tiny() {
        for input in [&b""[..], b"a", b"ab", b"abc"] {
            let c = compress(input);
            assert_eq!(decompress(&c).unwrap(), input);
        }
    }

    #[test]
    fn roundtrip_repetitive_compresses() {
        let input: Vec<u8> = b"orderrow-".iter().cycle().take(4096).copied().collect();
        let c = compress(&input);
        assert!(
            c.len() < input.len() / 4,
            "ratio {}/{}",
            c.len(),
            input.len()
        );
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        let mut rng = 0x12345678u64;
        let input: Vec<u8> = (0..4096)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng >> 33) as u8
            })
            .collect();
        let c = compress(&input);
        // Worst case: one tag byte per 60 literals plus header.
        assert!(c.len() < input.len() + input.len() / 50 + 16);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn overlapping_copy_roundtrips() {
        // "aaaa..." forces offset-1 overlapping copies.
        let input = vec![b'a'; 1000];
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
        assert!(c.len() < 64);
    }

    #[test]
    fn truncated_stream_detected() {
        let c = compress(b"hello hello hello hello");
        for cut in 1..c.len() {
            // Every strict prefix must fail, not panic.
            let r = decompress(&c[..cut]);
            assert!(r.is_err(), "prefix of len {cut} decoded");
        }
    }

    #[test]
    fn bad_offset_detected() {
        let mut buf = Vec::new();
        varint::put_u64(&mut buf, 4);
        // copy tag of len 4 with offset 9 into empty output
        buf.push(0b01);
        buf.extend_from_slice(&9u16.to_le_bytes());
        assert_eq!(decompress(&buf), Err(SzipError::BadOffset));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut buf = Vec::new();
        varint::put_u64(&mut buf, 10); // claims 10 bytes
        buf.push(0b00); // literal of 1
        buf.push(b'x');
        assert_eq!(decompress(&buf), Err(SzipError::LengthMismatch));
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip(input: Vec<u8>) {
            let c = compress(&input);
            proptest::prop_assert_eq!(decompress(&c).unwrap(), input);
        }

        #[test]
        fn prop_roundtrip_structured(
            word in proptest::collection::vec(0u8..4, 1..8),
            reps in 1usize..400,
        ) {
            // Low-entropy repetitive inputs exercise the copy path.
            let input: Vec<u8> =
                word.iter().cycle().take(word.len() * reps).copied().collect();
            let c = compress(&input);
            proptest::prop_assert_eq!(decompress(&c).unwrap(), input);
        }
    }
}
