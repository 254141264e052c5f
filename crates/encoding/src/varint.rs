//! LEB128 unsigned varints.
//!
//! Every table format in the workspace encodes lengths and offsets as
//! varints, matching the LevelDB/RocksDB convention.

/// Append `value` to `out` as a varint. Returns the number of bytes written.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let start = out.len();
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
    out.len() - start
}

/// Append a u32 varint.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, value: u32) -> usize {
    put_u64(out, value as u64)
}

/// Decode a varint from the front of `buf`. Returns `(value, bytes_read)`,
/// or `None` if the buffer is truncated or the encoding overflows u64.
#[inline]
pub fn get_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return None; // overflow
        }
        let low = (b & 0x7f) as u64;
        if shift == 63 && low > 1 {
            return None; // overflow in the final group
        }
        result |= low << shift;
        if b & 0x80 == 0 {
            return Some((result, i + 1));
        }
        shift += 7;
    }
    None // truncated
}

/// Decode a u32 varint; rejects values that do not fit.
#[inline]
pub fn get_u32(buf: &[u8]) -> Option<(u32, usize)> {
    let (v, n) = get_u64(buf)?;
    if v > u32::MAX as u64 {
        None
    } else {
        Some((v as u32, n))
    }
}

/// A cursor for sequentially decoding varint-framed records.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn read_u64(&mut self) -> Option<u64> {
        let (v, n) = get_u64(&self.buf[self.pos..])?;
        self.pos += n;
        Some(v)
    }

    pub fn read_u32(&mut self) -> Option<u32> {
        let (v, n) = get_u32(&self.buf[self.pos..])?;
        self.pos += n;
        Some(v)
    }

    /// Read `len` raw bytes.
    pub fn read_bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.remaining() < len {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Some(s)
    }

    /// Read a length-prefixed byte string.
    pub fn read_slice(&mut self) -> Option<&'a [u8]> {
        let len = self.read_u32()? as usize;
        self.read_bytes(len)
    }
}

/// Append a length-prefixed byte string.
#[inline]
pub fn put_slice(out: &mut Vec<u8>, s: &[u8]) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encoded length of `value` without writing it (the oracle).
    fn len_u64(value: u64) -> usize {
        if value == 0 {
            1
        } else {
            (64 - value.leading_zeros() as usize).div_ceil(7)
        }
    }

    #[test]
    fn roundtrip_representative_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            let n = put_u64(&mut buf, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, len_u64(v), "len_u64 disagrees for {v}");
            let (decoded, read) = get_u64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(read, n);
        }
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1_000_000);
        assert!(get_u64(&buf[..buf.len() - 1]).is_none());
        assert!(get_u64(&[]).is_none());
    }

    #[test]
    fn continuation_only_bytes_rejected() {
        // Eleven continuation bytes can never terminate a u64.
        let buf = [0x80u8; 11];
        assert!(get_u64(&buf).is_none());
    }

    #[test]
    fn u32_rejects_oversized() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u32::MAX as u64 + 1);
        assert!(get_u32(&buf).is_none());
        buf.clear();
        put_u64(&mut buf, u32::MAX as u64);
        assert_eq!(get_u32(&buf).unwrap().0, u32::MAX);
    }

    #[test]
    fn reader_walks_mixed_records() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        put_slice(&mut buf, b"hello");
        put_u32(&mut buf, 99);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_u64(), Some(7));
        assert_eq!(r.read_slice(), Some(&b"hello"[..]));
        assert_eq!(r.read_u32(), Some(99));
        assert!(r.is_empty());
        assert_eq!(r.read_u64(), None);
    }

    #[test]
    fn reader_read_bytes_bounds() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_bytes(2), Some(&[1u8, 2][..]));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.read_bytes(2), None, "over-read must fail");
        assert_eq!(r.read_bytes(1), Some(&[3u8][..]));
    }

    proptest::proptest! {
        #[test]
        fn prop_roundtrip(v: u64) {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let (decoded, n) = get_u64(&buf).unwrap();
            proptest::prop_assert_eq!(decoded, v);
            proptest::prop_assert_eq!(n, buf.len());
        }

        #[test]
        fn prop_len_matches(v: u64) {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            proptest::prop_assert_eq!(buf.len(), len_u64(v));
        }
    }
}
