//! The CRC frame: the one record format of the WAL, the manifest and
//! the wire protocol.
//!
//! ```text
//! u32le payload_len | u32le masked crc32c(payload) | payload
//! ```
//!
//! The CRC is masked ([`crc::mask`]) so a payload that embeds another
//! CRC still checksums well. A log is a run of frames; [`Frames`] reads
//! the intact ones at its front and reports where they end, which is
//! where a torn or corrupt tail begins.

use crate::crc;

/// Bytes of frame header: payload length + masked CRC.
pub const HEADER: usize = 8;

/// The header of the frame around `payload`.
pub fn header(payload: &[u8]) -> [u8; HEADER] {
    let mut header = [0u8; HEADER];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&crc::mask(crc::crc32c(payload)).to_le_bytes());
    header
}

/// Parse a header: the payload length it announces and the payload's
/// CRC32C (unmasked).
pub fn parse_header(header: &[u8; HEADER]) -> (usize, u32) {
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let masked = u32::from_le_bytes(header[4..8].try_into().unwrap());
    (len, crc::unmask(masked))
}

/// Append one whole frame to `out`: reserve the header, let `payload`
/// encode in place behind it, then patch length and CRC in.
pub fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER]);
    payload(out);
    let header = header(&out[start + HEADER..]);
    out[start..start + HEADER].copy_from_slice(&header);
}

/// The payloads of the intact frames at the front of a buffer, in
/// order. Stops at the first frame that is cut short or fails its CRC:
/// everything from there on is a torn or corrupt tail.
#[derive(Clone, Debug)]
pub struct Frames<'a> {
    buf: &'a [u8],
    intact: usize,
}

impl<'a> Frames<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Frames { buf, intact: 0 }
    }

    /// Bytes spanned by the frames yielded so far.
    pub fn intact_len(&self) -> usize {
        self.intact
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.buf[self.intact..];
        let (len, crc) = parse_header(rest.first_chunk()?);
        let payload = rest.get(HEADER..HEADER.checked_add(len)?)?;
        if crc::crc32c(payload) != crc {
            return None;
        }
        self.intact += HEADER + len;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_is_length_then_masked_crc() {
        let mut out = vec![0xAA];
        frame_into(&mut out, |out| out.extend_from_slice(b"abc"));
        assert_eq!(out[1..5], 3u32.to_le_bytes());
        assert_eq!(out[5..9], crc::mask(crc::crc32c(b"abc")).to_le_bytes());
        assert_eq!(&out[9..], b"abc");
        assert_eq!(header(b"abc"), out[1..9]);
        assert_eq!(parse_header(&header(b"abc")), (3, crc::crc32c(b"abc")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Frames back to back, then one kind of damage: a truncation,
        /// a flipped bit, appended garbage, or an appended header that
        /// announces `u32::MAX` bytes. The reader yields exactly the
        /// payloads wholly before the first damaged byte.
        #[test]
        fn prop_reader_stops_at_the_first_damaged_frame(
            lens in proptest::collection::vec(
                prop_oneof![1 => Just(0usize), 4 => 1usize..48, 1 => 65_536usize..65_600],
                0..6,
            ),
            seed: u8,
            damage in 0u8..4,
            at: usize,
            garbage in proptest::collection::vec(0u8..=255, 0..24),
        ) {
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8 ^ seed).collect())
                .collect();
            let mut buf = Vec::new();
            let mut ends = Vec::new();
            for p in &payloads {
                frame_into(&mut buf, |out| out.extend_from_slice(p));
                ends.push(buf.len());
            }
            let first_bad = match damage {
                0 => {
                    buf.truncate(at % (buf.len() + 1));
                    buf.len()
                }
                1 if !buf.is_empty() => {
                    let i = at % buf.len();
                    buf[i] ^= 1 << (seed % 8);
                    i
                }
                2 => {
                    let end = buf.len();
                    buf.extend_from_slice(&garbage);
                    end
                }
                _ => {
                    let end = buf.len();
                    buf.extend_from_slice(&u32::MAX.to_le_bytes());
                    buf.extend_from_slice(&garbage);
                    end
                }
            };
            let whole = ends.iter().filter(|&&end| end <= first_bad).count();
            let mut frames = Frames::new(&buf);
            let got: Vec<&[u8]> = frames.by_ref().collect();
            prop_assert_eq!(got.len(), whole);
            for (got, want) in got.iter().zip(&payloads) {
                prop_assert_eq!(*got, &want[..]);
            }
            prop_assert_eq!(frames.intact_len(), if whole == 0 { 0 } else { ends[whole - 1] });
            prop_assert!(frames.intact_len() <= buf.len());
            prop_assert!(frames.next().is_none(), "the reader stays stopped");
        }
    }
}
