//! The per-group block codecs: one encoder and one decoder per codec
//! id, and the build policy that picks between the encoders.

use encoding::key;
use encoding::varint;
use encoding::{bitpack, delta};

use super::{CodecMode, CODEC_DELTA, CODEC_FIXED, CODEC_PREFIX};
use crate::{EntryRef, EntryRun};

/// Buffers the per-group encoders reuse from group to group.
#[derive(Default)]
pub(super) struct Scratch {
    /// Key remainders, then their deltas (codec 1); value offsets
    /// (codec 2).
    column: Vec<u64>,
    /// Trailer offsets.
    trailers: Vec<u64>,
    /// A candidate block [`CodecMode::Auto`] sizes up before choosing.
    block: Vec<u8>,
}

/// Encode one group under the build policy, returning the codec id used.
/// Forced modes use their codec wherever the group is eligible; `Auto`
/// takes the byte-cheapest candidate (ties prefer the lower codec id).
pub(super) fn encode_group(
    mode: CodecMode,
    slice: &[EntryRef<'_>],
    rests: &[&[u8]],
    lcp: usize,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> u8 {
    let Scratch {
        column,
        trailers,
        block,
    } = scratch;
    // Appends the group under `codec`, or nothing when it is ineligible.
    let mut candidate = |codec: u8, out: &mut Vec<u8>| match codec {
        CODEC_DELTA => encode_delta_block(slice, rests, lcp, column, trailers, out),
        _ => encode_fixed_block(slice, rests, lcp, column, trailers, out),
    };
    let forced = match mode {
        CodecMode::Prefix => None,
        CodecMode::Delta => Some(CODEC_DELTA),
        CodecMode::Fixed => Some(CODEC_FIXED),
        CodecMode::Auto => {
            let start = out.len();
            encode_prefix_block(slice, rests, lcp, out);
            let mut best = CODEC_PREFIX;
            for codec in [CODEC_DELTA, CODEC_FIXED] {
                block.clear();
                if candidate(codec, block) && block.len() < out.len() - start {
                    out.truncate(start);
                    out.extend_from_slice(block);
                    best = codec;
                }
            }
            return best;
        }
    };
    match forced {
        Some(codec) if candidate(codec, out) => codec,
        _ => {
            encode_prefix_block(slice, rests, lcp, out);
            CODEC_PREFIX
        }
    }
}

/// Codec 0: the original prefix-group block.
fn encode_prefix_block(slice: &[EntryRef<'_>], rests: &[&[u8]], lcp: usize, out: &mut Vec<u8>) {
    varint::put_u32(out, lcp as u32);
    out.extend_from_slice(&rests[0][..lcp]);
    for (e, rest) in slice.iter().zip(rests) {
        let krem = &rest[lcp..];
        varint::put_u32(out, krem.len() as u32);
        varint::put_u32(out, e.value.len() as u32);
        out.extend_from_slice(&key::pack_trailer(e.seq, e.kind).to_le_bytes());
        out.extend_from_slice(krem);
        out.extend_from_slice(e.value);
    }
}

/// Frame-of-reference transform of the group's trailers: fills
/// `offsets` and returns `(min, bit width)`. A flush batch assigns
/// sequences from a narrow window, so the 8-byte trailers pack into a
/// few bits each.
fn trailer_frame(slice: &[EntryRef<'_>], offsets: &mut Vec<u64>) -> (u64, u32) {
    offsets.clear();
    offsets.extend(slice.iter().map(|e| key::pack_trailer(e.seq, e.kind)));
    frame_of_reference(offsets)
}

/// Rebase `values` on their minimum; returns `(min, bit width of the
/// largest offset)`.
fn frame_of_reference(values: &mut [u64]) -> (u64, u32) {
    let min = values.iter().copied().min().unwrap_or(0);
    let mut bits = 0;
    for v in values {
        *v -= min;
        bits = bits.max(bitpack::width_for(*v));
    }
    (min, bits)
}

/// Codec 1: delta + zigzag + bit-packed key remainders. Eligible when the
/// group has ≥ 2 entries whose meta-stripped keys all share one length
/// and the post-LCP remainder is 1–8 bytes; appends nothing and returns
/// `false` otherwise.
fn encode_delta_block(
    slice: &[EntryRef<'_>],
    rests: &[&[u8]],
    lcp: usize,
    rems: &mut Vec<u64>,
    toffs: &mut Vec<u64>,
    out: &mut Vec<u8>,
) -> bool {
    if slice.len() < 2 || rests.iter().any(|r| r.len() != rests[0].len()) {
        return false;
    }
    let w = rests[0].len() - lcp;
    if !(1..=8).contains(&w) {
        return false;
    }
    rems.clear();
    rems.extend(rests.iter().map(|r| delta::be_suffix_u64(&r[lcp..])));
    let first_rem = rems[0];
    delta::deltas_in_place(rems);
    let key_bits = rems
        .iter()
        .copied()
        .map(bitpack::width_for)
        .max()
        .unwrap_or(0);
    let (min_trailer, trailer_bits) = trailer_frame(slice, toffs);
    varint::put_u32(out, lcp as u32);
    out.extend_from_slice(&rests[0][..lcp]);
    out.push(w as u8);
    out.push(key_bits as u8);
    out.push(trailer_bits as u8);
    varint::put_u64(out, first_rem);
    varint::put_u64(out, min_trailer);
    bitpack::pack(rems, key_bits, out);
    bitpack::pack(toffs, trailer_bits, out);
    for e in slice {
        varint::put_u32(out, e.value.len() as u32);
        out.extend_from_slice(e.value);
    }
    true
}

/// Codec 2: frame-of-reference columnar packing of fixed-width integer
/// values (1–8 bytes each); keys stay prefix-stripped as in codec 0.
/// Appends nothing and returns `false` when the group is ineligible.
fn encode_fixed_block(
    slice: &[EntryRef<'_>],
    rests: &[&[u8]],
    lcp: usize,
    voffs: &mut Vec<u64>,
    toffs: &mut Vec<u64>,
    out: &mut Vec<u8>,
) -> bool {
    let vw = slice[0].value.len();
    if !(1..=8).contains(&vw) || slice.iter().any(|e| e.value.len() != vw) {
        return false;
    }
    voffs.clear();
    voffs.extend(slice.iter().map(|e| delta::be_suffix_u64(e.value)));
    let (min_value, value_bits) = frame_of_reference(voffs);
    let (min_trailer, trailer_bits) = trailer_frame(slice, toffs);
    varint::put_u32(out, lcp as u32);
    out.extend_from_slice(&rests[0][..lcp]);
    out.push(vw as u8);
    out.push(value_bits as u8);
    out.push(trailer_bits as u8);
    varint::put_u64(out, min_value);
    varint::put_u64(out, min_trailer);
    bitpack::pack(voffs, value_bits, out);
    bitpack::pack(toffs, trailer_bits, out);
    for rest in rests {
        let krem = &rest[lcp..];
        varint::put_u32(out, krem.len() as u32);
        out.extend_from_slice(krem);
    }
    true
}

/// Empty `out` for a decoder to fill, with room for the group: each key
/// goes straight into the arena as `meta ‖ lcp ‖ remainder`, its value
/// after it, so beyond the `shared` bytes every entry repeats the run
/// holds at most what the block does. A run a cursor decoded into before
/// grows only past the largest group it held; an empty one allocates
/// exactly that. `None` when `count` is more than the block can encode:
/// every codec spends at least a byte per entry.
fn run_for(out: &mut EntryRun, block: &[u8], count: usize, shared: usize) -> Option<()> {
    (count <= block.len()).then(|| {
        out.clear();
        out.reserve(count, block.len() + count * shared);
    })
}

/// Decode the `count` entries of a block under codec `codec` into `out`,
/// each key behind `meta`.
pub(super) fn decode_block(
    codec: u8,
    block: &[u8],
    count: usize,
    meta: &[u8],
    out: &mut EntryRun,
) -> Option<()> {
    match codec {
        CODEC_DELTA => decode_delta_block(block, count, meta, out),
        CODEC_FIXED => decode_fixed_block(block, count, meta, out),
        _ => decode_prefix_block(block, count, meta, out),
    }
}

/// Decode a codec-0 block.
fn decode_prefix_block(block: &[u8], count: usize, meta: &[u8], out: &mut EntryRun) -> Option<()> {
    let mut r = varint::Reader::new(block);
    let lcp_len = r.read_u32()? as usize;
    let lcp = r.read_bytes(lcp_len)?;
    run_for(out, block, count, meta.len() + lcp.len())?;
    for _ in 0..count {
        let krem_len = r.read_u32()? as usize;
        let vlen = r.read_u32()? as usize;
        // `read_bytes(8)` is eight bytes long: the conversion cannot fail.
        let trailer = u64::from_le_bytes(r.read_bytes(8)?.try_into().unwrap());
        let krem = r.read_bytes(krem_len)?;
        let (seq, kind) = key::unpack_trailer(trailer);
        out.push(&[meta, lcp, krem], seq, kind?, r.read_bytes(vlen)?);
    }
    Some(())
}

/// Decode a codec-1 block (delta + zigzag + bit-packed key remainders).
fn decode_delta_block(block: &[u8], count: usize, meta: &[u8], out: &mut EntryRun) -> Option<()> {
    let mut r = varint::Reader::new(block);
    let lcp_len = r.read_u32()? as usize;
    let lcp = r.read_bytes(lcp_len)?;
    let header = r.read_bytes(3)?;
    let (w, key_bits, trailer_bits) = (header[0] as usize, header[1] as u32, header[2] as u32);
    if !(1..=8).contains(&w) || count == 0 {
        return None;
    }
    let first_rem = r.read_u64()?;
    let min_trailer = r.read_u64()?;
    let packed_keys = r.read_bytes(bitpack::packed_len(count - 1, key_bits))?;
    let dels = bitpack::unpack(packed_keys, key_bits, count - 1)?;
    let packed_trailers = r.read_bytes(bitpack::packed_len(count, trailer_bits))?;
    let toffs = bitpack::unpack(packed_trailers, trailer_bits, count)?;
    run_for(out, block, count, meta.len() + lcp.len() + w)?;
    for (rem, toff) in delta::undelta(first_rem, dels).zip(toffs) {
        let vlen = r.read_u32()? as usize;
        let (seq, kind) = key::unpack_trailer(min_trailer.checked_add(toff)?);
        let krem = &rem.to_be_bytes()[8 - w..];
        out.push(&[meta, lcp, krem], seq, kind?, r.read_bytes(vlen)?);
    }
    Some(())
}

/// Decode a codec-2 block (frame-of-reference fixed-width values).
fn decode_fixed_block(block: &[u8], count: usize, meta: &[u8], out: &mut EntryRun) -> Option<()> {
    let mut r = varint::Reader::new(block);
    let lcp_len = r.read_u32()? as usize;
    let lcp = r.read_bytes(lcp_len)?;
    let header = r.read_bytes(3)?;
    let (vw, value_bits, trailer_bits) = (header[0] as usize, header[1] as u32, header[2] as u32);
    if !(1..=8).contains(&vw) {
        return None;
    }
    let min_value = r.read_u64()?;
    let min_trailer = r.read_u64()?;
    let packed_values = r.read_bytes(bitpack::packed_len(count, value_bits))?;
    let voffs = bitpack::unpack(packed_values, value_bits, count)?;
    let packed_trailers = r.read_bytes(bitpack::packed_len(count, trailer_bits))?;
    let toffs = bitpack::unpack(packed_trailers, trailer_bits, count)?;
    run_for(out, block, count, meta.len() + lcp.len() + vw)?;
    for (voff, toff) in voffs.zip(toffs) {
        let krem_len = r.read_u32()? as usize;
        let krem = r.read_bytes(krem_len)?;
        let (seq, kind) = key::unpack_trailer(min_trailer.checked_add(toff)?);
        let value = min_value.checked_add(voff)?.to_be_bytes();
        out.push(&[meta, lcp, krem], seq, kind?, &value[8 - vw..]);
    }
    Some(())
}
