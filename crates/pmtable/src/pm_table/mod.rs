//! The compressed PM table (§IV-A of the paper).
//!
//! A PM table stores sorted internal entries in a three-layer structure:
//!
//! 1. **meta layer** — distinct key *meta prefixes* (e.g. `{tableID}`s)
//!    deduplicated table-wide, each mapped to the contiguous range of
//!    groups it covers;
//! 2. **prefix layer** — a dense array of fixed-width (16-byte) prefixes,
//!    one per entry group, supporting an indirection-free binary search;
//! 3. **entry layer** — per-group blocks holding the group's common prefix
//!    once, then entries with both the meta and group prefix stripped.
//!
//! A point lookup binary-searches the meta layer (DRAM-cached — it is tiny
//! by design), binary-searches the prefix layer inside the meta's group
//! range (one fixed-size PM read per probe), then sequentially scans one
//! group block (one PM read + cheap in-cache comparisons). This is the
//! access-pattern advantage the paper claims over the array-based layout,
//! which pays **two** dependent PM reads (offset, then key) per probe.
//!
//! On-PM layout (all integers little-endian):
//!
//! ```text
//! header:   magic u32 | entry_count u32 | group_count u32 |
//!           extractor tag u8 + arg u8 | group_size u8 | flags u8 |
//!           meta_off u32 | prefix_off u32 | gindex_off u32 | entry_off u32
//! meta:     count u32, then per meta: varint len | bytes |
//!           first_group u32 | group_count u32
//! prefix:   group_count × 16 bytes
//! gindex:   group_count × (block_off u32 | block_len u32 | count u16 |
//!           meta_id u16)
//! codecs:   (only when flags bit 1 set) group_count × codec id u8,
//!           between the gindex and the entry layer
//! entries:  per group, by that group's codec id (see below)
//! filter:   (only when flags bit 0 set) bloom bytes | filter_len u32;
//!           the bytes are an `encoding::bloom::BloomFilter`,
//!           `ceil(distinct keys × filter_bits_per_key / 512)` 64-byte
//!           lines and a tag byte (a section written before lines
//!           decodes to a filter that passes every key)
//! ```
//!
//! Per-group encodings (encoding v2 — the codec id array selects one per
//! group; tables whose groups are all codec 0 omit the array entirely and
//! are byte-identical to the pre-codec layout):
//!
//! ```text
//! codec 0 ("prefix"): varint lcp_len | lcp | per entry:
//!           varint krem_len | varint vlen | trailer u64 | krem | value
//! codec 1 ("delta"):  varint lcp_len | lcp | rem_width u8 | key_bits u8 |
//!           trailer_bits u8 | varint first_rem | varint min_trailer |
//!           bitpacked zigzag key-remainder deltas ((count-1) × key_bits) |
//!           bitpacked trailer offsets (count × trailer_bits) |
//!           per entry: varint vlen | value
//! codec 2 ("fixed"):  varint lcp_len | lcp | value_width u8 | value_bits
//!           u8 | trailer_bits u8 | varint min_value | varint min_trailer |
//!           bitpacked value offsets (count × value_bits) |
//!           bitpacked trailer offsets (count × trailer_bits) |
//!           per entry: varint krem_len | krem
//! ```
//!
//! Codec 1 targets monotonic/numeric key ranges: a group qualifies when
//! every meta-stripped key has the same length and the post-LCP remainder
//! is 1–8 bytes, which it then stores as one big-endian base value plus
//! zigzag deltas bit-packed at the width of the largest gap. Codec 2
//! targets fixed-width integer values (1–8 bytes), stored
//! frame-of-reference: minimum once, per-entry offsets bit-packed. Both
//! also frame-of-reference the 8-byte trailers, which a flush batch keeps
//! in a narrow sequence range. Ineligible groups fall back to codec 0.
//!
//! The filter and codec sections are announced by header flag bits;
//! group blocks are addressed relative to `entry_off`, so readers that
//! predate the filter simply ignore the tail bytes and older tables
//! (flags = 0) open unchanged.

mod builder;
mod codec;
mod column;
mod cursor;
mod reader;

pub use builder::PmTableBuilder;
pub use column::{GroupFences, MergedColumn, TableKeys};
pub use cursor::{GroupAccess, GroupLoad, NoGroupCache, PmCursor};
pub use reader::{PmTable, PmTableError};

const MAGIC: u32 = 0x504D_5442; // "PMTB"
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 16;
const PREFIX_WIDTH: usize = 16;
const GINDEX_ENTRY_LEN: usize = 12;
/// Header flags bit 0: a bloom filter section trails the entry layer.
const FLAG_FILTER: u8 = 0b0000_0001;
/// Header flags bit 1: a per-group codec id array sits between the
/// gindex and the entry layer (encoding v2). Unset means every group is
/// codec 0 and the layout is byte-identical to the pre-codec format.
const FLAG_CODECS: u8 = 0b0000_0010;

/// Codec ids stored per group (encoding v2).
pub const CODEC_PREFIX: u8 = 0;
pub const CODEC_DELTA: u8 = 1;
pub const CODEC_FIXED: u8 = 2;
/// Number of distinct codec ids.
pub const CODEC_COUNT: usize = 3;

/// Human-readable codec names, indexed by codec id.
pub const CODEC_NAMES: [&str; CODEC_COUNT] = ["prefix", "delta", "fixed"];

/// Build-time codec policy for a table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CodecMode {
    /// Codec 0 for every group: byte-identical to the pre-codec layout.
    #[default]
    Prefix,
    /// Codec 1 (delta + zigzag + bit-packed key remainders) for every
    /// eligible group; ineligible groups fall back to codec 0.
    Delta,
    /// Codec 2 (frame-of-reference fixed-width values) for every
    /// eligible group; ineligible groups fall back to codec 0.
    Fixed,
    /// Per-group choice of the smallest encoding. The engine resolves its
    /// cost-model decision *per flush* before building; `Auto` at the
    /// builder level simply takes the byte-cheapest eligible codec for
    /// each group.
    Auto,
}

/// How the meta prefix (e.g. `{tableID}`) is carved off a user key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetaExtractor {
    /// Keys carry no shared coding information.
    None,
    /// The first `n` bytes are the meta prefix.
    FixedLen(u8),
    /// Everything up to and including the first occurrence of the byte is
    /// the meta prefix (e.g. `b':'` for `t0001:...` keys).
    Delimiter(u8),
}

impl MetaExtractor {
    /// Split `key` into (meta, rest).
    #[inline]
    pub fn split<'a>(&self, key: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        match *self {
            MetaExtractor::None => (&key[..0], key),
            MetaExtractor::FixedLen(n) => {
                let n = (n as usize).min(key.len());
                key.split_at(n)
            }
            MetaExtractor::Delimiter(d) => match key.iter().position(|&b| b == d) {
                Some(i) => key.split_at(i + 1),
                None => (&key[..0], key),
            },
        }
    }

    fn encode(&self) -> [u8; 2] {
        match *self {
            MetaExtractor::None => [0, 0],
            MetaExtractor::FixedLen(n) => [1, n],
            MetaExtractor::Delimiter(d) => [2, d],
        }
    }

    fn decode(tag: u8, arg: u8) -> Option<Self> {
        match tag {
            0 => Some(MetaExtractor::None),
            1 => Some(MetaExtractor::FixedLen(arg)),
            2 => Some(MetaExtractor::Delimiter(arg)),
            _ => None,
        }
    }
}

/// Build-time options.
#[derive(Clone, Copy, Debug)]
pub struct PmTableOptions {
    /// Entries per group: the paper uses eight or sixteen.
    pub group_size: usize,
    /// Meta-prefix extraction rule.
    pub extractor: MetaExtractor,
    /// Bloom-filter budget in bits per distinct user key; 0 disables the
    /// filter section entirely (the pre-filter table layout).
    pub filter_bits_per_key: usize,
    /// Per-group codec policy (encoding v2). `Prefix` reproduces the
    /// pre-codec byte layout exactly.
    pub codec: CodecMode,
}

impl Default for PmTableOptions {
    fn default() -> Self {
        PmTableOptions {
            group_size: 16,
            extractor: MetaExtractor::None,
            filter_bits_per_key: 0,
            codec: CodecMode::Prefix,
        }
    }
}

#[cfg(test)]
mod tests;
