//! The streaming builder: buffers one table's entries, then encodes
//! the three layers and the optional filter in `finish`, straight into
//! the one buffer it hands back.
//!
//! One builder builds table after table: `finish` empties it but keeps
//! its entry buffer and its encoding scratch, so a writer that cuts a
//! run of tables reserves once, for the largest, and what a table
//! allocates is mostly its bytes, in the buffer the pool publishes.

use encoding::bloom::BloomFilter;
use encoding::prefix::{common_prefix_len, FixedPrefix};
use encoding::{delta, varint};
use sim::Timeline;

use super::codec::{encode_group, Scratch};
use super::{
    CodecMode, PmTableOptions, TableKeys, CODEC_PREFIX, FLAG_CODECS, FLAG_FILTER, GINDEX_ENTRY_LEN,
    HEADER_LEN, MAGIC, PREFIX_WIDTH,
};
use crate::{AsEntry, BuildStats, EntryRef, EntryRun};

/// One group of the table being encoded: `len` entries of the run from
/// `start`, sharing meta `meta_id`.
struct Group {
    start: usize,
    len: usize,
    meta_id: u16,
}

/// Streaming builder; feed entries in internal-key order, then `finish`.
///
/// The entries of the one table being built are buffered in an
/// [`EntryRun`], so `add` copies an entry's bytes once and allocates
/// nothing per entry; `finish` encodes out of the run and empties it for
/// the next table, keeping its buffers.
pub struct PmTableBuilder {
    opts: PmTableOptions,
    /// The codec policy of the table being built: `opts.codec` unless
    /// [`PmTableBuilder::set_codec`] replaced it for this table.
    codec: CodecMode,
    run: EntryRun,
    raw_bytes: usize,
    shape: delta::CodecStats,
    /// Hand back the group fences only.
    fences_only: bool,
    /// What `finish` reuses from table to table: the group split, the
    /// filter's key hashes while they stay here (fences only), and the
    /// encoders' buffers.
    groups: Vec<Group>,
    hashes: Vec<(u64, u64)>,
    scratch: Scratch,
}

impl PmTableBuilder {
    pub fn new(opts: PmTableOptions) -> Self {
        assert!(opts.group_size >= 2, "group size must be at least 2");
        PmTableBuilder {
            opts,
            codec: opts.codec,
            run: EntryRun::default(),
            raw_bytes: 0,
            shape: delta::CodecStats::default(),
            fences_only: false,
            groups: Vec::new(),
            hashes: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Make room for a table of `entries` entries holding `raw` bytes,
    /// counted as [`PmTableBuilder::raw_bytes`] counts them: the entry
    /// buffer then grows no more while the tables fit.
    pub fn reserve(&mut self, entries: usize, raw: usize) {
        let trailers = 8 * entries;
        self.run.reserve(entries, raw.saturating_sub(trailers));
    }

    /// Append the next entry; must not sort before the previous one.
    pub fn add(&mut self, entry: impl AsEntry) {
        let e = entry.as_entry();
        debug_assert!(
            self.run
                .iter()
                .next_back()
                .is_none_or(|last| last.internal_cmp(&e).is_le()),
            "entries must arrive in internal-key order"
        );
        self.run.push(&[e.user_key], e.seq, e.kind, e.value);
        self.raw_bytes += e.raw_len();
        self.shape.add(e.user_key.len(), e.value.len());
    }

    pub fn entry_count(&self) -> usize {
        self.run.len()
    }

    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// Shape of the entries buffered so far, folded as they arrived:
    /// what a caller resolving [`CodecMode::Auto`] for this one table
    /// decides on. Entries are sorted, so their common prefix is that
    /// of the first and the last key.
    pub fn shape(&self) -> delta::CodecStats {
        let lcp = |last| common_prefix_len(self.run.get(0).user_key, self.run.get(last).user_key);
        delta::CodecStats {
            batch_lcp: self.run.len().checked_sub(1).map_or(0, lcp),
            ..self.shape
        }
    }

    /// Replace the codec policy the table being built is encoded under;
    /// the next table is back under the options' policy.
    pub fn set_codec(&mut self, codec: CodecMode) {
        self.codec = codec;
    }

    /// Build only the group fences of the [`TableKeys`] `finish` hands
    /// back, for every table from here on: no hashes, no windows. The
    /// filter is built all the same.
    pub fn set_fences_only(&mut self) {
        self.fences_only = true;
    }

    /// Encode the table, charging CPU encode cost to `tl`, and empty the
    /// builder for the next one. Returns the payload (to be published to
    /// PM), and its build stats and [`TableKeys`], taken from the
    /// entries it buffered: the hashes its filter was built from, its
    /// key windows and its group fences. None of the keys is charged, as
    /// the filter is not.
    pub fn finish(
        &mut self,
        cost: &sim::CostModel,
        tl: &mut Timeline,
    ) -> (Vec<u8>, (BuildStats, TableKeys)) {
        let (bytes, keys) = self.encode();
        // Prefix stripping is plain encoding work — no LZ pass.
        tl.charge(cost.cpu.encode(self.raw_bytes));
        tl.charge(cost.cpu.merge_per_entry * self.run.len() as u64);
        let stats = BuildStats {
            raw_bytes: self.raw_bytes,
            encoded_bytes: bytes.len(),
            entries: self.run.len(),
        };
        self.reset();
        (bytes, (stats, keys))
    }

    /// Empty the builder for the next table, keeping its buffers.
    fn reset(&mut self) {
        self.run.clear();
        self.raw_bytes = 0;
        self.shape = delta::CodecStats::default();
        self.codec = self.opts.codec;
    }

    /// The table's bytes and keys. The output is sized once: the header
    /// and the meta layer, a slot per group in the prefix, gindex and
    /// (unless every group must be codec 0) codec sections, the buffered
    /// entries' raw bytes, and the filter. A group's block outgrows its
    /// entries' raw bytes only when their keys share almost no prefix;
    /// the buffer then grows. Each group is encoded straight into it,
    /// its slots filled as it goes.
    fn encode(&mut self) -> (Vec<u8>, TableKeys) {
        let opts = self.opts;
        let count = self.run.len();
        let prefix = self.shape().batch_lcp;
        let run = &self.run;
        let rest_of = |i: usize| opts.extractor.split(run.get(i).user_key);
        // Group assignment: split on group_size or meta change.
        let mut metas: Vec<&[u8]> = Vec::new();
        let groups = &mut self.groups;
        groups.clear();
        let mut i = 0usize;
        while i < count {
            let (meta, _) = rest_of(i);
            if metas.last() != Some(&meta) {
                metas.push(meta);
            }
            let meta_id = (metas.len() - 1) as u16;
            let mut len = 1usize;
            while len < opts.group_size && i + len < count && rest_of(i + len).0 == meta {
                len += 1;
            }
            groups.push(Group {
                start: i,
                len,
                meta_id,
            });
            i += len;
        }

        // Optional bloom filter over distinct user keys (entries are
        // sorted, so distinct keys are adjacent).
        let mut hashes = match self.fences_only {
            true => std::mem::take(&mut self.hashes),
            false => Vec::new(),
        };
        hashes.clear();
        if opts.filter_bits_per_key > 0 {
            hashes.reserve_exact(count);
            let mut prev: Option<&[u8]> = None;
            for key in run.iter().map(|e| e.user_key) {
                if prev != Some(key) {
                    hashes.push(BloomFilter::hashes(key));
                    prev = Some(key);
                }
            }
        }
        let filter = (!hashes.is_empty()).then(|| {
            let keys = hashes.iter().copied();
            BloomFilter::build_hashed(keys, hashes.len(), opts.filter_bits_per_key)
        });

        // Layout: header | meta | prefix | gindex [| codecs] | entries
        // [| filter]. A meta row takes at most a 5-byte varint, its
        // bytes and 8.
        let metas_len = 5 + metas.iter().map(|m| 13 + m.len()).sum::<usize>();
        let codec_slots = match self.codec {
            CodecMode::Prefix => 0,
            _ => groups.len(),
        };
        let slots = groups.len() * (PREFIX_WIDTH + GINDEX_ENTRY_LEN) + codec_slots;
        let filter_len = filter.as_ref().map_or(0, |f| f.encoded_len() + 4);
        let capacity = HEADER_LEN + metas_len + slots + self.raw_bytes + filter_len;
        let mut out = Vec::with_capacity(capacity);
        out.resize(HEADER_LEN, 0);

        // Meta layer with group ranges: groups are contiguous per meta
        // because entries are sorted and metas are key prefixes.
        varint::put_u32(&mut out, metas.len() as u32);
        let mut cursor = 0usize;
        for (mid, meta) in metas.iter().enumerate() {
            let first = cursor;
            while cursor < groups.len() && groups[cursor].meta_id as usize == mid {
                cursor += 1;
            }
            varint::put_slice(&mut out, meta);
            out.extend_from_slice(&(first as u32).to_le_bytes());
            out.extend_from_slice(&((cursor - first) as u32).to_le_bytes());
        }
        let prefix_off = out.len();
        let gindex_off = prefix_off + groups.len() * PREFIX_WIDTH;
        let codecs_off = gindex_off + groups.len() * GINDEX_ENTRY_LEN;
        let entry_start = codecs_off + codec_slots;
        out.resize(entry_start, 0);

        // Entry layer: one block per group, encoded by the per-group
        // codec the build policy picks (ineligible groups fall back to
        // codec 0, so forced modes still always produce a valid table).
        // The group's views and the encoders' scratch are reused from
        // group to group.
        let mut slice: Vec<EntryRef<'_>> = Vec::with_capacity(opts.group_size);
        let mut rests: Vec<&[u8]> = Vec::with_capacity(opts.group_size);
        let mut keys = match self.fences_only {
            true => TableKeys::fences_only(prefix, groups.len()),
            false => TableKeys::new(prefix, count, groups.len()),
        };
        let mut with_codecs = false;
        for (group, g) in groups.iter().enumerate() {
            slice.clear();
            slice.extend((g.start..g.start + g.len).map(|i| run.get(i)));
            for e in &slice {
                keys.push(group as u32, e.user_key);
            }
            rests.clear();
            rests.extend(slice.iter().map(|e| opts.extractor.split(e.user_key).1));
            let meta = metas[g.meta_id as usize];
            // The group's shared prefix (after meta strip) is the LCP of
            // its first and last key, since the group is sorted.
            let lcp = common_prefix_len(rests[0], rests[rests.len() - 1]);
            debug_assert!(slice
                .iter()
                .all(|e| opts.extractor.split(e.user_key).0 == meta));
            let block_start = out.len();
            let codec = encode_group(self.codec, &slice, &rests, lcp, &mut self.scratch, &mut out);
            let block_off = (block_start - entry_start) as u32;
            let block_len = (out.len() - block_start) as u32;
            let at = prefix_off + group * PREFIX_WIDTH;
            let prefix = FixedPrefix::<PREFIX_WIDTH>::of(rests[0]);
            out[at..at + PREFIX_WIDTH].copy_from_slice(prefix.as_bytes());
            let at = gindex_off + group * GINDEX_ENTRY_LEN;
            let row = &mut out[at..at + GINDEX_ENTRY_LEN];
            row[0..4].copy_from_slice(&block_off.to_le_bytes());
            row[4..8].copy_from_slice(&block_len.to_le_bytes());
            row[8..10].copy_from_slice(&(g.len as u16).to_le_bytes());
            row[10..12].copy_from_slice(&g.meta_id.to_le_bytes());
            // The slots are zeroed: codec 0 is in place already.
            if codec != CODEC_PREFIX {
                out[codecs_off + group] = codec;
                with_codecs = true;
            }
        }
        // All-codec-0 tables omit the codec array and stay byte-identical
        // to the pre-codec layout: the entry layer moves up over it.
        if !with_codecs {
            out.drain(codecs_off..entry_start);
        }
        let entry_off = if with_codecs { entry_start } else { codecs_off };
        if let Some(filter) = &filter {
            filter.encode_into(&mut out);
            out.extend_from_slice(&(filter.encoded_len() as u32).to_le_bytes());
        }
        let flags =
            (u8::from(filter.is_some()) * FLAG_FILTER) | (u8::from(with_codecs) * FLAG_CODECS);
        let ext = opts.extractor.encode();
        let header = &mut out[..HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&(count as u32).to_le_bytes());
        header[8..12].copy_from_slice(&(groups.len() as u32).to_le_bytes());
        header[12..16].copy_from_slice(&[ext[0], ext[1], opts.group_size as u8, flags]);
        let offsets = [HEADER_LEN, prefix_off, gindex_off, entry_off];
        for (field, off) in header[16..].chunks_exact_mut(4).zip(offsets) {
            field.copy_from_slice(&(off as u32).to_le_bytes());
        }

        match self.fences_only {
            true => self.hashes = hashes,
            false => keys.hashes = hashes,
        }
        (out, keys)
    }
}
