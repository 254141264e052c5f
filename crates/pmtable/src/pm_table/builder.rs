//! The streaming builder: buffers one table's entries, then encodes
//! the three layers and the optional filter in `finish`.

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

/// Streaming builder; feed entries in internal-key order, then `finish`.
///
/// The entries of the one table being built are buffered in an
/// [`EntryRun`], so `add` copies an entry's bytes once and allocates
/// nothing per entry; `finish` encodes out of the run.
pub struct PmTableBuilder {
    opts: PmTableOptions,
    run: EntryRun,
    raw_bytes: usize,
    shape: delta::CodecStats,
    /// Hand back the group fences only.
    fences_only: bool,
}

impl PmTableBuilder {
    pub fn new(opts: PmTableOptions) -> Self {
        assert!(opts.group_size >= 2, "group size must be at least 2");
        PmTableBuilder {
            opts,
            run: EntryRun::default(),
            raw_bytes: 0,
            shape: delta::CodecStats::default(),
            fences_only: false,
        }
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

    /// Replace the codec policy the table will be encoded under.
    pub fn set_codec(&mut self, codec: CodecMode) {
        self.opts.codec = codec;
    }

    /// Build only the group fences of the [`TableKeys`]
    /// [`PmTableBuilder::finish_with_keys`] hands back: no hashes, no
    /// column. The filter is built all the same.
    pub fn set_fences_only(&mut self) {
        self.fences_only = true;
    }

    /// Encode the table, charging CPU encode cost to `tl`.
    /// Returns the payload (to be published to PM) and build stats.
    pub fn finish(self, cost: &sim::CostModel, tl: &mut Timeline) -> (Vec<u8>, BuildStats) {
        let (bytes, stats, _) = self.finish_with_keys(cost, tl);
        (bytes, stats)
    }

    /// [`PmTableBuilder::finish`], also handing back the table's
    /// [`TableKeys`], taken from the entries it buffered: the hashes its
    /// filter was built from, its key column and its group fences. None
    /// of them is charged, as the filter is not.
    pub fn finish_with_keys(
        self,
        cost: &sim::CostModel,
        tl: &mut Timeline,
    ) -> (Vec<u8>, BuildStats, TableKeys) {
        let opts = self.opts;
        let count = self.run.len();
        let rest_of = |i: usize| opts.extractor.split(self.run.get(i).user_key);
        // Group assignment: split on group_size or meta change.
        struct Group {
            start: usize,
            len: usize,
            meta_id: u16,
        }
        let mut metas: Vec<Vec<u8>> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        {
            let mut i = 0usize;
            while i < count {
                let (meta, _) = rest_of(i);
                let meta_id = match metas.last() {
                    Some(last) if last.as_slice() == meta => (metas.len() - 1) as u16,
                    _ => {
                        metas.push(meta.to_vec());
                        (metas.len() - 1) as u16
                    }
                };
                let mut len = 1usize;
                while len < opts.group_size && i + len < count {
                    if rest_of(i + len).0 != metas[meta_id as usize].as_slice() {
                        break;
                    }
                    len += 1;
                }
                groups.push(Group {
                    start: i,
                    len,
                    meta_id,
                });
                i += len;
            }
        }

        // Entry layer: one block per group, encoded by the per-group
        // codec the build policy picks (ineligible groups fall back to
        // codec 0, so forced modes still always produce a valid table).
        // The group's views and the encoders' scratch are reused from
        // group to group.
        let mut entry_layer = Vec::with_capacity(self.raw_bytes);
        let mut gindex = Vec::with_capacity(groups.len() * GINDEX_ENTRY_LEN);
        let mut prefixes = Vec::with_capacity(groups.len() * PREFIX_WIDTH);
        let mut codec_ids = Vec::with_capacity(groups.len());
        let mut slice: Vec<EntryRef<'_>> = Vec::with_capacity(opts.group_size);
        let mut rests: Vec<&[u8]> = Vec::with_capacity(opts.group_size);
        let mut scratch = Scratch::default();
        let prefix = self.shape().batch_lcp;
        let mut keys = match self.fences_only {
            true => TableKeys::fences_only(prefix, groups.len()),
            false => TableKeys::new(prefix, count, groups.len()),
        };
        for (group, g) in groups.iter().enumerate() {
            slice.clear();
            slice.extend((g.start..g.start + g.len).map(|i| self.run.get(i)));
            for e in &slice {
                keys.push(group as u32, e.user_key);
            }
            rests.clear();
            rests.extend(slice.iter().map(|e| opts.extractor.split(e.user_key).1));
            let meta = &metas[g.meta_id as usize];
            // The group's shared prefix (after meta strip) is the LCP of
            // its first and last key, since the group is sorted.
            let lcp = common_prefix_len(rests[0], rests[rests.len() - 1]);
            debug_assert!(
                meta.is_empty()
                    || slice
                        .iter()
                        .all(|e| opts.extractor.split(e.user_key).0 == meta.as_slice())
            );
            let block_off = entry_layer.len() as u32;
            let codec = encode_group(
                opts.codec,
                &slice,
                &rests,
                lcp,
                &mut scratch,
                &mut entry_layer,
            );
            codec_ids.push(codec);
            let block_len = entry_layer.len() as u32 - block_off;
            gindex.extend_from_slice(&block_off.to_le_bytes());
            gindex.extend_from_slice(&block_len.to_le_bytes());
            gindex.extend_from_slice(&(g.len as u16).to_le_bytes());
            gindex.extend_from_slice(&g.meta_id.to_le_bytes());
            prefixes.extend_from_slice(FixedPrefix::<PREFIX_WIDTH>::of(rests[0]).as_bytes());
        }
        // All-codec-0 tables omit the codec array and stay byte-identical
        // to the pre-codec layout.
        let with_codecs = codec_ids.iter().any(|&c| c != CODEC_PREFIX);

        // Meta layer with group ranges.
        let mut meta_layer = Vec::new();
        varint::put_u32(&mut meta_layer, metas.len() as u32);
        {
            // first_group/group_count per meta: groups are contiguous per
            // meta because entries are sorted and metas are key prefixes.
            let mut cursor = 0usize;
            for (mid, meta) in metas.iter().enumerate() {
                let first = cursor;
                while cursor < groups.len() && groups[cursor].meta_id as usize == mid {
                    cursor += 1;
                }
                varint::put_slice(&mut meta_layer, meta);
                meta_layer.extend_from_slice(&(first as u32).to_le_bytes());
                meta_layer.extend_from_slice(&((cursor - first) as u32).to_le_bytes());
            }
        }

        // Optional bloom filter over distinct user keys (entries are
        // sorted, so distinct keys are adjacent).
        let mut hashes = Vec::new();
        if opts.filter_bits_per_key > 0 {
            let mut prev: Option<&[u8]> = None;
            for key in self.run.iter().map(|e| e.user_key) {
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

        // Assemble: header | meta | prefix | gindex [| codecs] | entries
        // [| filter].
        let ext = opts.extractor.encode();
        let meta_off = HEADER_LEN as u32;
        let prefix_off = meta_off + meta_layer.len() as u32;
        let gindex_off = prefix_off + prefixes.len() as u32;
        let codec_section = if with_codecs {
            codec_ids.len() as u32
        } else {
            0
        };
        let entry_off = gindex_off + gindex.len() as u32 + codec_section;
        let mut flags = 0u8;
        if filter.is_some() {
            flags |= FLAG_FILTER;
        }
        if with_codecs {
            flags |= FLAG_CODECS;
        }
        let mut out = Vec::with_capacity(entry_off as usize + entry_layer.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(count as u32).to_le_bytes());
        out.extend_from_slice(&(groups.len() as u32).to_le_bytes());
        out.push(ext[0]);
        out.push(ext[1]);
        out.push(opts.group_size as u8);
        out.push(flags);
        out.extend_from_slice(&meta_off.to_le_bytes());
        out.extend_from_slice(&prefix_off.to_le_bytes());
        out.extend_from_slice(&gindex_off.to_le_bytes());
        out.extend_from_slice(&entry_off.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&meta_layer);
        out.extend_from_slice(&prefixes);
        out.extend_from_slice(&gindex);
        if with_codecs {
            out.extend_from_slice(&codec_ids);
        }
        out.extend_from_slice(&entry_layer);
        if let Some(filter) = &filter {
            let encoded = filter.encode();
            out.extend_from_slice(&encoded);
            out.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        }

        // Prefix stripping is plain encoding work — no LZ pass.
        tl.charge(cost.cpu.encode(self.raw_bytes));
        tl.charge(cost.cpu.merge_per_entry * count as u64);
        let stats = BuildStats {
            raw_bytes: self.raw_bytes,
            encoded_bytes: out.len(),
            entries: count,
        };
        if !self.fences_only {
            keys.hashes = hashes;
        }
        (out, stats, keys)
    }
}
