use std::sync::Arc;

use super::*;
use crate::storage::DramBuf;
use crate::testutil::index_entries;
use crate::{EntryRun, OwnedEntry};
use encoding::bloom::BloomFilter;
use encoding::key::KeyKind;
use sim::{CostModel, Timeline};

fn build(entries: &[OwnedEntry], opts: PmTableOptions) -> PmTable<DramBuf> {
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(opts);
    for e in entries {
        b.add(e.clone());
    }
    let mut tl = Timeline::new();
    let (bytes, (stats, _)) = b.finish(&cost, &mut tl);
    assert_eq!(stats.entries, entries.len());
    PmTable::open(DramBuf::new(bytes, cost)).unwrap()
}

fn delim_opts() -> PmTableOptions {
    PmTableOptions {
        group_size: 8,
        extractor: MetaExtractor::Delimiter(b':'),
        filter_bits_per_key: 0,
        codec: CodecMode::Prefix,
    }
}

#[test]
fn an_entry_run_views_what_was_pushed_and_searches_by_user_key() {
    let mut run = EntryRun::with_capacity(4, 64);
    assert!(run.is_empty());
    assert_eq!((run.lower_bound(b"k"), run.charge()), (0, 64));
    // Two versions of one key, newest first, then a tombstone; the
    // second key arrives in the three pieces a decoder has it in.
    run.push(&[b"kb"], 9, KeyKind::Value, b"new");
    run.push(&[b"k", b"", b"b"], 4, KeyKind::Value, b"");
    run.push(&[b"k", b"d"], 7, KeyKind::Delete, b"");
    let rows: Vec<OwnedEntry> = run.iter().map(|e| e.to_owned()).collect();
    assert_eq!(
        rows,
        [
            OwnedEntry::value(b"kb".to_vec(), 9, b"new".to_vec()),
            OwnedEntry::value(b"kb".to_vec(), 4, Vec::new()),
            OwnedEntry::tombstone(b"kd".to_vec(), 7),
        ]
    );
    assert_eq!(run.get(2), rows[2].as_ref());
    let bounds = [b"ka", b"kb", b"kc", b"kd", b"ke"].map(|k| run.lower_bound(k));
    assert_eq!(bounds, [0, 0, 2, 2, 3]);
    // 64 per run and a 24-byte slot per entry on top of the 6 key and
    // 3 value bytes.
    assert_eq!((run.len(), run.charge()), (3, 64 + 9 + 3 * 24));
}

#[test]
fn empty_table_roundtrips() {
    let t = build(&[], delim_opts());
    let mut tl = Timeline::new();
    assert_eq!(t.entry_count(), 0);
    assert!(t.get(b"t0001:x", 100, &mut tl).is_none());
    assert!(t.scan_all(&mut tl).is_empty());
    assert!(t.first_user_key().is_none());
}

#[test]
fn get_finds_every_entry() {
    let entries = index_entries(500, 40, 1);
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    for e in &entries {
        let hit = t
            .get(&e.user_key, u64::MAX, &mut tl)
            .unwrap_or_else(|| panic!("missing {:?}", e.user_key));
        assert_eq!(hit.value, e.value);
        assert_eq!(hit.seq, e.seq);
    }
    assert!(tl.elapsed() > sim::SimDuration::ZERO);
}

#[test]
fn get_misses_cleanly() {
    let entries = index_entries(100, 20, 2);
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    assert!(t.get(b"t0000:0000000000", u64::MAX, &mut tl).is_none());
    assert!(t.get(b"t9999:0000000001", u64::MAX, &mut tl).is_none());
    assert!(t.get(b"zzz", u64::MAX, &mut tl).is_none());
    assert!(t.get(b"", u64::MAX, &mut tl).is_none());
}

#[test]
fn snapshot_filters_newer_versions() {
    let entries = vec![
        OwnedEntry::value(b"t0:k".to_vec(), 30, b"v30".to_vec()),
        OwnedEntry::value(b"t0:k".to_vec(), 20, b"v20".to_vec()),
        OwnedEntry::value(b"t0:k".to_vec(), 10, b"v10".to_vec()),
    ];
    let mut sorted = entries.clone();
    sorted.sort_by(|a, b| a.internal_cmp(b));
    let t = build(&sorted, delim_opts());
    let mut tl = Timeline::new();
    assert_eq!(t.get(b"t0:k", 25, &mut tl).unwrap().value, b"v20");
    assert_eq!(t.get(b"t0:k", 10, &mut tl).unwrap().value, b"v10");
    assert!(t.get(b"t0:k", 5, &mut tl).is_none());
    assert_eq!(t.get(b"t0:k", u64::MAX, &mut tl).unwrap().value, b"v30");
}

/// The PR-3 group-straddle shape: one key's 30 versions (`v30` …
/// `v1`) span four groups of 8, flanked by same-prefix neighbours.
fn straddle_entries() -> Vec<OwnedEntry> {
    let value = |k: &[u8], seq, v: &str| OwnedEntry::value(k.to_vec(), seq, v.as_bytes().to_vec());
    let mut entries = vec![value(b"t0:a", 1000, "before")];
    entries.extend(
        (1..=30u64)
            .rev()
            .map(|seq| value(b"t0:k", seq, &format!("v{seq}"))),
    );
    entries.push(value(b"t0:z", 1001, "after"));
    entries
}

#[test]
fn versions_straddling_group_boundaries() {
    // Internal-key order places the newest sequence of a key *first*,
    // so when a key's versions span several groups the newest lives
    // at the tail of the earliest group. A lookup that only decodes
    // the group whose first key matches the probe would return a
    // stale version (regression: Background-mode parity divergence).
    let entries = straddle_entries();
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    // group_size is 8, so the 30 versions span four groups; the
    // newest (seq 30) sits mid-group right after "t0:a".
    assert_eq!(t.get(b"t0:k", u64::MAX, &mut tl).unwrap().seq, 30);
    for snap in 1..=30u64 {
        let hit = t.get(b"t0:k", snap, &mut tl).unwrap();
        assert_eq!(hit.seq, snap, "snapshot {snap} must see its own version");
        assert_eq!(hit.value, format!("v{snap}").into_bytes());
    }
    assert_eq!(t.get(b"t0:a", u64::MAX, &mut tl).unwrap().value, b"before");
    assert_eq!(t.get(b"t0:z", u64::MAX, &mut tl).unwrap().value, b"after");
}

#[test]
fn tombstones_surface_as_delete() {
    let entries = vec![
        OwnedEntry::tombstone(b"t0:k".to_vec(), 9),
        OwnedEntry::value(b"t0:k".to_vec(), 4, b"old".to_vec()),
    ];
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    let hit = t.get(b"t0:k", u64::MAX, &mut tl).unwrap();
    assert_eq!(hit.kind, KeyKind::Delete);
    assert!(hit.clone().into_value().is_none());
    assert_eq!(t.get(b"t0:k", 4, &mut tl).unwrap().kind, KeyKind::Value);
}

#[test]
fn scan_all_preserves_order_and_content() {
    let entries = index_entries(300, 16, 3);
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    let got = t.scan_all(&mut tl);
    assert_eq!(got, entries);
}

#[test]
fn scan_range_bounds_are_half_open() {
    let entries = index_entries(200, 8, 4);
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    let lo = entries[20].user_key.clone();
    let hi = entries[50].user_key.clone();
    let got = t.scan_range(&lo, Some(&hi), usize::MAX, &mut tl);
    assert_eq!(got, entries[20..50].to_vec());
    // Unbounded scan reaches the end.
    let tail = t.scan_range(&lo, None, usize::MAX, &mut tl);
    assert_eq!(tail, entries[20..].to_vec());
}

#[test]
fn scan_range_spanning_metas() {
    // Keys cross table IDs (different metas).
    let entries = index_entries(200, 8, 5);
    let t = build(&entries, delim_opts());
    let mut tl = Timeline::new();
    let all = t.scan_range(b"", None, usize::MAX, &mut tl);
    assert_eq!(all.len(), 200);
}

#[test]
fn compression_shrinks_prefixed_keys() {
    let entries = index_entries(1000, 24, 6);
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(delim_opts());
    let mut raw = 0usize;
    for e in &entries {
        raw += e.raw_len();
        b.add(e.clone());
    }
    let mut tl = Timeline::new();
    let (_, (stats, _)) = b.finish(&cost, &mut tl);
    assert_eq!(stats.raw_bytes, raw);
    assert!(
        stats.ratio() < 0.95,
        "prefixed index keys must compress: ratio {}",
        stats.ratio()
    );
}

#[test]
fn group_size_8_and_16_agree() {
    let entries = index_entries(333, 12, 7);
    let t8 = build(
        &entries,
        PmTableOptions {
            group_size: 8,
            ..delim_opts()
        },
    );
    let t16 = build(
        &entries,
        PmTableOptions {
            group_size: 16,
            ..delim_opts()
        },
    );
    let mut tl = Timeline::new();
    for e in entries.iter().step_by(17) {
        assert_eq!(
            t8.get(&e.user_key, u64::MAX, &mut tl).unwrap().value,
            t16.get(&e.user_key, u64::MAX, &mut tl).unwrap().value,
        );
    }
}

#[test]
fn no_extractor_still_works() {
    let mut entries: Vec<OwnedEntry> = (0..100)
        .map(|i| {
            OwnedEntry::value(
                format!("key{:05}", i).into_bytes(),
                i + 1,
                format!("val{i}").into_bytes(),
            )
        })
        .collect();
    entries.sort_by(|a, b| a.internal_cmp(b));
    let t = build(
        &entries,
        PmTableOptions {
            group_size: 16,
            extractor: MetaExtractor::None,
            filter_bits_per_key: 0,
            codec: CodecMode::Prefix,
        },
    );
    let mut tl = Timeline::new();
    for e in &entries {
        assert_eq!(
            t.get(&e.user_key, u64::MAX, &mut tl).unwrap().value,
            e.value
        );
    }
}

#[test]
fn first_last_keys_exposed() {
    let entries = index_entries(64, 8, 8);
    let t = build(&entries, delim_opts());
    assert_eq!(t.first_user_key().unwrap(), entries[0].user_key);
    assert_eq!(t.last_user_key().unwrap(), entries.last().unwrap().user_key);
}

#[test]
fn open_rejects_garbage() {
    let cost = CostModel::default();
    match PmTable::open(DramBuf::new(vec![0; 3], cost)) {
        Err(e) => assert_eq!(e, PmTableError::Truncated),
        Ok(_) => panic!("short buffer must not open"),
    }
    let mut junk = vec![0u8; 64];
    junk[0] = 0xff;
    match PmTable::open(DramBuf::new(junk, cost)) {
        Err(e) => assert_eq!(e, PmTableError::BadMagic),
        Ok(_) => panic!("bad magic must not open"),
    }
}

#[test]
fn open_rejects_what_a_read_would_index_out_of_bounds() {
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(codec_opts(CodecMode::Prefix));
    timeseries_entries(100, 3).iter().for_each(|e| b.add(e));
    let (bytes, _) = b.finish(&cost, &mut Timeline::new());
    let open_with = |at: usize, word: u32| {
        let mut bytes = bytes.clone();
        bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
        PmTable::open(DramBuf::new(bytes, cost)).err()
    };
    // No extractor, so the meta layer is `count 1 | len 0 | first_group
    // | group_count`: a row claiming more groups than the prefix layer
    // holds used to open, and the first `get` then indexed past it.
    let meta_row_groups = HEADER_LEN + 2 + 4;
    assert_eq!(
        open_with(meta_row_groups, u32::MAX),
        Some(PmTableError::Corrupt("meta row groups"))
    );
    assert_eq!(
        open_with(meta_row_groups, 8),
        Some(PmTableError::Corrupt("meta row groups")),
        "7 groups of 16 hold the 100 entries"
    );
    // A prefix layer a row short of the header's group count.
    let prefix_off = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    assert_eq!(
        open_with(20, prefix_off + PREFIX_WIDTH as u32),
        Some(PmTableError::Corrupt("prefix section"))
    );
    // An entry count `scan_all` would reserve for.
    assert_eq!(
        open_with(4, u32::MAX),
        Some(PmTableError::Corrupt("entry count"))
    );
}

#[test]
fn lookup_meters_fewer_pm_bytes_than_full_scan() {
    let entries = index_entries(2000, 64, 9);
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(delim_opts());
    for e in &entries {
        b.add(e.clone());
    }
    let mut build_tl = Timeline::new();
    let (bytes, _) = b.finish(&cost, &mut build_tl);
    let pool = pm_device::PmPool::new(1 << 24, cost);
    let region = pool.publish(bytes, &mut build_tl).unwrap();
    let t = PmTable::open(region).unwrap();
    let mut t_get = Timeline::new();
    t.get(&entries[777].user_key, u64::MAX, &mut t_get);
    let mut t_scan = Timeline::new();
    t.scan_all(&mut t_scan);
    assert!(
        t_get.elapsed().as_nanos() * 10 < t_scan.elapsed().as_nanos(),
        "get {} scan {}",
        t_get.elapsed(),
        t_scan.elapsed()
    );
}

#[test]
fn a_full_scan_reads_each_group_block_once_the_first_at_random_the_rest_in_sequence() {
    // Bit-packed groups, which a point read charges an unpack for:
    // a full scan does not.
    let entries = index_entries(2000, 64, 9);
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(PmTableOptions {
        codec: CodecMode::Delta,
        ..delim_opts()
    });
    for e in &entries {
        b.add(e);
    }
    let (bytes, _) = b.finish(&cost, &mut Timeline::new());
    let pool = pm_device::PmPool::new(1 << 24, cost);
    let region = pool.publish(bytes, &mut Timeline::new()).unwrap();
    let t = PmTable::open(region).unwrap();
    assert!(t.codec_histogram()[CODEC_DELTA as usize] > 0);
    let blocks: Vec<usize> = (0..t.group_count())
        .map(|g| t.gindex(g).1 as usize)
        .collect();
    let stats = pool.stats();
    let before = (stats.bytes_read.get(), stats.random_reads.get());
    let mut tl = Timeline::new();
    assert_eq!(t.scan_all(&mut tl), entries);
    let rest = blocks[1..].iter().map(|&len| cost.pm.sequential_read(len));
    assert_eq!(
        tl.elapsed(),
        rest.fold(cost.pm.random_read(blocks[0]), |sum, block| sum + block)
    );
    assert_eq!(
        stats.bytes_read.get() - before.0,
        blocks.iter().sum::<usize>() as u64
    );
    assert_eq!(stats.random_reads.get() - before.1, 1);
}

#[test]
fn table_bytes_are_pinned_under_every_codec() {
    // CRC32C of the encoded table: a rewrite of the build path may
    // not change a byte. 8-byte values keep all three codecs
    // eligible; the filter section is pinned along with the rest (last
    // recorded when it became the blocked filter's lines).
    let entries = index_entries(3000, 8, 77);
    let crc_under = |codec| {
        let mut b = PmTableBuilder::new(PmTableOptions {
            filter_bits_per_key: 10,
            codec,
            ..delim_opts()
        });
        for e in &entries {
            b.add(e);
        }
        let (bytes, _) = b.finish(&CostModel::default(), &mut Timeline::new());
        encoding::crc::crc32c(&bytes)
    };
    let modes = [
        CodecMode::Prefix,
        CodecMode::Delta,
        CodecMode::Fixed,
        CodecMode::Auto,
    ];
    assert_eq!(
        modes.map(crc_under),
        [4_108_124_738, 3_327_241_847, 3_287_609_442, 3_327_241_847]
    );
}

#[test]
fn delimiter_missing_falls_back_to_whole_key() {
    let ext = MetaExtractor::Delimiter(b':');
    let (m, r) = ext.split(b"nodelimiter");
    assert!(m.is_empty());
    assert_eq!(r, b"nodelimiter");
    let (m, r) = ext.split(b"a:b");
    assert_eq!(m, b"a:");
    assert_eq!(r, b"b");
}

/// Timeseries-shaped entries: monotonic 8-byte big-endian keys with
/// fixed 8-byte counter values.
fn timeseries_entries(n: u64, stride: u64) -> Vec<OwnedEntry> {
    (0..n)
        .map(|i| {
            OwnedEntry::value(
                (1_700_000_000u64 + i * stride).to_be_bytes().to_vec(),
                i + 1,
                (40_000u64 + i * 3).to_be_bytes().to_vec(),
            )
        })
        .collect()
}

fn codec_opts(codec: CodecMode) -> PmTableOptions {
    PmTableOptions {
        group_size: 16,
        extractor: MetaExtractor::None,
        filter_bits_per_key: 0,
        codec,
    }
}

#[test]
fn delta_codec_roundtrips_numeric_keys() {
    let entries = timeseries_entries(500, 7);
    let t = build(&entries, codec_opts(CodecMode::Delta));
    assert_eq!(t.dominant_codec(), CODEC_DELTA);
    assert!(t.codec_histogram()[CODEC_DELTA as usize] > 0);
    let mut tl = Timeline::new();
    assert_eq!(t.scan_all(&mut tl), entries);
    for e in entries.iter().step_by(13) {
        let hit = t.get(&e.user_key, u64::MAX, &mut tl).unwrap();
        assert_eq!(hit.value, e.value);
        assert_eq!(hit.seq, e.seq);
    }
    assert!(t
        .get(&2_000_000_000u64.to_be_bytes(), u64::MAX, &mut tl)
        .is_none());
}

#[test]
fn fixed_codec_roundtrips_fixed_width_values() {
    let entries = timeseries_entries(300, 11);
    let t = build(&entries, codec_opts(CodecMode::Fixed));
    assert_eq!(t.dominant_codec(), CODEC_FIXED);
    let mut tl = Timeline::new();
    assert_eq!(t.scan_all(&mut tl), entries);
    for e in entries.iter().step_by(7) {
        assert_eq!(
            t.get(&e.user_key, u64::MAX, &mut tl).unwrap().value,
            e.value
        );
    }
}

#[test]
fn auto_shrinks_timeseries_tables() {
    let entries = timeseries_entries(2048, 1);
    let cost = CostModel::default();
    let mut sizes = Vec::new();
    for mode in [CodecMode::Prefix, CodecMode::Auto] {
        let mut b = PmTableBuilder::new(codec_opts(mode));
        for e in &entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        let (bytes, _) = b.finish(&cost, &mut tl);
        sizes.push(bytes.len());
    }
    let (prefix, auto) = (sizes[0] as f64, sizes[1] as f64);
    assert!(
        auto < prefix * 0.75,
        "auto {auto} must be ≥25% below prefix {prefix}"
    );
    // And the smaller table still reads back identically.
    let t = build(&entries, codec_opts(CodecMode::Auto));
    let mut tl = Timeline::new();
    assert_eq!(t.scan_all(&mut tl), entries);
}

#[test]
fn prefix_mode_matches_auto_on_ineligible_shapes() {
    // Ragged keys and values: no group qualifies for codecs 1/2, so
    // Auto falls back to codec 0 everywhere and the output is
    // byte-identical to a forced-prefix build (no codec section).
    let entries = index_entries(400, 33, 10);
    let cost = CostModel::default();
    let mut outs = Vec::new();
    for mode in [CodecMode::Prefix, CodecMode::Auto] {
        let mut b = PmTableBuilder::new(PmTableOptions {
            codec: mode,
            ..delim_opts()
        });
        for e in &entries {
            b.add(e.clone());
        }
        let mut tl = Timeline::new();
        outs.push(b.finish(&cost, &mut tl).0);
    }
    // index_entries values are random-filled (variable content but
    // fixed width 33 > 8), keys are ragged after the group LCP only
    // in stride; eligibility then differs per group — so instead of
    // asserting equality blindly, check the flag byte agreement.
    let t_prefix = PmTable::open(DramBuf::new(outs[0].clone(), cost)).unwrap();
    assert_eq!(
        t_prefix.codec_histogram()[CODEC_PREFIX as usize],
        t_prefix.group_count()
    );
    let t_auto = PmTable::open(DramBuf::new(outs[1].clone(), cost)).unwrap();
    let mut tl = Timeline::new();
    assert_eq!(t_auto.scan_all(&mut tl), t_prefix.scan_all(&mut tl));
}

#[test]
fn versions_straddling_group_boundaries_under_delta() {
    // The PR-3 straddle regression, rebuilt with the delta codec
    // forced: boundary groups mixing `t0:a`/`t0:z` with the version
    // run are delta-eligible (1-byte remainders), while all-`k`
    // groups collapse to a zero-length remainder and fall back to
    // codec 0 — a mixed-codec table exercising the step-back logic.
    let entries = straddle_entries();
    let t = build(
        &entries,
        PmTableOptions {
            codec: CodecMode::Delta,
            ..delim_opts()
        },
    );
    let hist = t.codec_histogram();
    assert!(
        hist[CODEC_DELTA as usize] > 0 && hist[CODEC_PREFIX as usize] > 0,
        "expected mixed codecs, got {hist:?}"
    );
    let mut tl = Timeline::new();
    assert_eq!(t.get(b"t0:k", u64::MAX, &mut tl).unwrap().seq, 30);
    for snap in 1..=30u64 {
        let hit = t.get(b"t0:k", snap, &mut tl).unwrap();
        assert_eq!(hit.seq, snap, "snapshot {snap} must see its own version");
        assert_eq!(hit.value, format!("v{snap}").into_bytes());
    }
    assert_eq!(t.get(b"t0:a", u64::MAX, &mut tl).unwrap().value, b"before");
    assert_eq!(t.get(b"t0:z", u64::MAX, &mut tl).unwrap().value, b"after");
    assert_eq!(t.scan_all(&mut tl), entries);
}

#[test]
fn group_first_key_compares_piecewise_as_the_materialised_key_did() {
    // `cmp_group_first` orders `lcp ‖ remainder` against a probe
    // without building the key. The oracle is the key itself: the
    // group's first decoded entry, meta-stripped. Probes are every
    // stored key plus the boundary shapes of the piecewise compare —
    // the empty key, a strict prefix (inside and at the end of the
    // LCP), and an extension.
    let delim = |codec| PmTableOptions {
        codec,
        ..delim_opts()
    };
    let shapes = [
        (
            delim(CodecMode::Prefix),
            index_entries(200, 8, 3),
            CODEC_PREFIX,
        ),
        (
            codec_opts(CodecMode::Delta),
            timeseries_entries(200, 7),
            CODEC_DELTA,
        ),
        (
            codec_opts(CodecMode::Fixed),
            timeseries_entries(200, 7),
            CODEC_FIXED,
        ),
        (delim(CodecMode::Prefix), straddle_entries(), CODEC_PREFIX),
        (delim(CodecMode::Delta), straddle_entries(), CODEC_DELTA),
    ];
    for (opts, entries, expect_codec) in shapes {
        let mode = opts.codec;
        let t = build(&entries, opts);
        assert!(t.codec_histogram()[expect_codec as usize] > 0, "{mode:?}");
        let mut probes: Vec<Vec<u8>> = vec![Vec::new()];
        for e in &entries {
            let rest = opts.extractor.split(&e.user_key).1;
            probes.push(rest.to_vec());
            probes.push(rest[..rest.len() / 2].to_vec());
            probes.push(rest[..rest.len().saturating_sub(1)].to_vec());
            probes.push([rest, b"\0"].concat());
        }
        for g in 0..t.group_count() {
            let decoded = t.decode_group(g).unwrap();
            let first = opts.extractor.split(decoded.get(0).user_key).1;
            for probe in &probes {
                assert_eq!(
                    t.cmp_group_first(g, probe),
                    Some(first.cmp(probe.as_slice())),
                    "{mode:?} group {g} (codec {}) first {first:?} vs {probe:?}",
                    t.group_codec(g)
                );
            }
        }
    }
}

#[test]
fn scan_range_agrees_across_codecs() {
    let entries = timeseries_entries(400, 3);
    let reference = build(&entries, codec_opts(CodecMode::Prefix));
    let mut tl = Timeline::new();
    let lo = entries[37].user_key.clone();
    let hi = entries[205].user_key.clone();
    let want = reference.scan_range(&lo, Some(&hi), usize::MAX, &mut tl);
    for mode in [CodecMode::Delta, CodecMode::Fixed, CodecMode::Auto] {
        let t = build(&entries, codec_opts(mode));
        let got = t.scan_range(&lo, Some(&hi), usize::MAX, &mut tl);
        assert_eq!(got, want, "scan mismatch under {mode:?}");
    }
}

/// Every entry a cursor yields from `start` on.
fn drain_from(t: &PmTable<DramBuf>, start: &[u8]) -> Vec<OwnedEntry> {
    let mut tl = Timeline::new();
    let mut cursor = t.cursor(NoGroupCache);
    assert!(cursor.current().is_none(), "unpositioned before a seek");
    let group = t.seek_group(start, &mut tl);
    cursor.seek(group, start, &mut tl).unwrap();
    let mut out = Vec::new();
    while let Some(e) = cursor.current() {
        out.push(e.to_owned());
        cursor.advance(&mut tl).unwrap();
    }
    assert_eq!(cursor.advance(&mut tl), Ok(GroupLoad::None));
    out
}

#[test]
fn cursor_seeks_before_between_and_past_under_every_codec() {
    let entries = timeseries_entries(100, 4);
    let key = |i: usize, plus: u64| (1_700_000_000u64 + 4 * i as u64 + plus).to_be_bytes();
    for mode in [CodecMode::Prefix, CodecMode::Delta, CodecMode::Fixed] {
        let t = build(&entries, codec_opts(mode));
        assert!(
            t.group_count() > 4,
            "100 entries span several 16-entry groups"
        );
        assert_eq!(
            drain_from(&t, b""),
            entries,
            "{mode:?}: before the first key"
        );
        assert_eq!(
            drain_from(&t, &key(0, 0)),
            entries,
            "{mode:?}: on the first key"
        );
        assert_eq!(
            drain_from(&t, &key(32, 0)),
            entries[32..],
            "{mode:?}: a group's first key"
        );
        assert_eq!(
            drain_from(&t, &key(31, 1)),
            entries[32..],
            "{mode:?}: between two groups"
        );
        assert_eq!(
            drain_from(&t, &key(40, 1)),
            entries[41..],
            "{mode:?}: between two keys"
        );
        assert_eq!(
            drain_from(&t, &key(99, 0)),
            entries[99..],
            "{mode:?}: on the last key"
        );
        assert!(
            drain_from(&t, &key(99, 1)).is_empty(),
            "{mode:?}: past the last key"
        );
    }
    assert!(drain_from(&build(&[], codec_opts(CodecMode::Auto)), b"").is_empty());
}

#[test]
fn cursor_seek_finds_newest_version_across_a_group_straddle() {
    // The PR-3 straddle shape: the newest version of `t0:k` sits at
    // the tail of group 0, older ones lead groups 1..3. A seek that
    // stopped at a group whose first key equals the target would
    // surface a stale version first.
    let mut entries = vec![OwnedEntry::value(b"t0:a".to_vec(), 1000, b"a".to_vec())];
    for seq in (1..=30u64).rev() {
        entries.push(OwnedEntry::value(b"t0:k".to_vec(), seq, b"v".to_vec()));
    }
    entries.push(OwnedEntry::value(b"t0:z".to_vec(), 1001, b"z".to_vec()));
    for codec in [CodecMode::Prefix, CodecMode::Delta] {
        let t = build(
            &entries,
            PmTableOptions {
                codec,
                ..delim_opts()
            },
        );
        assert_eq!(drain_from(&t, b"t0:k"), entries[1..], "{codec:?}");
        let first = t.scan_range(b"t0:k", None, 1, &mut Timeline::new());
        assert_eq!(first[0].seq, 30, "{codec:?}");
    }
}

#[test]
fn cursor_fetches_groups_through_the_access_hook() {
    struct MapCache(std::cell::RefCell<std::collections::HashMap<u32, Arc<EntryRun>>>);
    impl GroupAccess for &MapCache {
        fn lookup(&self, group: u32) -> Option<Arc<EntryRun>> {
            self.0.borrow().get(&group).cloned()
        }
        fn store(&self, group: u32, entries: Arc<EntryRun>) {
            self.0.borrow_mut().insert(group, entries);
        }
    }
    let entries = timeseries_entries(100, 4);
    let t = build(&entries, codec_opts(CodecMode::Auto));
    let cache = MapCache(Default::default());
    let start = entries[50].user_key.clone();
    let (mut cold, mut warm) = (Timeline::new(), Timeline::new());
    let group = t.seek_group(&start, &mut Timeline::new());
    let mut cursor = t.cursor(&cache);
    assert_eq!(
        cursor.seek(group, &start, &mut cold),
        Ok(GroupLoad::Decoded)
    );
    assert_eq!(
        cache.0.borrow().len(),
        1,
        "a seek decodes one group, not the table"
    );
    let mut cursor = t.cursor(&cache);
    assert_eq!(cursor.seek(group, &start, &mut warm), Ok(GroupLoad::Cached));
    assert_eq!(cursor.current(), Some(entries[50].as_ref()));
    assert!(
        warm.elapsed() < cold.elapsed(),
        "a cached group costs DRAM, not PM"
    );
}

#[test]
fn open_rejects_unknown_codec_id() {
    let entries = timeseries_entries(64, 1);
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(codec_opts(CodecMode::Delta));
    for e in &entries {
        b.add(e.clone());
    }
    let mut tl = Timeline::new();
    let (mut bytes, _) = b.finish(&cost, &mut tl);
    let t = PmTable::open(DramBuf::new(bytes.clone(), cost)).unwrap();
    assert!(
        t.codecs_off.is_some(),
        "delta table must carry a codec section"
    );
    let off = t.codecs_off.unwrap() as usize;
    bytes[off] = 7;
    match PmTable::open(DramBuf::new(bytes, cost)) {
        Err(e) => assert_eq!(e, PmTableError::Corrupt("codec id")),
        Ok(_) => panic!("unknown codec id must not open"),
    }
}

#[test]
fn filter_and_codec_sections_coexist() {
    let entries = timeseries_entries(256, 5);
    let mut opts = codec_opts(CodecMode::Auto);
    opts.filter_bits_per_key = 10;
    let t = build(&entries, opts);
    assert!(t.has_filter());
    assert_ne!(t.dominant_codec(), CODEC_PREFIX);
    let mut tl = Timeline::new();
    for e in entries.iter().step_by(19) {
        let hashes = BloomFilter::hashes(&e.user_key);
        assert_eq!(t.filter_may_contain(hashes, &mut tl), Some(true));
        assert_eq!(
            t.get(&e.user_key, u64::MAX, &mut tl).unwrap().value,
            e.value
        );
    }
    assert_eq!(t.scan_all(&mut tl), entries);
}

#[test]
fn a_probe_the_filter_rules_out_costs_one_dram_line() {
    let entries = timeseries_entries(256, 5);
    let mut opts = codec_opts(CodecMode::Auto);
    opts.filter_bits_per_key = 10;
    let t = build(&entries, opts);
    // ceil(256 keys × 10 bits / 512) lines and the tag byte.
    assert_eq!(t.filter_bytes(), 5 * 64 + 1);
    let absent = (0u64..)
        .map(|i| BloomFilter::hashes(&(1_700_000_001 + i * 5).to_be_bytes()))
        .find(|&h| t.filter_may_contain(h, &mut Timeline::new()) == Some(false))
        .unwrap();
    let mut tl = Timeline::new();
    assert_eq!(t.filter_may_contain(absent, &mut tl), Some(false));
    assert_eq!(tl.elapsed(), CostModel::default().dram.random_read(64));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
    #[test]
    fn prop_codecs_agree_with_prefix_baseline(
        keys in proptest::collection::btree_set(0u64..5000, 2..150),
        stride_scale in 1u64..1000,
        vlen in 0usize..24,
    ) {
        // Numeric keys at arbitrary spacing; values fixed-width per
        // table so codec 2 is exercised when vlen ∈ 1..=8.
        let entries: Vec<OwnedEntry> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| OwnedEntry::value(
                (k * stride_scale).to_be_bytes().to_vec(),
                i as u64 + 1,
                vec![b'v'; vlen],
            ))
            .collect();
        let baseline = build(&entries, codec_opts(CodecMode::Prefix));
        let mut tl = Timeline::new();
        let want = baseline.scan_all(&mut tl);
        proptest::prop_assert_eq!(&want, &entries);
        for mode in [CodecMode::Delta, CodecMode::Fixed, CodecMode::Auto] {
            let t = build(&entries, codec_opts(mode));
            proptest::prop_assert_eq!(&t.scan_all(&mut tl), &entries);
            for e in entries.iter().step_by(11) {
                let hit = t.get(&e.user_key, u64::MAX, &mut tl).unwrap();
                proptest::prop_assert_eq!(&hit.value, &e.value);
                proptest::prop_assert_eq!(hit.seq, e.seq);
            }
        }
    }

    #[test]
    fn prop_roundtrip_random_entries(
        keys in proptest::collection::btree_set(
            proptest::collection::vec(b'a'..=b'f', 1..20), 1..120),
        vlen in 0usize..40,
    ) {
        let entries: Vec<OwnedEntry> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| OwnedEntry::value(
                k.clone(), i as u64 + 1, vec![b'v'; vlen]))
            .collect();
        let t = build(&entries, PmTableOptions {
            group_size: 8,
            extractor: MetaExtractor::FixedLen(2),
            filter_bits_per_key: 0,
            codec: CodecMode::Prefix,
        });
        let mut tl = Timeline::new();
        let got = t.scan_all(&mut tl);
        proptest::prop_assert_eq!(&got, &entries);
        for e in &entries {
            let hit = t.get(&e.user_key, u64::MAX, &mut tl).unwrap();
            proptest::prop_assert_eq!(&hit.value, &e.value);
        }
    }
}

/// Every row a cursor yields from the front of the table until it ends
/// or fails.
fn drain_until_error<A: GroupAccess>(mut cursor: PmCursor<'_, DramBuf, A>) -> usize {
    let mut tl = Timeline::new();
    let mut step = cursor.seek(0, b"", &mut tl);
    let mut rows = 0;
    while let (Ok(_), Some(_)) = (&step, cursor.current()) {
        rows += 1;
        step = cursor.advance(&mut tl);
    }
    rows
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
    /// Table bytes are input from outside the program (a PM region read
    /// back after a restart): flipped, overwritten or cut short in any
    /// section, they fail to open, or open and read as misses and
    /// shorter scans — they never panic.
    #[test]
    fn prop_mutated_table_bytes_never_panic(
        n in 2u64..120,
        filter_bits in proptest::sample::select(vec![0usize, 10]),
        section in 0usize..5,
        at in 0usize..10_000,
        mutation in 0usize..4,
    ) {
        // Two metas (the tag byte), numeric 8-byte key remainders and
        // 8-byte values: every codec is eligible.
        let entries: Vec<OwnedEntry> = (0..n)
            .map(|i| {
                let mut key = vec![b'a' + (2 * i / n) as u8];
                key.extend_from_slice(&(1_700_000_000 + 7 * i).to_be_bytes());
                OwnedEntry::value(key, i + 1, (40_000 + 3 * i).to_be_bytes().to_vec())
            })
            .collect();
        let cost = CostModel::default();
        for codec in [CodecMode::Prefix, CodecMode::Delta, CodecMode::Fixed, CodecMode::Auto] {
            let mut b = PmTableBuilder::new(PmTableOptions {
                group_size: 8,
                extractor: MetaExtractor::FixedLen(1),
                filter_bits_per_key: filter_bits,
                codec,
            });
            entries.iter().for_each(|e| b.add(e));
            let (mut bytes, _) = b.finish(&cost, &mut Timeline::new());
            let intact = PmTable::open(DramBuf::new(bytes.clone(), cost)).unwrap();
            proptest::prop_assert_eq!(drain_until_error(intact.cursor(NoGroupCache)), entries.len());
            // Header, meta layer, gindex, codec array (the gindex again
            // for a table without one), one group's block.
            let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let (meta_off, prefix_off, gindex_off, entry_off) =
                (u32_at(16) as usize, u32_at(20) as usize, u32_at(24) as usize, u32_at(28) as usize);
            let gindex_end = gindex_off + intact.group_count() as usize * GINDEX_ENTRY_LEN;
            let (block_off, block_len, _, _) = intact.gindex(at as u32 % intact.group_count());
            let block = entry_off + block_off as usize;
            let sections = [
                0..HEADER_LEN,
                meta_off..prefix_off,
                gindex_off..gindex_end,
                if gindex_end < entry_off { gindex_end..entry_off } else { gindex_off..gindex_end },
                block..block + block_len as usize,
            ];
            let pos = sections[section].start + at % sections[section].len();
            match mutation {
                0 => bytes[pos] ^= 1 << (at % 8),
                1 => bytes[pos] = 0xff,
                2 => bytes[pos..(pos + 4).min(sections[section].end)].fill(0xff),
                _ => bytes.truncate(pos),
            }
            let Ok(t) = PmTable::open(DramBuf::new(bytes, cost)) else {
                continue;
            };
            let mut tl = Timeline::new();
            for e in &entries {
                t.get(&e.user_key, u64::MAX, &mut tl);
            }
            t.scan_range(&entries[entries.len() / 2].user_key, None, usize::MAX, &mut tl);
            let rows = drain_until_error(t.cursor(NoGroupCache));
            proptest::prop_assert_eq!(drain_until_error(t.sequential_cursor::<NoGroupCache>()), rows);
        }
    }
}

#[test]
fn the_column_keeps_one_window_per_entry_and_the_fences_one_per_group() {
    let mut keys = TableKeys::new(1, 5, 3);
    // Group 1 is empty: its fence repeats group 0's.
    for (group, key) in [
        (0, &b"ka"[..]),
        (0, b"kb"),
        (2, b"kc"),
        (2, b"kd"),
        (2, b"ke"),
    ] {
        keys.push(group, key);
    }
    assert_eq!(keys.windows.len(), 5);
    assert_eq!(keys.fences.bytes(), 8 * 3);
    assert_eq!(keys.fences.group_of(b"kb").0, 0);
    assert_eq!(keys.fences.group_of(b"kbb").0, 2);
    assert_eq!(keys.fences.group_of(b"ke").0, 2);
    assert_eq!(keys.fences.group_of(b"kf").0, 3);
    let fences = TableKeys::fences_only(1, 3);
    assert_eq!((fences.windows.len(), fences.fences.bytes()), (0, 0));
}

/// The windows of one table, as its builder would hand them over.
fn windows_of(keys: &[&[u8]]) -> Vec<u64> {
    let prefix = encoding::prefix::common_prefix_len(keys[0], keys[keys.len() - 1]);
    let mut table = TableKeys::new(prefix, keys.len(), 1);
    keys.iter().for_each(|key| table.push(0, key));
    assert_eq!(table.fences.prefix_len(), prefix);
    table.windows
}

#[test]
fn a_merged_column_reframes_renumbers_and_seeks_once() {
    let mut merged = MergedColumn::default();
    merged.push(0, windows_of(&[b"k:a1", b"k:a3"]), b"k:a");
    assert_eq!(merged.prefix(), b"k:a");
    // A second table shortens the common prefix to `k:`: the first
    // table's windows are re-framed behind the `a` it gives up.
    merged.push(1, windows_of(&[b"k:a2", b"k:b"]), b"k:");
    assert_eq!(merged.prefix(), b"k:");
    let window = |key: &[u8]| {
        let mut w = [0; 8];
        w[..key.len()].copy_from_slice(key);
        u64::from_be_bytes(w)
    };
    let order: Vec<(u64, usize)> = merged.entries().collect();
    assert_eq!(
        order,
        [
            (window(b"a1"), 0),
            (window(b"a2"), 1),
            (window(b"a3"), 0),
            (window(b"b"), 1)
        ]
    );
    assert_eq!(merged.bytes(), 12 * 4);
    assert_eq!(merged.seek(b"k:a2"), (1, 1));
    assert_eq!(merged.seek(b"k:a25").0, 2);
    assert_eq!(merged.seek(b"a"), (0, 0), "before the prefix: no search");
    assert_eq!(merged.seek(b"z"), (4, 0), "after it: past the last entry");
    assert_eq!(merged.tail(3), (window(b"b").to_be_bytes(), 1));
    // The oldest table goes; the other is renumbered and keeps the prefix.
    merged.drop_oldest(1);
    assert_eq!(
        merged.entries().collect::<Vec<_>>(),
        [(window(b"a2"), 0), (window(b"b"), 0)]
    );
    assert_eq!(merged.prefix(), b"k:");
    merged.drop_oldest(1);
    assert_eq!(merged, MergedColumn::default());
    // Clearing forgets every table as dropping them all does.
    merged.push(0, windows_of(&[b"k:a1", b"k:a3"]), b"k:a");
    merged.clear();
    assert_eq!(merged, MergedColumn::default());
    assert_eq!(MergedColumn::walk_lines(3, 3), 2);
    assert_eq!(MergedColumn::walk_lines(3, 8), 1);
    assert_eq!(MergedColumn::walk_lines(3, 16), 2);
}

/// A table's entries from `(meta, key)` pairs: keys `t{meta}:` and a
/// big-endian `u16` (so delta-eligible once the meta is stripped),
/// values `vlen` bytes wide (fixed-codec eligible at 1–8), every third
/// key with an older version and every seventh of those a tombstone.
fn reuse_entries(keys: &std::collections::BTreeSet<(u8, u16)>, vlen: usize) -> Vec<OwnedEntry> {
    let mut seq = 1 << 20;
    let mut entries = Vec::new();
    for &(meta, k) in keys {
        let key = [&[b't', b'0' + meta, b':'][..], &k.to_be_bytes()].concat();
        let versions = if k % 3 == 0 { 2 } else { 1 };
        for v in 0..versions {
            seq -= 1;
            let value = vec![(k as u8).wrapping_add(v); vlen];
            entries.push(match v == 1 && k % 7 == 0 {
                true => OwnedEntry::tombstone(key.clone(), seq),
                false => OwnedEntry::value(key.clone(), seq, value),
            });
        }
    }
    entries
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
    /// One builder cuts table after table, as a run writer does; each
    /// table, under the options' codec or one set for it alone, must
    /// come out as a fresh builder writes it: bytes, stats and keys, and
    /// the shape and sizes it reports before the cut.
    #[test]
    fn prop_a_reused_builder_writes_what_a_fresh_one_writes(
        tables in proptest::collection::vec((
            proptest::collection::btree_set((0u8..3, 0u16..600), 1..120),
            0usize..12,
            proptest::sample::select(vec![
                None,
                Some(CodecMode::Prefix),
                Some(CodecMode::Delta),
                Some(CodecMode::Fixed),
                Some(CodecMode::Auto),
            ]),
        ), 2..6),
        codec in proptest::sample::select(vec![
            CodecMode::Prefix, CodecMode::Delta, CodecMode::Fixed, CodecMode::Auto,
        ]),
        filter_bits_per_key in proptest::sample::select(vec![0usize, 10]),
        fences_only in proptest::bool::ANY,
        extractor in proptest::sample::select(vec![
            MetaExtractor::None, MetaExtractor::Delimiter(b':'),
        ]),
        group_size in proptest::sample::select(vec![2usize, 8, 16]),
    ) {
        let opts = PmTableOptions { group_size, extractor, filter_bits_per_key, codec };
        let cost = CostModel::default();
        let builder = || {
            let mut b = PmTableBuilder::new(opts);
            if fences_only {
                b.set_fences_only();
            }
            b
        };
        let mut reused = builder();
        // The first table grows the buffers; later ones reuse them.
        reused.reserve(16, 16 * 20);
        for (keys, vlen, table_codec) in &tables {
            let entries = reuse_entries(keys, *vlen);
            let mut fresh = builder();
            let mut built = Vec::new();
            for b in [&mut reused, &mut fresh] {
                for e in &entries {
                    b.add(e);
                }
                if let Some(codec) = table_codec {
                    b.set_codec(*codec);
                }
                let seen = (b.entry_count(), b.raw_bytes(), b.shape());
                let mut tl = Timeline::new();
                built.push((seen, b.finish(&cost, &mut tl), tl.elapsed()));
            }
            proptest::prop_assert_eq!(&built[0], &built[1]);
            let (_, (bytes, (stats, _)), _) = &built[0];
            proptest::prop_assert_eq!(stats.encoded_bytes, bytes.len());
            let t = PmTable::open(DramBuf::new(bytes.clone(), cost)).unwrap();
            proptest::prop_assert_eq!(&t.scan_all(&mut Timeline::new()), &entries);
        }
    }
}
