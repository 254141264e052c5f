//! Shared helpers for the cross-crate integration tests.

use pm_blade::{Db, Mode, Options};
use pmtable::CodecMode;

/// A small engine configuration that exercises every compaction path
/// quickly: tiny memtables, tight PM budget, shallow level targets.
///
/// The CI feature matrix re-runs the whole suite under degenerate
/// read-path settings (filters off, near-zero group cache, every
/// request traced) by setting `PMBLADE_TEST_FILTER_BITS` /
/// `PMBLADE_TEST_GROUP_CACHE_BYTES` / `PMBLADE_TEST_TRACE_SAMPLE`;
/// `PMBLADE_TEST_CODEC` (`prefix`/`delta`/`fixed`/`auto`) forces the
/// PM table codec the same way. Tests that pin these knobs themselves
/// override after calling this.
pub fn tiny_options(mode: Mode) -> Options {
    let mut opts = Options {
        mode,
        pm_capacity: 2 << 20,
        memtable_bytes: 8 << 10,
        tau_w: 64 << 10,
        tau_m: 1536 << 10,
        tau_t: 768 << 10,
        l1_target: 256 << 10,
        max_table_bytes: 128 << 10,
        block_cache_bytes: 256 << 10,
        l0_unsorted_hard_cap: 8,
        ..Options::default()
    };
    if let Some(bits) = env_knob("PMBLADE_TEST_FILTER_BITS") {
        opts.pm_filter_bits_per_key = bits;
    }
    if let Some(bytes) = env_knob("PMBLADE_TEST_GROUP_CACHE_BYTES") {
        opts.pm_group_cache_bytes = bytes;
    }
    if let Some(every) = env_knob("PMBLADE_TEST_TRACE_SAMPLE") {
        opts.trace_sample_every = every as u64;
    }
    if let Ok(raw) = std::env::var("PMBLADE_TEST_CODEC") {
        opts.pm_codec_mode = match raw.trim() {
            "prefix" => CodecMode::Prefix,
            "delta" => CodecMode::Delta,
            "fixed" => CodecMode::Fixed,
            "auto" => CodecMode::Auto,
            other => panic!("PMBLADE_TEST_CODEC must be prefix/delta/fixed/auto, got {other:?}"),
        };
    }
    opts
}

fn env_knob(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a usize, got {raw:?}")),
    )
}

/// Open a tiny engine in the given mode.
pub fn tiny_db(mode: Mode) -> Db {
    Db::open(tiny_options(mode)).expect("engine opens")
}

/// Deterministic value payload for key index `i`.
pub fn value_for(i: u64, len: usize) -> Vec<u8> {
    let mut v = format!("value-{i}-").into_bytes();
    while v.len() < len {
        v.push(b'a' + (i % 26) as u8);
    }
    v.truncate(len);
    v
}

/// `keyNNNNNNNN` formatted key.
pub fn key_for(i: u64) -> Vec<u8> {
    format!("key{:08}", i).into_bytes()
}

/// `pm_pool_unreferenced_bytes`: pool bytes in use that no live
/// level-0 references. 0 whenever no maintenance step is in flight.
pub fn pm_unreferenced_bytes(db: &Db) -> i64 {
    let snap = db.metrics_snapshot();
    let mut gauges = snap.gauges.iter();
    let gauge = gauges.find(|(key, _)| key.name == "pm_pool_unreferenced_bytes");
    *gauge.expect("the gauge is registered at open").1
}
