//! Read-path acceleration parity: an engine with PM-L0 bloom filters
//! and the shared group-decode cache enabled must return byte-identical
//! `get` and `scan` results to an engine with both disabled, under
//! arbitrary interleavings of writes, deletes and compactions.
//!
//! What this proves:
//! - **No bloom false negatives**: a filter that wrongly ruled out a
//!   table would surface as a missing or stale read on the accelerated
//!   engine only.
//! - **No stale cache**: a cached group surviving an internal or major
//!   compaction of its table would surface as a resurrected old version.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use pm_blade::costmodel::CodecCostTable;
use pm_blade::handle::CacheIds;
use pm_blade::level0::Probe;
use pm_blade::options::PmTableLayout;
use pm_blade::partition::{Media, Partition};
use pm_blade::telemetry::StageTimes;
use pm_blade::{
    CompactionRequest, Db, L0Version, Mode, Options, PmGroupCache, ScanRequest, Timeline,
};
use pm_device::PmPool;
use pmblade_integration_tests::{tiny_options, value_for};
use pmtable::{CodecMode, MetaExtractor};
use proptest::prelude::*;
use ssd_device::SsdDevice;
use sstable::BlockCache;

/// The accelerated engine: default filter budget, a deliberately tiny
/// cache so evictions and re-fills happen constantly.
fn accelerated_options() -> Options {
    let mut opts = tiny_options(Mode::PmBlade);
    opts.pm_filter_bits_per_key = 10;
    opts.pm_group_cache_bytes = 32 << 10;
    opts
}

/// The plain engine: no filters, no cache — the reference behaviour.
fn plain_options() -> Options {
    let mut opts = tiny_options(Mode::PmBlade);
    opts.pm_filter_bits_per_key = 0;
    opts.pm_group_cache_bytes = 0;
    opts
}

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u16),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    Flush,
    Internal,
    Major,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u16..300, 0u16..100).prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u16..300).prop_map(Op::Delete),
        4 => (0u16..300).prop_map(Op::Get),
        1 => (0u16..300, 1u8..30).prop_map(|(k, n)| Op::Scan(k, n)),
        1 => Just(Op::Flush),
        1 => Just(Op::Internal),
        1 => Just(Op::Major),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("key{:05}", k).into_bytes()
}

/// Drive both engines through the same schedule, comparing every read.
fn check_parity(fast: &Db, plain: &Db, ops: &[Op]) {
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, v) => {
                let value = value_for(*k as u64 * 1000 + *v as u64, 48);
                fast.put(&key(*k), &value).unwrap();
                plain.put(&key(*k), &value).unwrap();
            }
            Op::Delete(k) => {
                fast.delete(&key(*k)).unwrap();
                plain.delete(&key(*k)).unwrap();
            }
            Op::Get(k) => {
                let accel = fast.get(&key(*k)).unwrap().value;
                let reference = plain.get(&key(*k)).unwrap().value;
                assert_eq!(
                    accel, reference,
                    "step {step}: get({k}) diverged with filters+cache on"
                );
            }
            Op::Scan(k, n) => {
                let start = key(*k);
                let (accel, _) = fast
                    .scan(ScanRequest::new().start(start.clone()).limit(*n as usize))
                    .unwrap();
                let (reference, _) = plain
                    .scan(ScanRequest::new().start(start.clone()).limit(*n as usize))
                    .unwrap();
                assert_eq!(
                    accel, reference,
                    "step {step}: scan({k},{n}) diverged with filters+cache on"
                );
            }
            Op::Flush => {
                fast.compact(CompactionRequest::FlushAll).unwrap();
                plain.compact(CompactionRequest::FlushAll).unwrap();
            }
            Op::Internal => {
                fast.compact(CompactionRequest::Internal { partition: 0 })
                    .unwrap();
                plain
                    .compact(CompactionRequest::Internal { partition: 0 })
                    .unwrap();
            }
            Op::Major => {
                fast.compact(CompactionRequest::Major { partition: 0 })
                    .unwrap();
                plain
                    .compact(CompactionRequest::Major { partition: 0 })
                    .unwrap();
            }
        }
    }
    // Final audit: every key, both point reads and a full scan.
    for k in 0u16..300 {
        assert_eq!(
            fast.get(&key(k)).unwrap().value,
            plain.get(&key(k)).unwrap().value,
            "final audit: get({k}) diverged"
        );
    }
    let (accel, _) = fast.scan(ScanRequest::new().start("key")).unwrap();
    let (reference, _) = plain.scan(ScanRequest::new().start("key")).unwrap();
    assert_eq!(accel, reference, "final audit: full scan diverged");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn filters_and_cache_preserve_read_results(
        ops in proptest::collection::vec(op_strategy(), 1..180)
    ) {
        let fast = Db::open(accelerated_options()).unwrap();
        let plain = Db::open(plain_options()).unwrap();
        check_parity(&fast, &plain, &ops);
    }
}

/// The group-straddle regression shape: a 30-version pileup of one key
/// straddles prefix-group boundaries (group_size 8), flanked by
/// same-prefix neighbours. Filters must not rule out any straddled
/// group and the cache must survive the version churn.
fn straddle_ops() -> Vec<Op> {
    // key indices: 10 -> "t0:a"-analog, 20 -> the hot key, 30 -> "t0:z".
    let mut ops = vec![Op::Put(10, 0)];
    for v in 1..=30 {
        ops.push(Op::Put(20, v));
        if v % 8 == 0 {
            ops.push(Op::Flush);
        }
    }
    ops.push(Op::Put(30, 0));
    ops.extend([
        Op::Flush,
        Op::Get(10),
        Op::Get(20),
        Op::Get(30),
        Op::Internal,
        Op::Get(10),
        Op::Get(20),
        Op::Get(30),
        Op::Scan(0, 29),
        Op::Major,
        Op::Get(10),
        Op::Get(20),
        Op::Get(30),
    ]);
    ops
}

/// Deterministic seed derived from the PR-3 group-straddle regression:
/// `t0:a` written first, 30 stacked versions of `t0:k`, `t0:z` written
/// last, with group_size 8 and `Delimiter(b':')` meta extraction —
/// exercised with filters and a tiny cache against the plain engine.
#[test]
fn group_straddle_regression_parity() {
    let pm_table = PmTableLayout {
        group_size: 8,
        extractor: MetaExtractor::Delimiter(b':'),
    };
    let fast = {
        let mut opts = accelerated_options();
        opts.pm_table = pm_table;
        Db::open(opts).unwrap()
    };
    let plain = {
        let mut opts = plain_options();
        opts.pm_table = pm_table;
        Db::open(opts).unwrap()
    };
    let k = |name: &str| format!("t0:{name}").into_bytes();
    for db in [&fast, &plain] {
        db.put(&k("a"), b"first").unwrap();
        for v in 1..=30u32 {
            db.put(&k("k"), format!("version-{v}").as_bytes()).unwrap();
            if v % 8 == 0 {
                db.compact(CompactionRequest::FlushAll).unwrap();
            }
        }
        db.put(&k("z"), b"last").unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let audit = |stage: &str| {
        for name in ["a", "k", "z", "missing"] {
            assert_eq!(
                fast.get(&k(name)).unwrap().value,
                plain.get(&k(name)).unwrap().value,
                "{stage}: get(t0:{name}) diverged"
            );
        }
        assert_eq!(
            fast.get(&k("k")).unwrap().value.as_deref(),
            Some(&b"version-30"[..]),
            "{stage}: newest version must win"
        );
        let (accel, _) = fast.scan(ScanRequest::new().start("t0:")).unwrap();
        let (reference, _) = plain.scan(ScanRequest::new().start("t0:")).unwrap();
        assert_eq!(accel, reference, "{stage}: scan diverged");
        assert_eq!(accel.len(), 3, "{stage}: three live keys");
    };
    audit("after flush");
    // Read twice so the second pass is served from the warm cache.
    audit("cache warm");
    for db in [&fast, &plain] {
        db.compact(CompactionRequest::Internal { partition: 0 })
            .unwrap();
    }
    audit("after internal compaction");
    for db in [&fast, &plain] {
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap();
    }
    audit("after major compaction");
}

/// Cross-codec byte parity: four engines — forced prefix, forced
/// delta, forced fixed, and cost-model auto selection — run the same
/// schedule as a `BTreeMap` oracle, and every get/scan must return
/// byte-identical results no matter how the PM groups were encoded.
/// Delta unpacking must reconstruct exact key bytes, the fixed-width
/// value column must round-trip, and a forced codec that cannot
/// represent a group must fall back to prefix groups without data
/// loss. Values are 8 bytes so the fixed-width-value codec genuinely
/// engages; keys are fixed-width text so delta does too.
fn check_codec_oracle_parity(ops: &[Op]) {
    let engines: Vec<(&str, Db)> = [
        ("prefix", CodecMode::Prefix),
        ("delta", CodecMode::Delta),
        ("fixed", CodecMode::Fixed),
        ("auto", CodecMode::Auto),
    ]
    .into_iter()
    .map(|(name, mode)| {
        let mut opts = accelerated_options();
        opts.pm_codec_mode = mode;
        (name, Db::open(opts).unwrap())
    })
    .collect();
    let mut oracle: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, v) => {
                let value = value_for(*k as u64 * 1000 + *v as u64, 8);
                oracle.insert(key(*k), value.clone());
                for (_, db) in &engines {
                    db.put(&key(*k), &value).unwrap();
                }
            }
            Op::Delete(k) => {
                oracle.remove(&key(*k));
                for (_, db) in &engines {
                    db.delete(&key(*k)).unwrap();
                }
            }
            Op::Get(k) => {
                let expected = oracle.get(&key(*k)).cloned();
                for (name, db) in &engines {
                    assert_eq!(
                        db.get(&key(*k)).unwrap().value,
                        expected,
                        "step {step}: codec {name}: get({k}) diverged from the oracle"
                    );
                }
            }
            Op::Scan(k, n) => {
                let start = key(*k);
                let expected: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(start.clone()..)
                    .take(*n as usize)
                    .map(|(key, value)| (key.clone(), value.clone()))
                    .collect();
                for (name, db) in &engines {
                    let (rows, _) = db
                        .scan(ScanRequest::new().start(start.clone()).limit(*n as usize))
                        .unwrap();
                    assert_eq!(
                        rows, expected,
                        "step {step}: codec {name}: scan({k},{n}) diverged from the oracle"
                    );
                }
            }
            Op::Flush => {
                for (_, db) in &engines {
                    db.compact(CompactionRequest::FlushAll).unwrap();
                }
            }
            Op::Internal => {
                for (_, db) in &engines {
                    db.compact(CompactionRequest::Internal { partition: 0 })
                        .unwrap();
                }
            }
            Op::Major => {
                for (_, db) in &engines {
                    db.compact(CompactionRequest::Major { partition: 0 })
                        .unwrap();
                }
            }
        }
    }
    for k in 0u16..300 {
        let expected = oracle.get(&key(k)).cloned();
        for (name, db) in &engines {
            assert_eq!(
                db.get(&key(k)).unwrap().value,
                expected,
                "final audit: codec {name}: get({k}) diverged from the oracle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    #[test]
    fn codec_modes_preserve_read_results(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        check_codec_oracle_parity(&ops);
    }
}

/// The PR-3 group-straddle seed through the codec oracle driver: the
/// 30-version pileup must decode identically under every codec mode.
#[test]
fn codec_modes_survive_group_straddle_schedule() {
    check_codec_oracle_parity(&straddle_ops());
}

/// The straddle shape also runs through the generic parity driver (so
/// shrinking keeps working if it ever regresses), plus a concurrent
/// smoke: readers race internal and major compactions on the
/// accelerated engine — each get searching the level-0 version it took
/// before dropping the partition lock — and must never observe a
/// missing key.
#[test]
fn straddle_schedule_parity_and_concurrent_reads() {
    let fast = Db::open(accelerated_options()).unwrap();
    let plain = Db::open(plain_options()).unwrap();
    check_parity(&fast, &plain, &straddle_ops());

    let db = Arc::new(Db::open(accelerated_options()).unwrap());
    for i in 0u16..120 {
        db.put(&key(i), &value_for(i as u64, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for round in 0..40 {
                        for i in (t..120u16).step_by(3) {
                            let got = db.get(&key(i)).unwrap().value;
                            assert!(got.is_some(), "round {round}: key {i} vanished");
                        }
                    }
                })
            })
            .collect();
        let compactor = {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 120u16..180 {
                    db.put(&key(i), &value_for(i as u64, 64)).unwrap();
                    if i % 10 == 0 {
                        db.compact(CompactionRequest::FlushAll).unwrap();
                        let partition = 0;
                        db.compact(match i % 20 {
                            0 => CompactionRequest::Internal { partition },
                            _ => CompactionRequest::Major { partition },
                        })
                        .unwrap();
                    }
                }
            })
        };
        compactor.join().unwrap();
        readers.into_iter().for_each(|r| r.join().unwrap());
    });
}

/// The interleaving the smoke above can only hope to hit, forced: a
/// reader's level-0 version is taken, then an internal compaction and a
/// chunked major compaction (the §V splitter's limited passes) replace
/// and free every table it references. The held version must keep
/// answering every key from the tables it pinned, while the live
/// partition answers the same keys from wherever they moved.
#[test]
fn held_version_reads_across_internal_and_chunked_major_compaction() {
    let opts = accelerated_options();
    let pool = PmPool::new(opts.pm_capacity, opts.cost);
    let device = SsdDevice::new(opts.cost);
    let block_cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
    let (cache_ids, table_counter) = (CacheIds::new(), AtomicU64::new(0));
    let (costs, errors) = (CodecCostTable::default(), sim::Counter::new());
    let media = Media {
        opts: &opts,
        codec_costs: &costs,
        pool: &pool,
        device: &device,
        cache: &block_cache,
        table_counter: &table_counter,
        cache_ids: &cache_ids,
        input_errors: &errors,
        retire_errors: &errors,
    };
    let mut tl = Timeline::new();
    let mut p = Partition::new(0, &opts, sim::SimInstant::ORIGIN);
    let mut seq = 0;
    let mut flush_keys = |p: &mut Partition, keys: std::ops::Range<u16>, tl: &mut Timeline| {
        for k in keys {
            seq += 1;
            let value = value_for(k as u64, 64);
            p.mem
                .insert(&key(k), seq, pm_blade::KeyKind::Value, &value, tl);
        }
        p.minor_compaction(&media, tl).unwrap();
    };
    let version = |p: &Partition| {
        let l0 = p.level0.pm().expect("PmBlade mode keeps a PM level-0");
        l0.version()
    };
    let cache = PmGroupCache::disabled();
    let l0_get = |version: &L0Version, k: u16| {
        let (mut stats, mut stages) = Default::default();
        let (key, tl) = (key(k), &mut Timeline::new());
        version.get(&Probe::new(&key, &cache), tl, &mut stats, &mut stages)
    };
    // Every key the version held when it was taken, from its own tables.
    let check_held = |held: &L0Version, keys: std::ops::Range<u16>, when: &str| {
        for k in keys {
            let value = l0_get(held, k).and_then(|l| l.into_value());
            assert_eq!(value, Some(value_for(k as u64, 64)), "{when}: held key {k}");
        }
    };
    // The live partition: its level-0, then its SSD levels.
    let check_live = |p: &Partition, keys: std::ops::Range<u16>, when: &str| {
        for k in keys {
            let (tl, stages) = (&mut Timeline::new(), &mut StageTimes::default());
            let hit = l0_get(&version(p), k).or_else(|| {
                let key = key(k);
                let below = p.levels.get(&Probe::new(&key, &cache), tl, stages);
                below.unwrap().map(|(hit, _)| hit)
            });
            let value = hit.and_then(|l| l.into_value());
            assert_eq!(value, Some(value_for(k as u64, 64)), "{when}: live key {k}");
        }
    };

    for batch in 0..6u16 {
        flush_keys(&mut p, batch * 50..(batch + 1) * 50, &mut tl);
    }
    let before_internal = version(&p);
    assert_eq!(before_internal.unsorted_count(), 6);
    let report = p
        .internal_compaction(&media, &mut tl)
        .unwrap()
        .expect("six unsorted tables merge");
    for region in report.retired_regions {
        pool.free(region).unwrap();
    }
    check_held(&before_internal, 0..300, "after internal compaction");
    check_live(&p, 0..300, "after internal compaction");

    for batch in 6..9u16 {
        flush_keys(&mut p, batch * 50..(batch + 1) * 50, &mut tl);
    }
    let before_major = version(&p);
    assert!(before_major.sorted_count() > 0 && before_major.unsorted_count() == 3);
    let mut chunks = 0;
    while p.level0.chunkable_tables() > 0 {
        let report = p.major_compaction(&media, 2, &mut tl).unwrap();
        for region in report.retired_regions {
            pool.free(region).unwrap();
        }
        chunks += 1;
        let when = format!("after major chunk {chunks}");
        check_held(&before_internal, 0..300, &when);
        check_held(&before_major, 0..450, &when);
        check_live(&p, 0..450, &when);
    }
    assert!(chunks >= 2, "the major compaction ran in {chunks} chunk(s)");
    assert_eq!(
        pool.used(),
        0,
        "every region the held versions read is freed"
    );
    assert!(version(&p).is_empty());
}
