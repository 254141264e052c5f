//! Miniature versions of the paper's headline results, run as tests so
//! regressions in any subsystem surface as failed *shapes*, not just
//! failed units.

use coroutine::{Policy, Scheduler, SchedulerConfig, TraceParams};
use pm_blade::{CompactionRequest, Db, Mode};
use pmblade_integration_tests::{key_for, tiny_db, tiny_options, value_for};
use pmtable::CodecMode;

/// Fig 7(a): with internal compaction, level-0 read latency stays far
/// below the no-internal-compaction configuration as data accumulates.
#[test]
fn internal_compaction_caps_read_amplification() {
    let mut with = {
        let mut opts = tiny_options(Mode::PmBlade);
        // Bloom filters prune most unsorted-table probes, which would
        // mask the read-amp gap this shape measures; turn them off so
        // the comparison stays pure table-search amplification.
        opts.pm_filter_bits_per_key = 0;
        Db::open(opts).unwrap()
    };
    let mut without = {
        let mut opts = tiny_options(Mode::PmBladePm);
        // Keep its level-0 resident so the comparison is pure read-amp.
        opts.l0_table_trigger = usize::MAX;
        // Eq 3 never fires: PM use cannot pass the pool's capacity.
        opts.tau_m = opts.pm_capacity;
        opts.pm_filter_bits_per_key = 0;
        Db::open(opts).unwrap()
    };
    for db in [&mut with, &mut without] {
        let mut rng = sim::Pcg64::seeded(21);
        for _ in 0..4_000 {
            let i = rng.next_below(800);
            db.put(&key_for(i), &value_for(i, 200)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let probe = |db: &mut Db| -> sim::SimDuration {
        let mut total = sim::SimDuration::ZERO;
        for i in (0..800u64).step_by(37) {
            total += db.get(&key_for(i)).unwrap().latency;
        }
        total
    };
    let fast = probe(&mut with);
    let slow = probe(&mut without);
    assert!(
        fast.as_nanos() * 2 < slow.as_nanos(),
        "sorted level-0 reads {fast} must clearly beat unsorted {slow}"
    );
}

/// Table IV: the more skewed the updates, the more PM space internal
/// compaction releases.
#[test]
fn space_released_grows_with_skew() {
    let released_at = |skew: f64| -> u64 {
        let mut opts = tiny_options(Mode::PmBlade);
        opts.pm_capacity = 16 << 20;
        // Eq 3 never fires: PM use cannot pass the pool's capacity.
        opts.tau_m = opts.pm_capacity;
        opts.tau_w = usize::MAX;
        opts.l0_unsorted_hard_cap = usize::MAX;
        // Eq 1 never fires: the load reads nothing.
        let db = Db::open(opts).unwrap();
        let mut rng = sim::Pcg64::seeded(31);
        let dist = workloads::KeyDistribution::zipfian(2_000, skew);
        for _ in 0..4_000 {
            let i = dist.sample(&mut rng, 2_000);
            db.put(&key_for(i), &value_for(i, 300)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Internal { partition: 0 })
            .unwrap();
        db.stats().internal_space_released.get()
    };
    let mild = released_at(0.2);
    let heavy = released_at(0.99);
    assert!(
        heavy > mild,
        "skew 0.99 must release more than skew 0.2: {heavy} vs {mild}"
    );
}

/// Fig 8(b): the cost-based retention keeps a larger share of reads on
/// PM than whole-level eviction.
#[test]
fn retention_beats_whole_level_eviction_on_hit_ratio() {
    let run = |mode: Mode| -> f64 {
        let mut opts = tiny_options(mode);
        opts.partitioner = pm_blade::Partitioner::numeric("key", 2_000, 4);
        let db = Db::open(opts).unwrap();
        // Load 2x PM capacity.
        for i in 0..10_000u64 {
            db.put(&key_for(i % 2_000), &value_for(i, 400)).unwrap();
        }
        // Skewed read phase.
        let mut rng = sim::Pcg64::seeded(47);
        let dist = workloads::KeyDistribution::zipfian(2_000, 0.9);
        for step in 0..6_000 {
            let i = dist.sample(&mut rng, 2_000);
            if step % 2 == 0 {
                db.get(&key_for(i)).unwrap();
            } else {
                db.put(&key_for(i), b"update").unwrap();
            }
        }
        db.stats().pm_hit_ratio()
    };
    let blade = run(Mode::PmBlade);
    let conventional = run(Mode::PmBladePm);
    assert!(
        blade > conventional,
        "retention hit ratio {blade} must beat conventional {conventional}"
    );
}

/// Table III / Fig 9: the scheduler reproduces the resource-utilization
/// ordering of §V.
#[test]
fn scheduler_policy_ordering_holds() {
    let params = TraceParams {
        input_bytes: 4 << 20,
        value_size: 256,
        dup_ratio: 0.25,
        ..TraceParams::default()
    };
    let tasks = coroutine::trace::split(&params, 4, 5);
    let run = |policy| {
        Scheduler::new(SchedulerConfig {
            policy,
            ..SchedulerConfig::default()
        })
        .run(&tasks)
    };
    let thread = run(Policy::OsThreads);
    let naive = run(Policy::NaiveCoroutine);
    let blade = run(Policy::PmBlade);
    // Robust orderings from §V: both coroutine flavours beat threads on
    // CPU utilization, and the full design has the shortest duration.
    // (blade vs naive CPU utilization can tie within noise on small
    // traces, so allow a small epsilon there.)
    assert!(blade.cpu_utilization >= naive.cpu_utilization - 0.02);
    assert!(blade.cpu_utilization > thread.cpu_utilization);
    assert!(naive.cpu_utilization > thread.cpu_utilization);
    assert!(blade.duration <= naive.duration);
    assert!(naive.duration <= thread.duration);
}

/// §V: the background workers run at the scheduler's default `q` and
/// `c`, the configuration Fig 9 and the ordering above simulate, so the
/// figure and the engine cannot drift apart silently.
#[test]
fn engine_maintenance_runs_the_simulated_q_and_c() {
    let simulated = SchedulerConfig::default();
    assert_eq!(pm_blade::maintenance::IO_WINDOW, simulated.max_io);
    assert_eq!(pm_blade::maintenance::MAINTENANCE_WORKERS, simulated.cores);
}

/// Table I anchor: a PM lookup sits between a cached and an SSD lookup,
/// an order of magnitude from the latter.
#[test]
fn tiering_latency_anchors_hold() {
    let db = tiny_db(Mode::PmBlade);
    for i in 0..1_000u64 {
        db.put(&key_for(i), &value_for(i, 100)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    let pm_read = db.get(&key_for(500)).unwrap();
    assert_eq!(pm_read.source, pm_blade::stats::ReadSource::Pm);
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    // Cold SSD read (cache may have been warmed by compaction; probe an
    // arbitrary key and compare magnitudes rather than exact numbers).
    let ssd_read = db.get(&key_for(501)).unwrap();
    assert_eq!(ssd_read.source, pm_blade::stats::ReadSource::Ssd);
    assert!(
        pm_read.latency < ssd_read.latency,
        "pm {} must beat ssd {}",
        pm_read.latency,
        ssd_read.latency
    );
}

/// Write amplification decomposition is self-consistent: PM + SSD bytes
/// are at least the user bytes once everything has been flushed.
#[test]
fn write_amplification_accounting_consistent() {
    let db = tiny_db(Mode::PmBlade);
    for i in 0..2_000u64 {
        db.put(&key_for(i), &value_for(i, 256)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    let wa = db.write_amp();
    assert!(wa.user_bytes > 0);
    assert!(
        wa.pm_bytes + wa.ssd_bytes >= wa.user_bytes,
        "{}+{} vs {}",
        wa.pm_bytes,
        wa.ssd_bytes,
        wa.user_bytes
    );
    assert!(wa.factor() >= 1.0);
    // Internal compaction releases space but never loses entries.
    let before_entries: u64 = db.stats().puts.get();
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    assert_eq!(db.stats().puts.get(), before_entries);
    for i in (0..2_000u64).step_by(173) {
        assert!(db.get(&key_for(i)).unwrap().value.is_some());
    }
}

/// A tiny engine with the read-path knobs the `PMBLADE_TEST_*` CI
/// matrix varies pinned, so the two shapes below measure the same
/// engines in every matrix row.
fn pinned_db(codec: CodecMode, filter_bits: usize, group_cache_bytes: usize) -> Db {
    let mut opts = tiny_options(Mode::PmBlade);
    opts.pm_codec_mode = codec;
    opts.pm_filter_bits_per_key = filter_bits;
    opts.pm_group_cache_bytes = group_cache_bytes;
    Db::open(opts).unwrap()
}

/// The readrandom shape: 8 000 text keys × 100 B filled in a seeded
/// shuffle, then 4 000 seeded gets (`skew` 0 is uniform). Returns the
/// virtual p99 of the gets in nanos.
fn readrandom_p99(db: &Db, skew: f64) -> u64 {
    const KEYS: u64 = 8_000;
    let mut rng = sim::Pcg64::seeded(0xbe9c);
    let mut order: Vec<u64> = (0..KEYS).collect();
    rng.shuffle(&mut order);
    for i in order {
        db.put(&key_for(i), &value_for(i, 100)).unwrap();
    }
    let dist = workloads::KeyDistribution::zipfian(KEYS, skew);
    let mut gets = sim::Histogram::new();
    for _ in 0..4_000 {
        let out = db.get(&key_for(dist.sample(&mut rng, KEYS))).unwrap();
        assert!(out.value.is_some());
        gets.record_duration(out.latency);
    }
    gets.quantile(0.99)
}

/// Encoding v2's headline: flush-time codec selection stores a numeric
/// time series at least a quarter denser than prefix-only groups, and
/// falls back to prefix groups on text keys without hurting their tail.
#[test]
fn auto_codec_stores_timeseries_a_quarter_denser_without_hurting_the_text_keyed_tail() {
    const POINTS: u64 = 8_000;
    let timeseries = |codec| {
        let db = pinned_db(codec, 10, 4 << 20);
        for i in 0..POINTS {
            let key = (1_700_000_000 + i).to_be_bytes();
            db.put(&key, &(40_000 + i).to_le_bytes()).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        (db.pm_used() as f64 / POINTS as f64, db.l0_codec_histogram())
    };
    let (prefix_bytes, _) = timeseries(CodecMode::Prefix);
    let (auto_bytes, auto_codecs) = timeseries(CodecMode::Auto);
    assert!(
        auto_bytes <= 0.75 * prefix_bytes,
        "auto {auto_bytes:.1} B/entry vs prefix-only {prefix_bytes:.1}"
    );
    let [prefix_tables, delta_tables, fixed_tables] = auto_codecs;
    assert_eq!(prefix_tables, 0, "{auto_codecs:?}");
    assert!(delta_tables + fixed_tables > 0, "{auto_codecs:?}");

    let prefix_p99 = readrandom_p99(&pinned_db(CodecMode::Prefix, 10, 4 << 20), 0.0);
    let auto_p99 = readrandom_p99(&pinned_db(CodecMode::Auto, 10, 4 << 20), 0.0);
    assert!(
        auto_p99 <= prefix_p99,
        "text-keyed readrandom p99: auto {auto_p99} ns vs prefix {prefix_p99} ns"
    );
}

/// The PM-L0 read acceleration: bloom filters prune the unsorted-table
/// probes and the group cache skips repeat decodes, so a skewed read
/// tail is shorter with them than without.
#[test]
fn filters_and_group_cache_cut_the_readrandom_tail() {
    let on = pinned_db(CodecMode::Auto, 10, 4 << 20);
    let off = pinned_db(CodecMode::Auto, 0, 0);
    let on_p99 = readrandom_p99(&on, 0.9);
    let off_p99 = readrandom_p99(&off, 0.9);
    assert!(
        on_p99 < off_p99,
        "p99 with filters + cache {on_p99} ns vs without {off_p99} ns"
    );
    let pruned = |db: &Db| db.metrics_snapshot().counter("pm_filter_useful_total");
    assert!(pruned(&on) > 0);
    assert_eq!(pruned(&off), 0);
}
