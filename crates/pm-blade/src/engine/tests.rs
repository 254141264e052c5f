use std::sync::Arc;

use sim::SimDuration;

use super::*;
use crate::commit::WriteBatch;
use crate::options::{MaintenanceMode, Mode, Partitioner};
use crate::stats::ReadSource;
use crate::telemetry::{SpanKind, TraceOp};

// Compile-time proof that the engine can be shared across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Db>();
};

fn small_opts(mode: Mode) -> Options {
    Options {
        mode,
        pm_capacity: 1 << 20,
        memtable_bytes: 8 << 10,
        tau_w: 16 << 10,
        tau_m: 768 << 10,
        tau_t: 384 << 10,
        l1_target: 256 << 10,
        max_table_bytes: 64 << 10,
        ..Options::default()
    }
}

fn fill(db: &Db, n: usize, vlen: usize, tag: &str) {
    for i in 0..n {
        let k = format!("key{:08}", i);
        let v = format!("{tag}-{}", "x".repeat(vlen));
        db.put(k.as_bytes(), v.as_bytes()).unwrap();
    }
}

#[test]
fn open_rejects_what_validation_rejects() {
    let rejects = |what: &str, edit: &dyn Fn(&mut Options)| {
        let mut opts = small_opts(Mode::PmBlade);
        edit(&mut opts);
        match Db::open(opts) {
            Err(DbError::Config(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
            Err(e) => panic!("{what}: expected a Config error, got {e:?}"),
            Ok(_) => panic!("{what}: an inconsistent configuration opened"),
        }
    };
    rejects("memtable_bytes", &|o| o.memtable_bytes = 0);
    rejects("tau_t", &|o| o.tau_t = o.tau_m + 1);
    rejects("tau_m", &|o| o.tau_m = o.pm_capacity + 1);
    rejects("pm_filter_bits_per_key", &|o| o.pm_filter_bits_per_key = 65);
    rejects("l0_stall_trigger", &|o| o.l0_stall_trigger = 1);
    rejects("memtable_stall_debt", &|o| o.memtable_stall_debt = 1);
}

#[test]
fn put_get_roundtrip_through_memtable() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    db.put(b"hello", b"world").unwrap();
    let out = db.get(b"hello").unwrap();
    assert_eq!(out.value.as_deref(), Some(&b"world"[..]));
    assert_eq!(out.source, ReadSource::MemTable);
    assert!(out.latency > SimDuration::ZERO);
    assert_eq!(db.get(b"missing").unwrap().value, None);
}

#[test]
fn flush_moves_data_to_pm() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    fill(&db, 100, 100, "a");
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert!(db.pm_used() > 0);
    let out = db.get(b"key00000050").unwrap();
    assert_eq!(out.source, ReadSource::Pm);
    assert!(out.value.is_some());
    assert!(db.stats().minor_compactions.get() >= 1);
}

#[test]
fn updates_supersede_and_deletes_hide() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    db.put(b"k", b"v1").unwrap();
    db.put(b"k", b"v2").unwrap();
    assert_eq!(db.get(b"k").unwrap().value.as_deref(), Some(&b"v2"[..]));
    db.delete(b"k").unwrap();
    assert_eq!(db.get(b"k").unwrap().value, None);
    // Across a flush too.
    db.put(b"p", b"q").unwrap();
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.delete(b"p").unwrap();
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert_eq!(db.get(b"p").unwrap().value, None);
}

#[test]
fn a_delete_is_not_counted_as_a_put() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    for i in 0..10u32 {
        db.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    for i in 0..4u32 {
        db.delete(format!("k{i}").as_bytes()).unwrap();
    }
    let mut batch = WriteBatch::new();
    batch.put(&b"a"[..], &b"1"[..]).delete(&b"k4"[..]);
    batch.put(&b"b"[..], &b"1"[..]).delete(&b"k5"[..]);
    batch.put(&b"c"[..], &b"1"[..]);
    db.write_batch(batch).unwrap();
    assert_eq!(db.stats().puts.get(), 13);
    assert_eq!(db.stats().deletes.get(), 6);
    assert_eq!(db.stats().grouped_writes.get(), 19);
}

#[test]
fn write_batch_applies_atomically_per_partition() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    db.put(b"a", b"0").unwrap();
    let value = |key: &[u8]| db.get(key).unwrap().value;
    // Before the batch, none of it is visible.
    assert_eq!(value(b"a").as_deref(), Some(&b"0"[..]));
    assert_eq!(value(b"b"), None);
    let mut batch = WriteBatch::new();
    batch
        .put(&b"a"[..], &b"1"[..])
        .put(&b"b"[..], &b"1"[..])
        .delete(&b"c"[..]);
    let latency = db.write_batch(batch).unwrap();
    assert!(latency > SimDuration::ZERO);
    // After it, all of it is.
    assert_eq!(value(b"a").as_deref(), Some(&b"1"[..]));
    assert_eq!(value(b"b").as_deref(), Some(&b"1"[..]));
    assert_eq!(value(b"c"), None);
    assert_eq!(db.stats().batch_writes.get(), 1);
    assert!(db.stats().group_commits.get() >= 1);
    assert!(db.stats().grouped_writes.get() >= 3);
    // An empty batch is a no-op.
    assert_eq!(
        db.write_batch(WriteBatch::new()).unwrap(),
        SimDuration::ZERO
    );
}

#[test]
fn writes_trigger_automatic_flush_and_internal_compaction() {
    let mut opts = small_opts(Mode::PmBlade);
    opts.l0_unsorted_hard_cap = 3;
    let db = Db::open(opts).unwrap();
    // Enough data for multiple memtable freezes.
    fill(&db, 1500, 64, "x");
    assert!(db.stats().minor_compactions.get() >= 3);
    assert!(
        db.stats().internal_compactions.get() >= 1,
        "hard cap must force internal compaction"
    );
    // Everything still readable.
    for i in (0..1500).step_by(173) {
        let k = format!("key{:08}", i);
        assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "missing {k}");
    }
}

#[test]
fn pm_pressure_triggers_major_compaction() {
    let mut opts = small_opts(Mode::PmBlade);
    opts.tau_m = 128 << 10;
    opts.tau_t = 64 << 10;
    let db = Db::open(opts).unwrap();
    fill(&db, 3000, 64, "y");
    assert!(
        db.stats().major_compactions.get() >= 1,
        "PM pressure must force major compaction"
    );
    assert!(db.ssd().stats().bytes_written.get() > 0);
    for i in (0..3000).step_by(311) {
        let k = format!("key{:08}", i);
        assert!(db.get(k.as_bytes()).unwrap().value.is_some());
    }
}

#[test]
fn rocksdb_mode_uses_ssd_level0() {
    let db = Db::open(small_opts(Mode::SsdLevel0)).unwrap();
    fill(&db, 600, 64, "r");
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert_eq!(db.pm_used(), 0, "no PM in SSD-L0 mode");
    assert!(db.ssd().stats().bytes_written.get() > 0);
    let out = db.get(b"key00000100").unwrap();
    assert!(out.value.is_some());
    assert_eq!(out.source, ReadSource::Ssd);
}

#[test]
fn matrixkv_mode_round_trips() {
    let db = Db::open(small_opts(Mode::MatrixKv)).unwrap();
    fill(&db, 800, 64, "m");
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert!(db.pm_used() > 0);
    for i in (0..800).step_by(97) {
        let k = format!("key{:08}", i);
        assert!(db.get(k.as_bytes()).unwrap().value.is_some());
    }
}

#[test]
fn scan_merges_tiers_in_order() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    for i in 0..50 {
        db.put(format!("a{:04}", i).as_bytes(), b"old").unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    // Overwrite a few in the memtable.
    db.put(b"a0010", b"new").unwrap();
    db.delete(b"a0011").unwrap();
    let (items, latency) = db
        .scan(ScanRequest::new().start("a0005").end("a0015").limit(100))
        .unwrap();
    let keys: Vec<String> = items
        .iter()
        .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
        .collect();
    assert_eq!(keys.len(), 9, "10 keys minus 1 tombstone: {keys:?}");
    assert!(!keys.contains(&"a0011".to_string()));
    let val = &items[5]; // a0010
    assert_eq!(val.0, b"a0010");
    assert_eq!(val.1, b"new");
    assert!(latency > SimDuration::ZERO);
    // Sorted output.
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn scan_respects_limit() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    for i in 0..100 {
        db.put(format!("s{:04}", i).as_bytes(), b"v").unwrap();
    }
    let (items, _) = db.scan(ScanRequest::new().start("s").limit(7)).unwrap();
    assert_eq!(items.len(), 7);
    // Reverse scans return the largest keys first.
    let (rev, _) = db
        .scan(ScanRequest::new().start("s").limit(7).reverse(true))
        .unwrap();
    assert_eq!(rev.len(), 7);
    assert_eq!(rev[0].0, b"s0099".to_vec());
    assert!(rev.windows(2).all(|w| w[0].0 > w[1].0));
}

#[test]
fn partitioned_engine_routes_and_scans_across_partitions() {
    let mut opts = small_opts(Mode::PmBlade);
    opts.partitioner = Partitioner(vec![b"key00000500".to_vec()]);
    let db = Db::open(opts).unwrap();
    fill(&db, 1000, 32, "p");
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert!(db.get(b"key00000100").unwrap().value.is_some());
    assert!(db.get(b"key00000900").unwrap().value.is_some());
    // Scan spanning the boundary.
    let (items, _) = db
        .scan(
            ScanRequest::new()
                .start("key00000490")
                .end("key00000510")
                .limit(100),
        )
        .unwrap();
    assert_eq!(items.len(), 20);
}

#[test]
fn write_amplification_accounting_sane() {
    let mut opts = small_opts(Mode::PmBlade);
    (opts.tau_m, opts.tau_t) = (128 << 10, 64 << 10);
    let db = Db::open(opts).unwrap();
    fill(&db, 2000, 64, "w");
    db.compact(CompactionRequest::FlushAll).unwrap();
    let wa = db.write_amp();
    assert!(wa.user_bytes > 0);
    assert!(wa.pm_bytes > 0, "flushes write PM");
    // Amplification factor must exceed 1 once compactions happened.
    assert!(wa.factor() >= 1.0, "{wa:?}");
}

#[test]
fn wal_recovery_restores_unflushed_writes() {
    let dir = std::env::temp_dir().join(format!("pmblade-engine-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = small_opts(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    {
        let db = Db::open(opts.clone()).unwrap();
        db.put(b"durable", b"yes").unwrap();
        db.delete(b"gone").unwrap();
        db.sync_wal().unwrap();
        // Drop without flushing: memtable contents only in the WAL.
    }
    let db2 = Db::open(opts).unwrap();
    assert_eq!(
        db2.get(b"durable").unwrap().value.as_deref(),
        Some(&b"yes"[..])
    );
    assert_eq!(db2.get(b"gone").unwrap().value, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_log_records_events() {
    let mut opts = small_opts(Mode::PmBlade);
    (opts.tau_m, opts.tau_t) = (128 << 10, 64 << 10);
    opts.l0_unsorted_hard_cap = 2;
    let db = Db::open(opts).unwrap();
    fill(&db, 2000, 64, "c");
    let kinds: std::collections::HashSet<_> = db.compaction_log().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&SpanKind::Flush));
    assert!(kinds.contains(&SpanKind::Internal));
    assert!(kinds.contains(&SpanKind::Major));
}

#[test]
fn compaction_log_is_capped_by_event_log_capacity() {
    let mut opts = small_opts(Mode::PmBlade);
    opts.event_log_capacity = 4;
    let db = Db::open(opts).unwrap();
    fill(&db, 1500, 64, "r");
    db.compact(CompactionRequest::FlushAll).unwrap();
    let log = db.compaction_log();
    assert!(log.len() <= 4, "ring must cap the log: {}", log.len());
    let snap = db.metrics_snapshot();
    assert!(snap.spans_dropped > 0, "older events were evicted");
}

#[test]
fn no_series_name_is_both_global_and_labelled() {
    // `MetricsSnapshot::counter` sums a name over its labels, so a name
    // registered both bare and labelled would count its events twice.
    let mut opts = small_opts(Mode::PmBlade);
    (opts.tau_m, opts.tau_t) = (128 << 10, 64 << 10);
    let db = Db::open(opts).unwrap();
    fill(&db, 2000, 64, "n");
    for i in (0..2000).step_by(7) {
        db.get(format!("key{i:08}").as_bytes()).unwrap();
    }
    let snap = db.metrics_snapshot();
    let keys = || {
        let (c, g, h) = (&snap.counters, &snap.gauges, &snap.histograms);
        c.keys().chain(g.keys()).chain(h.keys())
    };
    let global: std::collections::BTreeSet<&str> = keys()
        .filter(|k| k.label_string().is_empty())
        .map(|k| k.name)
        .collect();
    let both: Vec<String> = keys()
        .filter(|k| !k.label_string().is_empty() && global.contains(k.name))
        .map(|k| format!("{}{}", k.name, k.label_string()))
        .collect();
    assert!(both.is_empty(), "both bare and labelled: {both:?}");
}

#[test]
fn metrics_snapshot_covers_engine_activity() {
    let mut opts = small_opts(Mode::PmBlade);
    (opts.tau_m, opts.tau_t) = (128 << 10, 64 << 10);
    opts.l0_unsorted_hard_cap = 2;
    let db = Db::open(opts).unwrap();
    fill(&db, 2000, 64, "s");
    for i in (0..2000).step_by(7) {
        let k = format!("key{:08}", i);
        db.get(k.as_bytes()).unwrap();
    }
    db.scan(
        ScanRequest::new()
            .start("key00000100")
            .end("key00000200")
            .limit(50),
    )
    .unwrap();
    let snap = db.metrics_snapshot();
    // Global counters of `EngineMetrics`.
    assert_eq!(snap.counter("puts"), 2000);
    assert!(snap.counter("gets") > 0);
    assert_eq!(snap.counter("scans"), 1);
    // Per-partition group-commit counters.
    assert!(snap.counter_at(&MetricKey::partition("partition_group_commits", 0)) > 0);
    // Read-source split, keyed by partition.
    assert!(
        snap.counter("partition_reads") >= snap.counter("gets"),
        "scans also count partition touches"
    );
    // Device counters are mirrored in.
    assert!(snap.counter("pm_bytes_written") > 0);
    // Latency histograms are populated.
    let reads = &snap.histograms[&MetricKey::global("read_latency")];
    assert!(reads.count > 0 && reads.p50_nanos > 0);
    let writes = &snap.histograms[&MetricKey::global("write_latency")];
    assert_eq!(writes.count, 2000);
    // At least one complete compaction span with virtual timing.
    assert!(!snap.spans.is_empty());
    assert!(snap.spans.iter().all(|s| s.end_nanos >= s.start_nanos));
    // Deltas are non-negative and reflect new work only.
    let before = db.metrics_snapshot();
    db.put(b"key-extra", b"v").unwrap();
    let after = db.metrics_snapshot();
    let delta = after.delta(&before);
    assert_eq!(delta.counter("puts"), 1);
    assert_eq!(delta.counter("gets"), 0);
}

#[test]
fn latency_stats_capture_foreground_ops() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    db.put(b"k", b"v").unwrap();
    db.get(b"k").unwrap();
    db.scan(ScanRequest::new().start("a").limit(10)).unwrap();
    let lat = db.metrics_snapshot().histograms;
    assert_eq!(lat[&MetricKey::global("write_latency")].count, 1);
    assert_eq!(lat[&MetricKey::global("read_latency")].count, 1);
    assert_eq!(lat[&MetricKey::global("scan_latency")].count, 1);
    assert!(lat[&MetricKey::global("read_latency")].p50_nanos > 0);
}

#[test]
fn pm_hit_ratio_reflects_tiering() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    fill(&db, 200, 64, "h");
    db.compact(CompactionRequest::FlushAll).unwrap();
    for i in 0..200 {
        let k = format!("key{:08}", i);
        db.get(k.as_bytes()).unwrap();
    }
    // Nothing was major-compacted: everything served from PM.
    assert!(db.stats().pm_hit_ratio() > 0.99);
}

#[test]
fn background_mode_round_trips_and_survives_close() {
    let mut opts = small_opts(Mode::PmBlade);
    opts.maintenance = MaintenanceMode::Background;
    opts.l0_unsorted_hard_cap = 3;
    let db = Db::open(opts).unwrap();
    fill(&db, 1500, 64, "b");
    db.close();
    // close() drained every queued flush/compaction.
    assert_eq!(db.maintenance.as_ref().unwrap().queue_depth(), 0);
    assert!(db.stats().minor_compactions.get() >= 1);
    for i in (0..1500).step_by(173) {
        let k = format!("key{:08}", i);
        assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "lost {k}");
    }
    // Post-close the engine stays usable: triggers fall back inline.
    let minors_at_close = db.stats().minor_compactions.get();
    fill(&db, 600, 64, "after");
    assert!(db.stats().minor_compactions.get() > minors_at_close);
    assert!(db.get(b"key00000001").unwrap().value.is_some());
    // Idempotent.
    db.close();
}

#[test]
fn shared_handle_supports_concurrent_writers_and_readers() {
    let db = Arc::new(Db::open(small_opts(Mode::PmBlade)).unwrap());
    std::thread::scope(|s| {
        for t in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..200 {
                    let k = format!("t{t}-{i:05}");
                    db.put(k.as_bytes(), b"v").unwrap();
                }
            });
        }
        for _ in 0..2 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..300 {
                    let k = format!("t{}-{:05}", i % 4, i % 200);
                    let _ = db.get(k.as_bytes()).unwrap();
                }
            });
        }
    });
    // Every write survived the concurrency.
    for t in 0..4 {
        for i in 0..200 {
            let k = format!("t{t}-{i:05}");
            assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "lost {k}");
        }
    }
    assert_eq!(db.stats().puts.get(), 800);
}

/// A writer that queued behind a busy leader is traced inside its own
/// request window: held at partition 0's commit mutex while the engine
/// clock moves 50 µs, it leads the next group, and its stages still lie
/// within `[start_nanos, start_nanos + total_nanos]`.
#[test]
fn a_queued_writers_stages_lie_inside_its_request_window() {
    let db = Db::open(small_opts(Mode::PmBlade)).unwrap();
    let held = db.committers[0].commit.lock();
    let ctx = Some(TraceContext::sampled(7));
    std::thread::scope(|s| {
        let writer = s.spawn(|| db.put_with(b"k", b"v", ctx));
        while db.committers[0].queue.lock().is_empty() {
            std::thread::yield_now();
        }
        db.advance(SimDuration::from_micros(50));
        drop(held);
        writer.join().unwrap().unwrap();
    });
    let traces = db.flight_recorder();
    let [trace] = &traces[..] else {
        panic!("one traced write, got {traces:?}");
    };
    assert_eq!((trace.trace_id, trace.op), (7, TraceOp::Write));
    assert!(!trace.stages.is_empty());
    let window = trace.start_nanos..=trace.start_nanos + trace.total_nanos;
    for s in &trace.stages {
        let inside = window.contains(&s.start_nanos) && window.contains(&s.end_nanos);
        assert!(
            inside,
            "{:?} at {}..{} outside {window:?}",
            s.kind, s.start_nanos, s.end_nanos
        );
    }
}

#[test]
fn a_memtable_tombstone_shadows_level0_and_ssd_values() {
    for mode in [Mode::PmBlade, Mode::SsdLevel0, Mode::MatrixKv] {
        let opts = Options {
            trace_sample_every: 0,
            ..small_opts(mode)
        };
        let db = Db::open(opts).unwrap();
        db.put(b"deep", b"on an SSD level").unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap();
        db.put(b"shallow", b"in level-0").unwrap();
        db.compact(CompactionRequest::FlushAll).unwrap();
        let level0 = match mode {
            Mode::SsdLevel0 => ReadSource::Ssd,
            _ => ReadSource::Pm,
        };
        // The memtable is empty: its filter rules both keys out, and a
        // traced get counts the skipped descent as the stage's output.
        let ctx = Some(TraceContext::sampled(1));
        let deep = db.get_with(b"deep", ctx).unwrap();
        assert_eq!(deep.source, ReadSource::Ssd, "{mode:?}");
        assert_eq!(db.get(b"shallow").unwrap().source, level0, "{mode:?}");
        let [trace] = &db.flight_recorder()[..] else {
            panic!("{mode:?}: one traced get");
        };
        let probe = &trace.stages[0];
        assert_eq!(probe.kind, SpanKind::MemtableProbe, "{mode:?}");
        assert_eq!((probe.input_records, probe.output_records), (1, 1));
        // A tombstone in the memtable sets the filter too, so the
        // descent finds it and the older values stay hidden.
        db.delete(b"deep").unwrap();
        db.delete(b"shallow").unwrap();
        for key in [&b"deep"[..], b"shallow"] {
            let out = db.get(key).unwrap();
            assert_eq!((out.value, out.source), (None, ReadSource::MemTable));
        }
        let m = &db.metrics;
        let counts = (
            m.memtable_filter_checked.get(),
            m.memtable_filter_skipped.get(),
        );
        assert_eq!(counts, (4, 2), "{mode:?}");
    }
}

/// `small_opts` with caches of `block` and `group` bytes, and a PM
/// level-0 that keeps under a tenth of what `fill` writes, so most
/// reads go to the SSD levels.
fn tuned_opts(block: usize, group: usize) -> Options {
    Options {
        block_cache_bytes: block,
        pm_group_cache_bytes: group,
        tau_m: 192 << 10,
        tau_t: 96 << 10,
        ..small_opts(Mode::PmBlade)
    }
}

/// Fill 12 000 keys of ~200 bytes (2.6 MB), then run `periods` tuner
/// periods of gets over the first `keys` of them, drawn uniformly from
/// `seed`, checking that the two caches hold no more than their split.
/// Returns the cache split at open and after each period.
fn split_per_period(opts: Options, keys: u64, periods: u64, seed: u64) -> Vec<(usize, usize)> {
    let db = Db::open(opts).unwrap();
    fill(&db, 12_000, 200, "t");
    let mut rng = sim::Pcg64::seeded(seed);
    let mut splits = vec![db.cache_split()];
    for _ in 0..periods {
        for _ in 0..read::TUNE_EVERY {
            let k = format!("key{:08}", rng.next_below(keys));
            assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "{k}");
        }
        let (block, group) = db.cache_split();
        let held = db.core.cache.used() + db.core.group_cache.used();
        assert!(held <= block + group, "{held} held over {block} + {group}");
        splits.push((block, group));
    }
    let moves = splits.windows(2).filter(|w| w[0] != w[1]).count() as u64;
    let steps = db.metrics_snapshot().counter("cost_cache_split_steps");
    assert_eq!(steps, moves, "one recorded step per move");
    splits
}

/// The tuner moves the one DRAM budget toward the cache whose ghost
/// list would have served more bytes, a step of `total / 32` per period,
/// and stops at the other's floor of `total / 16`.
#[test]
fn uniform_gets_beyond_both_caches_move_bytes_to_the_block_cache() {
    let (block, group) = (64 << 10, 64 << 10);
    let total = block + group;
    let splits = split_per_period(tuned_opts(block, group), 12_000, 20, 7);
    for &(b, g) in &splits {
        assert_eq!(b + g, total, "the budget is kept");
        assert!(b.min(g) >= total / 16, "{b} : {g} under the floor");
    }
    for w in splits.windows(2) {
        assert!(w[0].0.abs_diff(w[1].0) <= total / 32, "one step per period");
    }
    // Most reads go to the SSD levels: the block cache gains, down to
    // the group cache's floor.
    assert_eq!(splits.last(), Some(&(total - total / 16, total / 16)));
    // One seed, one sequence of steps.
    let again = split_per_period(tuned_opts(block, group), 12_000, 20, 7);
    assert_eq!(splits, again);
}

/// Gets over a set both caches hold evict nothing, so neither ghost
/// list hits and the split stays where it opened.
#[test]
fn gets_over_a_set_both_caches_hold_move_nothing() {
    let splits = split_per_period(tuned_opts(64 << 10, 64 << 10), 64, 4, 7);
    assert!(splits.iter().all(|&s| s == (64 << 10, 64 << 10)));
}

/// A cache that opens disabled or below the floor keeps the split it
/// was given: such a split was asked for.
#[test]
fn a_disabled_or_sub_floor_cache_is_never_tuned() {
    for (block, group) in [(128 << 10, 0), (0, 128 << 10), (128 << 10, 7 << 10)] {
        let opts = tuned_opts(block, group);
        let splits = split_per_period(opts, 12_000, 3, 7);
        assert!(
            splits.iter().all(|&s| s == (block, group)),
            "{block} : {group}"
        );
    }
}
