//! Observability layer, end to end: snapshot/delta monotonicity, the
//! span ring against the counters under concurrency, and the
//! Prometheus exposition format.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pm_blade::{
    CompactionRequest, CostDecision, Db, FlightRecorder, MetricKey, MetricsSnapshot, Mode, Options,
    RequestTrace, ScanRequest, SpanKind, TraceOp, TraceSpan,
};
use proptest::prelude::*;
use sim::Histogram;

fn small_opts() -> Options {
    Options {
        mode: Mode::PmBlade,
        pm_capacity: 2 << 20,
        memtable_bytes: 8 << 10,
        tau_w: 16 << 10,
        tau_m: 1 << 20,
        tau_t: 512 << 10,
        l1_target: 256 << 10,
        max_table_bytes: 64 << 10,
        l0_unsorted_hard_cap: 3,
        ..Options::default()
    }
}

// -------------------------------------------------------------------
// Snapshot / delta monotonicity
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Counters never decrease across snapshots, deltas are exactly the
    /// difference, and span ids only grow — whatever the op mix.
    #[test]
    fn snapshots_are_monotone(
        ops in proptest::collection::vec(0u8..4, 1usize..60)
    ) {
        let db = Db::open(small_opts()).unwrap();
        let mut prev = db.metrics_snapshot();
        for (i, op) in ops.iter().enumerate() {
            let key = format!("key{:06}", i * 37 % 500);
            match op {
                0 => { db.put(key.as_bytes(), &[b'v'; 64]).unwrap(); }
                1 => { db.get(key.as_bytes()).unwrap(); }
                2 => { db.delete(key.as_bytes()).unwrap(); }
                _ => { db.scan(ScanRequest::new().start(key.as_bytes()).limit(5)).unwrap(); }
            }
            if i % 7 == 0 {
                db.compact(CompactionRequest::FlushAll).unwrap();
            }
            let snap = db.metrics_snapshot();
            for (key, value) in &snap.counters {
                let before = prev.counter_at(key);
                prop_assert!(
                    *value >= before,
                    "counter {key} went backwards: {before} -> {value}"
                );
            }
            let delta = snap.delta(&prev);
            for (key, value) in &delta.counters {
                prop_assert_eq!(
                    *value,
                    snap.counter_at(key) - prev.counter_at(key),
                    "bad delta for {}", key
                );
            }
            let prev_max = prev.spans.iter().map(|s| s.id).max().unwrap_or(0);
            prop_assert!(delta.spans.iter().all(|s| s.id > prev_max));
            prop_assert!(snap.at_nanos >= prev.at_nanos);
            prev = snap;
        }
    }
}

// -------------------------------------------------------------------
// The span ring against the counters
// -------------------------------------------------------------------

/// Cross-check the engine's two records of its background work: per
/// kind, the ring holds one span for every install its counter counted
/// and dropped none, and in ring order no partition compacts its
/// level-0 internally before a flush landed there (internal compaction
/// merges flushed PM tables). Returns the snapshot it checked.
fn check_ring_against_counters(db: &Db) -> MetricsSnapshot {
    let snap = db.metrics_snapshot();
    assert_eq!(snap.spans_dropped, 0);
    let counted = [
        (SpanKind::Flush, "minor_compactions"),
        (SpanKind::Internal, "internal_compactions"),
        (SpanKind::Major, "major_compactions"),
    ];
    for (kind, counter) in counted {
        let spans = snap.spans.iter().filter(|s| s.kind == kind).count() as u64;
        assert_eq!(spans, snap.counter(counter), "{kind:?} spans vs {counter}");
    }
    let mut flushed = BTreeSet::new();
    for span in &snap.spans {
        assert!(span.end_nanos >= span.start_nanos);
        match span.kind {
            SpanKind::Flush => {
                flushed.insert(span.partition);
            }
            SpanKind::Internal => assert!(
                flushed.contains(&span.partition),
                "internal compaction on p{} before any flush",
                span.partition
            ),
            _ => {}
        }
    }
    snap
}

#[test]
fn listener_sees_paired_events_in_order() {
    let db = Db::open(small_opts()).unwrap();
    for i in 0..1_500u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'x'; 64])
            .unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    let snap = check_ring_against_counters(&db);
    assert!(snap.counter("minor_compactions") > 0, "workload must flush");
    assert!(snap.counter_at(&MetricKey::global("group_commits")) >= 1_500);
    // Every automatic internal compaction names the rule that fired,
    // and that rule's trigger counter moved.
    let internals = snap.spans.iter().filter(|s| s.kind == SpanKind::Internal);
    assert!(internals.clone().all(|s| s.cost.is_some()));
    let triggers = [
        "cost_eq1_triggers",
        "cost_eq2_triggers",
        "cost_hard_cap_triggers",
    ];
    let triggered: u64 = triggers.iter().map(|name| snap.counter(name)).sum();
    assert!(triggered >= internals.count() as u64);
}

#[test]
fn listener_ordering_survives_concurrency() {
    let mut opts = small_opts();
    opts.partitioner = pm_blade::Partitioner(vec![b"w2".to_vec()]);
    let db = Arc::new(Db::open(opts).unwrap());
    std::thread::scope(|s| {
        for t in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..400u32 {
                    let k = format!("w{t}-{i:05}");
                    db.put(k.as_bytes(), &[b'c'; 64]).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..600u32 {
                    let k = format!("w{}-{:05}", i % 4, i % 400);
                    let _ = db.get(k.as_bytes()).unwrap();
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move || {
            for pid in 0..3 {
                let _ = db.compact(CompactionRequest::Flush { partition: pid % 2 });
            }
        });
    });
    db.compact(CompactionRequest::FlushAll).unwrap();
    // Flushes and compactions race across threads and partitions; the
    // ring must still hold exactly what the counters counted, in an
    // order where every internal compaction follows a flush.
    let snap = check_ring_against_counters(&db);
    let group_commits = snap.counter_at(&MetricKey::global("group_commits"));
    assert!((1..=1_600).contains(&group_commits), "{group_commits}");
}

// -------------------------------------------------------------------
// Prometheus golden output
// -------------------------------------------------------------------

#[test]
fn prometheus_rendering_matches_golden() {
    let mut counters = BTreeMap::new();
    counters.insert(
        MetricKey::global("block_cache_ghost_hit_bytes_total"),
        16_384,
    );
    counters.insert(MetricKey::global("cost_cache_split_steps"), 2);
    counters.insert(MetricKey::global("gets"), 42);
    counters.insert(MetricKey::partition("group_commits", 0), 7);
    counters.insert(MetricKey::partition("group_commits", 1), 9);
    counters.insert(MetricKey::level("read_source_ssd", 1, 2), 3);
    counters.insert(MetricKey::level("ssd_level_bytes_written", 1, 2), 8_192);
    counters.insert(MetricKey::global("pm_l0_sketch_probes_total"), 40);
    counters.insert(MetricKey::global("pm_scan_tables_sought_total"), 10);
    counters.insert(MetricKey::global("pm_scan_tables_total"), 30);
    let mut gauges = BTreeMap::new();
    gauges.insert(MetricKey::global("block_cache_capacity_bytes"), 2_490_368);
    gauges.insert(MetricKey::global("maintenance_queue_depth"), 3);
    gauges.insert(MetricKey::global("pm_l0_index_bytes"), 14_336);
    gauges.insert(MetricKey::global("pm_l0_key_column_bytes"), 8_512);
    gauges.insert(MetricKey::global("pm_l0_sketch_bytes"), 4_096);
    gauges.insert(MetricKey::global("pm_pool_unreferenced_bytes"), 0);
    gauges.insert(MetricKey::global("pm_used_bytes"), 65_536);
    let mut histograms = BTreeMap::new();
    let mut h = Histogram::new();
    for v in [100, 100, 300, 500] {
        h.record(v);
    }
    histograms.insert(MetricKey::global("read_latency"), h);
    let snap = MetricsSnapshot::from_parts(1_000_000, counters, gauges, histograms, Vec::new(), 5);
    let expected = "\
# TYPE pmblade_block_cache_ghost_hit_bytes_total counter
pmblade_block_cache_ghost_hit_bytes_total 16384
# TYPE pmblade_cost_cache_split_steps counter
pmblade_cost_cache_split_steps 2
# TYPE pmblade_gets counter
pmblade_gets 42
# TYPE pmblade_group_commits counter
pmblade_group_commits{partition=\"0\"} 7
pmblade_group_commits{partition=\"1\"} 9
# TYPE pmblade_pm_l0_sketch_probes_total counter
pmblade_pm_l0_sketch_probes_total 40
# TYPE pmblade_pm_scan_tables_sought_total counter
pmblade_pm_scan_tables_sought_total 10
# TYPE pmblade_pm_scan_tables_total counter
pmblade_pm_scan_tables_total 30
# TYPE pmblade_read_source_ssd counter
pmblade_read_source_ssd{partition=\"1\",level=\"2\"} 3
# TYPE pmblade_ssd_level_bytes_written counter
pmblade_ssd_level_bytes_written{partition=\"1\",level=\"2\"} 8192
# TYPE pmblade_block_cache_capacity_bytes gauge
pmblade_block_cache_capacity_bytes 2490368
# TYPE pmblade_maintenance_queue_depth gauge
pmblade_maintenance_queue_depth 3
# TYPE pmblade_pm_l0_index_bytes gauge
pmblade_pm_l0_index_bytes 14336
# TYPE pmblade_pm_l0_key_column_bytes gauge
pmblade_pm_l0_key_column_bytes 8512
# TYPE pmblade_pm_l0_sketch_bytes gauge
pmblade_pm_l0_sketch_bytes 4096
# TYPE pmblade_pm_pool_unreferenced_bytes gauge
pmblade_pm_pool_unreferenced_bytes 0
# TYPE pmblade_pm_used_bytes gauge
pmblade_pm_used_bytes 65536
# TYPE pmblade_read_latency summary
pmblade_read_latency{quantile=\"0.5\"} 100
pmblade_read_latency{quantile=\"0.95\"} 500
pmblade_read_latency{quantile=\"0.99\"} 500
pmblade_read_latency_sum 1000
pmblade_read_latency_count 4
# TYPE pmblade_spans_dropped counter
pmblade_spans_dropped 5
";
    assert_eq!(snap.to_prometheus(), expected);
}

// -------------------------------------------------------------------
// JSON golden output
// -------------------------------------------------------------------

/// A span of `kind` on partition 1 with distinct counts, carrying `cost`.
fn span(id: u64, kind: SpanKind, cost: Option<CostDecision>) -> TraceSpan {
    TraceSpan::new(
        id,
        id * 10,
        kind,
        1,
        id * 100,
        40,
        (20, 18),
        (2_000, 1_800),
        cost,
    )
}

/// A snapshot with every label kind, one histogram, a span without a
/// verdict, one span per `CostDecision` variant (Eq 1 twice: a finite
/// and a non-finite read rate), a major with its landing level and
/// evicted spans.
fn json_sample() -> MetricsSnapshot {
    let mut counters = BTreeMap::new();
    counters.insert(MetricKey::global("puts"), 10);
    counters.insert(MetricKey::partition("group_commits", 0), 4);
    counters.insert(MetricKey::level("read_source_ssd", 1, 2), 3);
    counters.insert(MetricKey::codec("pm_codec_chosen_total", "delta"), 2);
    let mut gauges = BTreeMap::new();
    gauges.insert(MetricKey::global("pm_used_bytes"), 4_096);
    gauges.insert(MetricKey::partition("memtable_bytes", 1), -1);
    let mut histograms = BTreeMap::new();
    let mut h = Histogram::new();
    for v in [100, 300, 500] {
        h.record(v);
    }
    histograms.insert(MetricKey::partition("read_latency", 0), h);
    let spans = vec![
        span(1, SpanKind::Flush, None),
        span(
            2,
            SpanKind::Internal,
            Some(CostDecision::ReadBenefit {
                partition: 1,
                read_rate: 12.5,
                unsorted: 4,
                triggered: true,
            }),
        ),
        span(
            3,
            SpanKind::Internal,
            Some(CostDecision::ReadBenefit {
                partition: 1,
                read_rate: f64::INFINITY,
                unsorted: 5,
                triggered: false,
            }),
        ),
        span(
            4,
            SpanKind::Internal,
            Some(CostDecision::WriteBenefit {
                partition: 1,
                window_writes: 900,
                window_updates: 300,
                l0_records: 1_200,
                triggered: true,
            }),
        ),
        span(
            5,
            SpanKind::Internal,
            Some(CostDecision::HardCap {
                partition: 1,
                unsorted: 9,
                cap: 8,
                triggered: true,
            }),
        ),
        TraceSpan {
            level: Some(2),
            ..span(
                6,
                SpanKind::Major,
                Some(CostDecision::Retention {
                    pm_used: 900,
                    budget: 600,
                    retained: vec![0, 2],
                    victims: vec![1],
                }),
            )
        },
        span(
            7,
            SpanKind::Flush,
            Some(CostDecision::CodecChoice {
                partition: 1,
                codec: "delta",
                entries: 128,
                pm_bytes: 2_048,
            }),
        ),
    ];
    MetricsSnapshot::from_parts(1_000, counters, gauges, histograms, spans, 2)
}

/// Byte-exact golden for `MetricsSnapshot::to_json` (what `/debug`
/// serves): one object per series and span, one line each.
#[test]
fn snapshot_json_matches_golden() {
    let expected = concat!(
        "{\n",
        "  \"at_nanos\": 1000,\n",
        "  \"counters\": [\n",
        "    {\"name\": \"group_commits\", \"partition\": 0, \"level\": null, \"value\": 4},\n",
        "    {\"name\": \"pm_codec_chosen_total\", \"partition\": null, \"level\": null, ",
        "\"codec\": \"delta\", \"value\": 2},\n",
        "    {\"name\": \"puts\", \"partition\": null, \"level\": null, \"value\": 10},\n",
        "    {\"name\": \"read_source_ssd\", \"partition\": 1, \"level\": 2, \"value\": 3}\n",
        "  ],\n",
        "  \"gauges\": [\n",
        "    {\"name\": \"memtable_bytes\", \"partition\": 1, \"level\": null, \"value\": -1},\n",
        "    {\"name\": \"pm_used_bytes\", \"partition\": null, \"level\": null, \"value\": 4096}\n",
        "  ],\n",
        "  \"histograms\": [\n",
        "    {\"name\": \"read_latency\", \"partition\": 0, \"level\": null, \"count\": 3, ",
        "\"sum_nanos\": 900, \"mean_nanos\": 300, \"min_nanos\": 100, \"p50_nanos\": 300, ",
        "\"p95_nanos\": 500, \"p99_nanos\": 500, \"max_nanos\": 500}\n",
        "  ],\n",
        "  \"spans\": [\n",
        "    {\"id\": 1, \"trace_id\": 10, \"kind\": \"flush\", \"partition\": 1, ",
        "\"start_nanos\": 100, \"end_nanos\": 140, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": null, \"cost\": null},\n",
        "    {\"id\": 2, \"trace_id\": 20, \"kind\": \"internal\", \"partition\": 1, ",
        "\"start_nanos\": 200, \"end_nanos\": 240, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": null, \"cost\": {\"rule\": \"eq1_read_benefit\", ",
        "\"partition\": 1, \"read_rate\": 12.5, \"unsorted\": 4, \"triggered\": true}},\n",
        "    {\"id\": 3, \"trace_id\": 30, \"kind\": \"internal\", \"partition\": 1, ",
        "\"start_nanos\": 300, \"end_nanos\": 340, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": null, \"cost\": {\"rule\": \"eq1_read_benefit\", ",
        "\"partition\": 1, \"read_rate\": null, \"unsorted\": 5, \"triggered\": false}},\n",
        "    {\"id\": 4, \"trace_id\": 40, \"kind\": \"internal\", \"partition\": 1, ",
        "\"start_nanos\": 400, \"end_nanos\": 440, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": null, \"cost\": {\"rule\": \"eq2_write_benefit\", ",
        "\"partition\": 1, \"window_writes\": 900, \"window_updates\": 300, \"l0_records\": 1200, ",
        "\"triggered\": true}},\n",
        "    {\"id\": 5, \"trace_id\": 50, \"kind\": \"internal\", \"partition\": 1, ",
        "\"start_nanos\": 500, \"end_nanos\": 540, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": null, \"cost\": {\"rule\": \"hard_cap\", ",
        "\"partition\": 1, \"unsorted\": 9, \"cap\": 8, \"triggered\": true}},\n",
        "    {\"id\": 6, \"trace_id\": 60, \"kind\": \"major\", \"partition\": 1, ",
        "\"start_nanos\": 600, \"end_nanos\": 640, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": 2, \"cost\": {\"rule\": \"eq3_retention\", ",
        "\"pm_used\": 900, \"budget\": 600, \"retained\": [0, 2], \"victims\": [1]}},\n",
        "    {\"id\": 7, \"trace_id\": 70, \"kind\": \"flush\", \"partition\": 1, ",
        "\"start_nanos\": 700, \"end_nanos\": 740, \"input_records\": 20, \"output_records\": 18, ",
        "\"input_bytes\": 2000, \"output_bytes\": 1800, \"level\": null, \"cost\": {\"rule\": \"flush_codec_decision\", ",
        "\"partition\": 1, \"codec\": \"delta\", \"entries\": 128, \"pm_bytes\": 2048}}\n",
        "  ],\n",
        "  \"spans_dropped\": 2\n",
        "}\n",
    );
    assert_eq!(json_sample().to_json(), expected);
    assert_eq!(
        MetricsSnapshot::default().to_json(),
        concat!(
            "{\n",
            "  \"at_nanos\": 0,\n",
            "  \"counters\": [\n\n  ],\n",
            "  \"gauges\": [\n\n  ],\n",
            "  \"histograms\": [\n\n  ],\n",
            "  \"spans\": [\n\n  ],\n",
            "  \"spans_dropped\": 0\n",
            "}\n",
        )
    );
}

/// Two codec-labelled series of one name render as two objects that
/// say which codec each counts.
#[test]
fn snapshot_json_keeps_the_codec_label() {
    let counters = [("prefix", 3), ("delta", 4)]
        .into_iter()
        .map(|(codec, n)| (MetricKey::codec("pm_codec_chosen_total", codec), n))
        .collect();
    let snap =
        MetricsSnapshot::from_parts(0, counters, BTreeMap::new(), BTreeMap::new(), vec![], 0);
    let json = snap.to_json();
    let rows: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("pm_codec_chosen_total"))
        .collect();
    assert_eq!(rows.len(), 2, "{json}");
    assert!(rows[0].contains("\"codec\": \"delta\""), "{json}");
    assert!(rows[1].contains("\"codec\": \"prefix\""), "{json}");
}

/// Byte-exact golden for `FlightRecorder::to_json` (the `/debug`
/// recorder): evicted count, then each retained trace with its stages.
#[test]
fn flight_recorder_json_matches_golden() {
    let stage = |kind, start_nanos, end_nanos: u64| {
        TraceSpan::new(
            0,
            2,
            kind,
            1,
            start_nanos,
            end_nanos - start_nanos,
            (2, 1),
            (0, 0),
            None,
        )
    };
    let recorder = FlightRecorder::new(2);
    for (trace_id, op, stages) in [
        (1, TraceOp::Get, Vec::new()),
        (
            2,
            TraceOp::Write,
            vec![
                stage(SpanKind::WalAppend, 200, 240),
                stage(SpanKind::MemtableApply, 240, 250),
            ],
        ),
        (3, TraceOp::Scan, vec![]),
    ] {
        recorder.push(RequestTrace {
            trace_id,
            op,
            partition: 1,
            start_nanos: trace_id * 100,
            total_nanos: 70,
            stages,
        });
    }
    let expected = concat!(
        "{\"dropped\": 1, \"traces\": [",
        "{\"trace_id\": 2, \"op\": \"write\", \"partition\": 1, \"start_nanos\": 200, ",
        "\"total_nanos\": 70, \"stages\": [",
        "{\"stage\": \"wal_append\", \"start_nanos\": 200, \"end_nanos\": 240, ",
        "\"input_records\": 2, \"output_records\": 1}, ",
        "{\"stage\": \"memtable_apply\", \"start_nanos\": 240, \"end_nanos\": 250, ",
        "\"input_records\": 2, \"output_records\": 1}]}, ",
        "{\"trace_id\": 3, \"op\": \"scan\", \"partition\": 1, \"start_nanos\": 300, ",
        "\"total_nanos\": 70, \"stages\": []}",
        "]}",
    );
    assert_eq!(recorder.to_json(), expected);
    assert_eq!(
        FlightRecorder::new(2).to_json(),
        "{\"dropped\": 0, \"traces\": []}"
    );
}

/// Every series a two-partition Inline engine exposes after the
/// workload of `prometheus_exposition_is_well_formed`, as
/// `(kind, name, labels)` in snapshot order. A dropped, renamed or
/// relabelled series fails that test; so does a new one, until it is
/// listed here.
const SERIES: &[(&str, &str, &str)] = &[
    ("counter", "batch_writes", ""),
    ("counter", "block_cache_evictions", ""),
    ("counter", "block_cache_ghost_hit_bytes_total", ""),
    ("counter", "block_cache_hits", ""),
    ("counter", "block_cache_misses", ""),
    ("counter", "compaction_input_errors_total", ""),
    ("counter", "cost_cache_split_steps", ""),
    ("counter", "cost_codec_choices", ""),
    ("counter", "cost_eq1_triggers", ""),
    ("counter", "cost_eq2_triggers", ""),
    ("counter", "cost_hard_cap_triggers", ""),
    ("counter", "cost_retention_passes", ""),
    ("counter", "deletes", ""),
    ("counter", "gets", ""),
    ("counter", "group_commits", ""),
    ("counter", "grouped_writes", ""),
    ("counter", "internal_compactions", ""),
    ("counter", "internal_dropped_records", ""),
    ("counter", "internal_out_of_pm_fallbacks", ""),
    ("counter", "internal_space_released", ""),
    ("counter", "maintenance_jobs_completed", ""),
    ("counter", "maintenance_jobs_deduped", ""),
    ("counter", "maintenance_jobs_enqueued", ""),
    ("counter", "maintenance_jobs_failed", ""),
    ("counter", "major_compactions", ""),
    ("counter", "manifest_edits_total", ""),
    ("counter", "media_retire_errors_total", ""),
    ("counter", "memtable_filter_checked_total", ""),
    ("counter", "memtable_filter_skipped_total", ""),
    ("counter", "minor_compactions", ""),
    ("counter", "partition_group_commits", "{partition=\"0\"}"),
    ("counter", "partition_group_commits", "{partition=\"1\"}"),
    ("counter", "partition_grouped_writes", "{partition=\"0\"}"),
    ("counter", "partition_grouped_writes", "{partition=\"1\"}"),
    ("counter", "partition_reads", "{partition=\"0\"}"),
    ("counter", "partition_reads", "{partition=\"1\"}"),
    ("counter", "pm_bytes_read", ""),
    ("counter", "pm_bytes_written", ""),
    ("counter", "pm_codec_chosen_total", "{codec=\"delta\"}"),
    ("counter", "pm_codec_chosen_total", "{codec=\"fixed\"}"),
    ("counter", "pm_codec_chosen_total", "{codec=\"prefix\"}"),
    ("counter", "pm_filter_checked_total", ""),
    ("counter", "pm_filter_miss_total", ""),
    ("counter", "pm_filter_useful_total", ""),
    ("counter", "pm_group_cache_evictions_total", ""),
    ("counter", "pm_group_cache_ghost_hit_bytes_total", ""),
    ("counter", "pm_group_cache_hit_total", ""),
    ("counter", "pm_group_cache_invalidations_total", ""),
    ("counter", "pm_group_cache_miss_total", ""),
    ("counter", "pm_l0_sketch_probes_total", ""),
    ("counter", "pm_scan_tables_sought_total", ""),
    ("counter", "pm_scan_tables_total", ""),
    ("counter", "puts", ""),
    ("counter", "read_misses", ""),
    ("counter", "read_source_memtable", "{partition=\"0\"}"),
    ("counter", "read_source_memtable", "{partition=\"1\"}"),
    ("counter", "read_source_miss", "{partition=\"0\"}"),
    ("counter", "read_source_miss", "{partition=\"1\"}"),
    ("counter", "read_source_pm", "{partition=\"0\"}"),
    ("counter", "read_source_pm", "{partition=\"1\"}"),
    (
        "counter",
        "read_source_ssd",
        "{partition=\"0\",level=\"1\"}",
    ),
    (
        "counter",
        "read_source_ssd",
        "{partition=\"1\",level=\"1\"}",
    ),
    ("counter", "reads_from_memtable", ""),
    ("counter", "reads_from_pm", ""),
    ("counter", "reads_from_ssd", ""),
    ("counter", "recovery_tables_reopened", ""),
    ("counter", "recovery_wal_records_replayed", ""),
    ("counter", "scans", ""),
    ("counter", "ssd_bytes_read", ""),
    ("counter", "ssd_bytes_written", ""),
    (
        "counter",
        "ssd_level_bytes_written",
        "{partition=\"0\",level=\"1\"}",
    ),
    (
        "counter",
        "ssd_level_bytes_written",
        "{partition=\"1\",level=\"1\"}",
    ),
    ("counter", "ssd_read_errors_total", ""),
    ("counter", "trace_recorded_total", ""),
    ("counter", "trace_sampled_total", ""),
    ("counter", "user_bytes_written", ""),
    ("counter", "wal_appends", ""),
    ("counter", "wal_segments_deleted_total", ""),
    ("counter", "wal_syncs", ""),
    ("counter", "write_slowdowns", ""),
    ("counter", "write_stalls", ""),
    ("gauge", "block_cache_capacity_bytes", ""),
    ("gauge", "block_cache_used_bytes", ""),
    ("gauge", "l0_unsorted_tables", "{partition=\"0\"}"),
    ("gauge", "l0_unsorted_tables", "{partition=\"1\"}"),
    ("gauge", "maintenance_jobs_inflight", ""),
    ("gauge", "maintenance_queue_depth", ""),
    ("gauge", "memtable_bytes", "{partition=\"0\"}"),
    ("gauge", "memtable_bytes", "{partition=\"1\"}"),
    ("gauge", "pm_group_cache_capacity_bytes", ""),
    ("gauge", "pm_group_cache_used_bytes", ""),
    ("gauge", "pm_l0_bytes", "{partition=\"0\"}"),
    ("gauge", "pm_l0_bytes", "{partition=\"1\"}"),
    ("gauge", "pm_l0_index_bytes", ""),
    ("gauge", "pm_l0_key_column_bytes", ""),
    ("gauge", "pm_l0_sketch_bytes", ""),
    ("gauge", "pm_pool_unreferenced_bytes", ""),
    ("gauge", "pm_used_bytes", ""),
    ("gauge", "ssd_level_bytes", "{partition=\"0\"}"),
    ("gauge", "ssd_level_bytes", "{partition=\"1\"}"),
    ("histogram", "group_commit_latency", ""),
    ("histogram", "pm_tables_probed_per_get", ""),
    ("histogram", "read_latency", ""),
    ("histogram", "recovery_wall_nanos", ""),
    ("histogram", "scan_latency", ""),
    ("histogram", "wal_sync_latency", ""),
    ("histogram", "write_latency", ""),
    ("histogram", "write_stall_wall_nanos", ""),
];

/// The `(kind, name, labels)` of every metric in `snap`, counters then
/// gauges then histograms, each in key order.
fn series_of(snap: &MetricsSnapshot) -> Vec<(&'static str, &'static str, String)> {
    let of = |kind, keys: Vec<&MetricKey>| -> Vec<_> {
        keys.into_iter()
            .map(|k| (kind, k.name, k.label_string()))
            .collect()
    };
    let mut all = of("counter", snap.counters.keys().collect());
    all.extend(of("gauge", snap.gauges.keys().collect()));
    all.extend(of("histogram", snap.histograms.keys().collect()));
    all
}

/// A real engine's exposition parses line by line: every non-comment
/// line is `name{labels} value`, every series has a TYPE header, and
/// the set of series is exactly [`SERIES`].
#[test]
fn prometheus_exposition_is_well_formed() {
    let mut opts = small_opts();
    opts.partitioner = pm_blade::Partitioner(vec![b"key000600".to_vec()]);
    let db = Db::open(opts).unwrap();
    for i in 0..1_200u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'p'; 64])
            .unwrap();
    }
    for i in 0..100u32 {
        db.get(format!("key{i:06}").as_bytes()).unwrap();
    }
    // One of each remaining operation, on both partitions where it
    // takes one, so every series an operation creates is there.
    assert!(db.get(b"absent").unwrap().value.is_none());
    db.scan(ScanRequest::new().start("key000590").limit(20))
        .unwrap();
    db.delete(b"key000001").unwrap();
    db.compact(CompactionRequest::FlushAll).unwrap();
    for partition in 0..2 {
        db.compact(CompactionRequest::Internal { partition })
            .unwrap();
        db.compact(CompactionRequest::Major { partition }).unwrap();
    }
    let snap = db.metrics_snapshot();
    let text = snap.to_prometheus();
    let mut typed: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE pmblade_") {
            typed.push(rest.split(' ').next().unwrap());
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        assert!(series.starts_with("pmblade_"), "bad series name: {series}");
        assert!(value.parse::<i64>().is_ok(), "non-numeric value in {line}");
        let name = series
            .trim_start_matches("pmblade_")
            .split('{')
            .next()
            .unwrap()
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(typed.contains(&name), "series {name} missing TYPE header");
    }
    // Exactly the pinned series, each on a line of its own (a
    // histogram by its median line).
    let found = series_of(&snap);
    let found: Vec<_> = found.iter().map(|(k, n, l)| (*k, *n, l.as_str())).collect();
    assert_eq!(found, SERIES, "the set of exposed series moved");
    // Every SSD byte was a major's output, counted at its level.
    let written = snap.counter("ssd_level_bytes_written");
    assert!(written > 0);
    assert_eq!(written, snap.counter("ssd_bytes_written"));
    for (kind, name, labels) in SERIES {
        let needle = match (*kind, labels.strip_suffix('}')) {
            ("histogram", None) => format!("pmblade_{name}{{quantile=\"0.5\"}} "),
            ("histogram", Some(open)) => format!("pmblade_{name}{open},quantile=\"0.5\"}} "),
            _ => format!("pmblade_{name}{labels} "),
        };
        assert!(text.contains(&needle), "missing {needle}\n{text}");
    }
    // The read phase above ran against flushed PM tables with default
    // options (filters on, cache on), so the accelerators saw traffic.
    assert!(
        snap.counter("pm_filter_checked_total") > 0,
        "PM reads must consult filters"
    );
    assert!(
        snap.counter("pm_l0_sketch_probes_total") > 0,
        "PM reads must consult the key sketch"
    );
    assert!(
        snap.counter("pm_group_cache_hit_total") + snap.counter("pm_group_cache_miss_total") > 0,
        "PM reads must consult the group cache"
    );
}
