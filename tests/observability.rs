//! Observability layer, end to end: snapshot/delta monotonicity,
//! listener event ordering under concurrency, and the Prometheus
//! exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use pm_blade::{
    CompactionRequest, Db, EventListener, MetricKey, MetricsSnapshot, Mode, Options, ScanRequest,
    SpanKind, TraceSpan,
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
// Listener ordering
// -------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    FlushBegin(usize),
    FlushComplete(usize),
    CompactionBegin(SpanKind, usize),
    CompactionComplete(SpanKind, usize),
}

/// Records the event stream and checks pairing invariants at the end.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Event>>,
    group_commits: AtomicU64,
    cost_decisions: AtomicU64,
}

impl EventListener for Recorder {
    fn on_flush_begin(&self, partition: usize) {
        self.events
            .lock()
            .unwrap()
            .push(Event::FlushBegin(partition));
    }

    fn on_flush_complete(&self, span: &TraceSpan) {
        assert_eq!(span.kind, SpanKind::Flush);
        assert!(span.end_nanos >= span.start_nanos);
        self.events
            .lock()
            .unwrap()
            .push(Event::FlushComplete(span.partition));
    }

    fn on_compaction_begin(&self, kind: SpanKind, partition: usize) {
        self.events
            .lock()
            .unwrap()
            .push(Event::CompactionBegin(kind, partition));
    }

    fn on_compaction_complete(&self, span: &TraceSpan) {
        assert!(span.end_nanos >= span.start_nanos);
        self.events
            .lock()
            .unwrap()
            .push(Event::CompactionComplete(span.kind, span.partition));
    }

    fn on_group_commit(&self, span: &TraceSpan) {
        assert_eq!(span.kind, SpanKind::GroupCommit);
        assert!(span.input_records > 0);
        self.group_commits.fetch_add(1, Ordering::Relaxed);
    }

    fn on_cost_decision(&self, _decision: &pm_blade::CostDecision) {
        self.cost_decisions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Replay an event stream and assert begin/complete pairing per
/// (kind, partition) key: every complete matches exactly one pending
/// begin, and nothing is left open at the end.
fn check_pairing(events: &[Event]) {
    let mut open: BTreeMap<(u8, usize), u64> = BTreeMap::new();
    let keyed = |kind: SpanKind, pid: usize| -> (u8, usize) {
        let k = match kind {
            SpanKind::Flush => 0,
            SpanKind::Internal => 1,
            SpanKind::Major => 2,
            SpanKind::GroupCommit => 3,
            // Request-stage kinds never reach the listener event
            // stream; any one showing up here is a pairing bug.
            other => panic!("unexpected stage span kind {other:?} in listener events"),
        };
        (k, pid)
    };
    for event in events {
        match *event {
            Event::FlushBegin(p) => {
                *open.entry(keyed(SpanKind::Flush, p)).or_default() += 1;
            }
            Event::FlushComplete(p) => {
                let slot = open.entry(keyed(SpanKind::Flush, p)).or_default();
                assert!(*slot > 0, "flush complete without begin on p{p}");
                *slot -= 1;
            }
            Event::CompactionBegin(kind, p) => {
                *open.entry(keyed(kind, p)).or_default() += 1;
            }
            Event::CompactionComplete(kind, p) => {
                let slot = open.entry(keyed(kind, p)).or_default();
                assert!(*slot > 0, "{kind:?} complete without begin on p{p}");
                *slot -= 1;
            }
        }
    }
    assert!(
        open.values().all(|v| *v == 0),
        "unbalanced begin/complete pairs: {open:?}"
    );
}

#[test]
fn listener_sees_paired_events_in_order() {
    let recorder = Arc::new(Recorder::default());
    let mut opts = small_opts();
    opts.listeners
        .add(Arc::clone(&recorder) as Arc<dyn EventListener>);
    let db = Db::open(opts).unwrap();
    for i in 0..1_500u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'x'; 64])
            .unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    let events = recorder.events.lock().unwrap().clone();
    assert!(!events.is_empty(), "workload must produce flush events");
    check_pairing(&events);
    // Flushes happened, and internal compactions only ever start after
    // at least one flush completed on that partition (flush → internal
    // causality: internal compaction merges flushed PM tables).
    let mut flushed: BTreeMap<usize, bool> = BTreeMap::new();
    for event in &events {
        match *event {
            Event::FlushComplete(p) => {
                flushed.insert(p, true);
            }
            Event::CompactionBegin(SpanKind::Internal, p) => {
                assert!(
                    flushed.get(&p).copied().unwrap_or(false),
                    "internal compaction on p{p} before any flush"
                );
            }
            _ => {}
        }
    }
    assert!(recorder.group_commits.load(Ordering::Relaxed) >= 1_500);
    assert!(recorder.cost_decisions.load(Ordering::Relaxed) > 0);
}

#[test]
fn listener_ordering_survives_concurrency() {
    let recorder = Arc::new(Recorder::default());
    let mut opts = small_opts();
    opts.partitioner = pm_blade::Partitioner::Ranges(vec![b"w2".to_vec()]);
    opts.listeners
        .add(Arc::clone(&recorder) as Arc<dyn EventListener>);
    let db = Arc::new(Db::open(opts).unwrap());
    crossbeam::thread::scope(|s| {
        for t in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move |_| {
                for i in 0..400u32 {
                    let k = format!("w{t}-{i:05}");
                    db.put(k.as_bytes(), &[b'c'; 64]).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let db = Arc::clone(&db);
            s.spawn(move |_| {
                for i in 0..600u32 {
                    let k = format!("w{}-{:05}", i % 4, i % 400);
                    let _ = db.get(k.as_bytes()).unwrap();
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move |_| {
            for pid in 0..3 {
                let _ = db.compact(CompactionRequest::Flush { partition: pid % 2 });
            }
        });
    })
    .unwrap();
    db.compact(CompactionRequest::FlushAll).unwrap();
    let events = recorder.events.lock().unwrap().clone();
    // Flushes and compactions run under partition write locks (and the
    // listener hooks fire while they are held), so the global stream
    // must still pair up per partition.
    check_pairing(&events);
    assert!(recorder.group_commits.load(Ordering::Relaxed) > 0);
    // The snapshot agrees with the listener's view of group commits:
    // every group the listener saw is counted (leaders that found an
    // empty queue commit nothing and emit nothing).
    let snap = db.metrics_snapshot();
    assert!(snap.counter("group_commits") >= recorder.group_commits.load(Ordering::Relaxed));
}

// -------------------------------------------------------------------
// Prometheus golden output
// -------------------------------------------------------------------

#[test]
fn prometheus_rendering_matches_golden() {
    let mut counters = BTreeMap::new();
    counters.insert(MetricKey::global("gets"), 42);
    counters.insert(MetricKey::partition("group_commits", 0), 7);
    counters.insert(MetricKey::partition("group_commits", 1), 9);
    counters.insert(MetricKey::level("read_source_ssd", 1, 2), 3);
    let mut gauges = BTreeMap::new();
    gauges.insert(MetricKey::global("maintenance_queue_depth"), 3);
    gauges.insert(MetricKey::global("pm_used_bytes"), 65_536);
    let mut histograms = BTreeMap::new();
    let mut h = Histogram::new();
    for v in [100, 100, 300, 500] {
        h.record(v);
    }
    histograms.insert(MetricKey::global("read_latency"), h);
    let snap = MetricsSnapshot::from_parts(1_000_000, counters, gauges, histograms, Vec::new(), 5);
    let expected = "\
# TYPE pmblade_gets counter
pmblade_gets 42
# TYPE pmblade_group_commits counter
pmblade_group_commits{partition=\"0\"} 7
pmblade_group_commits{partition=\"1\"} 9
# TYPE pmblade_read_source_ssd counter
pmblade_read_source_ssd{partition=\"1\",level=\"2\"} 3
# TYPE pmblade_maintenance_queue_depth gauge
pmblade_maintenance_queue_depth 3
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

/// A real engine's exposition parses line by line: every non-comment
/// line is `name{labels} value`, and every series has a TYPE header.
#[test]
fn prometheus_exposition_is_well_formed() {
    let db = Db::open(small_opts()).unwrap();
    for i in 0..1_200u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'p'; 64])
            .unwrap();
    }
    for i in 0..100u32 {
        db.get(format!("key{i:06}").as_bytes()).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    let text = db.metrics_snapshot().to_prometheus();
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
    // The engine-level metrics the paper's analysis leans on are there.
    for needle in [
        "pmblade_puts ",
        "pmblade_group_commits{partition=\"0\"}",
        "pmblade_read_latency{quantile=\"0.5\"}",
        "pmblade_write_latency{quantile=\"0.99\"}",
        "pmblade_pm_bytes_written ",
        "pmblade_pm_used_bytes ",
        // Maintenance metrics are pre-registered in both modes, so an
        // Inline engine still exposes them (at zero) for dashboards.
        "pmblade_maintenance_queue_depth ",
        "pmblade_maintenance_jobs_enqueued ",
        "pmblade_write_stalls ",
        "pmblade_write_slowdowns ",
        // PM-L0 read-acceleration series: bloom-filter outcomes, the
        // shared group-decode cache, and the tables-probed distribution.
        "pmblade_pm_filter_checked_total ",
        "pmblade_pm_filter_useful_total ",
        "pmblade_pm_filter_miss_total ",
        "pmblade_pm_group_cache_hit_total ",
        "pmblade_pm_group_cache_miss_total ",
        "pmblade_pm_group_cache_used_bytes ",
        "pmblade_pm_tables_probed_per_get{quantile=\"0.5\"}",
        "pmblade_ssd_read_errors_total ",
        "pmblade_compaction_input_errors_total ",
    ] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    // The read phase above ran against flushed PM tables with default
    // options (filters on, cache on), so the accelerators saw traffic.
    let snap = db.metrics_snapshot();
    assert!(
        snap.counter("pm_filter_checked_total") > 0,
        "PM reads must consult filters"
    );
    assert!(
        snap.counter("pm_group_cache_hit_total") + snap.counter("pm_group_cache_miss_total") > 0,
        "PM reads must consult the group cache"
    );
}
