//! End-to-end request-tracing tests: deterministic stage attribution
//! on the read path, maintenance cross-linking to the originating
//! trace, a golden Chrome trace-event export, flight-recorder
//! semantics, and the stage-sum invariant under random workloads.

use std::collections::BTreeSet;

use pm_blade::{
    chrome_trace_json, CompactionRequest, Db, Mode, Partitioner, ReadSource, RequestTrace,
    ScanRequest, SpanKind, TraceContext, TraceOp, TraceSpan, WriteBatch, FLIGHT_RECORDER_CAPACITY,
};
use pmblade_integration_tests::{key_for, tiny_options, value_for};
use proptest::prelude::*;

/// Engine options with every read-path knob this file depends on
/// pinned (the CI matrix may globally disable filters or the group
/// cache; these tests need them on) and every request sampled.
fn traced_opts(mode: Mode) -> pm_blade::Options {
    let mut opts = tiny_options(mode);
    opts.pm_filter_bits_per_key = 10;
    opts.pm_group_cache_bytes = 256 << 10;
    opts.trace_sample_every = 1;
    opts
}

// -------------------------------------------------------------------
// Read-path stage attribution
// -------------------------------------------------------------------

/// A get that PM level-0 must search but cannot answer walks every leg
/// of the read path: memtable probe (miss), filter consult (the sorted
/// run's candidate table passes the key), PM group decode (the key is
/// not there), SSD search (hit). Keys the sorted run covers but does not
/// hold are tried until one's get decodes a group: with filters on, a
/// bloom false positive; with them off, the first key. Four distinct
/// stages, deterministically.
#[test]
fn sampled_get_attributes_four_distinct_stages() {
    const KEYS: u64 = 2000;
    let db = Db::open(traced_opts(Mode::PmBlade)).unwrap();
    for i in 0..KEYS {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    // Every key now lives on the SSD. Rewrite the even ones into a PM
    // sorted run: it covers the odd keys and holds none of them.
    for i in (0..KEYS).step_by(2) {
        db.put(&key_for(i), &value_for(i + KEYS, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();

    let decodes = |t: &RequestTrace| t.stages.iter().any(|s| s.kind == SpanKind::PmDecodeMiss);
    let trace = (1..KEYS)
        .step_by(2)
        .find_map(|i| {
            let got = db.get(&key_for(i)).unwrap();
            assert_eq!(got.value, Some(value_for(i, 64)), "key {i}");
            assert_eq!(got.source, ReadSource::Ssd, "key {i}");
            let trace = db.flight_recorder().pop().expect("every get is recorded");
            assert_eq!(trace.op, TraceOp::Get);
            decodes(&trace).then_some(trace)
        })
        .expect("some covered key's get decodes a PM group");
    let kinds: BTreeSet<&str> = trace.stages.iter().map(|s| s.kind.as_str()).collect();
    for want in [
        "memtable_probe",
        "filter_consult",
        "pm_decode_miss",
        "ssd_read",
    ] {
        assert!(kinds.contains(want), "missing stage {want}, got {kinds:?}");
    }
    assert!(kinds.len() >= 4);
    assert!(trace.stage_nanos() <= trace.total_nanos);
    // Stages are measured sub-intervals of the request window, all
    // carrying the request's trace id.
    for s in &trace.stages {
        assert_eq!(s.trace_id, trace.trace_id);
        assert!(s.start_nanos >= trace.start_nanos);
        assert!(s.end_nanos <= trace.start_nanos + trace.total_nanos);
    }

    // The same recorder exports as structurally valid Chrome JSON.
    let json = db.chrome_trace();
    assert!(json.contains("\"displayTimeUnit\": \"ms\""));
    assert!(json.contains("\"name\": \"ssd_read\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

/// A read served straight from the group-decode cache records a
/// `pm_decode_hit` stage instead of a miss.
#[test]
fn cached_pm_read_records_a_decode_hit_stage() {
    let db = Db::open(traced_opts(Mode::PmBlade)).unwrap();
    for i in 0..16u64 {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.get(&key_for(5)).unwrap(); // warm the group cache
    let got = db.get(&key_for(5)).unwrap();
    assert_eq!(got.source, ReadSource::Pm);

    let traces = db.flight_recorder();
    let trace = traces.last().expect("second get recorded");
    assert_eq!(trace.op, TraceOp::Get);
    let kinds: BTreeSet<&str> = trace.stages.iter().map(|s| s.kind.as_str()).collect();
    assert!(
        kinds.contains("pm_decode_hit"),
        "warm get must be cache-served, stages {kinds:?}"
    );
}

/// In every mode a sampled get that an SSD level serves records the
/// walk it took, and nothing but: the memtable probe, the level-0
/// search in the stage its level-0 kind reports (the key sketch's
/// filter consult over PM tables, a decode over matrix rows, an SSD
/// read of an SSD level-0 table), then the SSD read that found the key.
#[test]
fn sampled_get_from_an_ssd_level_records_every_leg_in_every_mode() {
    // (mode, its level-0 stage, SSD tables the get reads)
    let modes = [
        (Mode::PmBlade, "filter_consult", 1),
        (Mode::PmBladePm, "filter_consult", 1),
        (Mode::MatrixKv, "pm_decode_miss", 1),
        (Mode::SsdLevel0, "ssd_read", 2),
    ];
    for (mode, level0_stage, ssd_tables) in modes {
        let db = Db::open(traced_opts(mode)).unwrap();
        // Even keys move down to level 1; the odd ones stay in a level-0
        // table whose key range covers the even ones.
        for parity in [0, 1] {
            for i in (parity..32u64).step_by(2) {
                db.put(&key_for(i), &value_for(i, 64)).unwrap();
            }
            db.compact(CompactionRequest::FlushAll).unwrap();
            if parity == 0 {
                db.compact(CompactionRequest::Major { partition: 0 })
                    .unwrap();
            }
        }
        let got = db.get(&key_for(10)).unwrap();
        assert_eq!(got.value, Some(value_for(10, 64)), "{mode:?}");
        assert_eq!(got.source, ReadSource::Ssd, "{mode:?}");

        let traces = db.flight_recorder();
        let trace = traces.last().expect("the get is recorded");
        assert_eq!(trace.op, TraceOp::Get, "{mode:?}");
        let kinds: BTreeSet<&str> = trace.stages.iter().map(|s| s.kind.as_str()).collect();
        for want in ["memtable_probe", level0_stage, "ssd_read"] {
            assert!(kinds.contains(want), "{mode:?}: no {want}, got {kinds:?}");
        }
        let ssd = trace.stages.iter().find(|s| s.kind == SpanKind::SsdRead);
        assert_eq!(ssd.unwrap().input_records, ssd_tables, "{mode:?}");
        assert_eq!(trace.stage_nanos(), trace.total_nanos, "{mode:?}");
    }
}

/// A sampled scan records the point-read stage kinds — summed per
/// kind over every cursor step — plus one `merge` stage, and together
/// they account for the scan's whole latency. The first pass decodes
/// its PM groups; a repeat is served by the decode cache.
#[test]
fn sampled_scan_attributes_every_nanosecond_to_a_stage() {
    let db = Db::open(traced_opts(Mode::PmBlade)).unwrap();
    for i in 0..64u64 {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    for i in (0..64u64).step_by(2) {
        db.put(&key_for(i), &value_for(i + 100, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.put(&key_for(7), b"in the memtable").unwrap();

    let request = || ScanRequest::new().start(key_for(4)).limit(20);
    let (cold_rows, cold_latency) = db.scan(request()).unwrap();
    let (warm_rows, _) = db.scan(request()).unwrap();
    assert_eq!(cold_rows.len(), 20);
    assert_eq!(cold_rows, warm_rows);

    let traces = db.flight_recorder();
    let scans: Vec<&RequestTrace> = traces.iter().filter(|t| t.op == TraceOp::Scan).collect();
    let [cold, warm] = scans[..] else {
        panic!("two scans recorded, got {}", scans.len());
    };
    assert_eq!(cold.total_nanos, cold_latency.as_nanos());
    for (trace, pm_stage) in [(cold, "pm_decode_miss"), (warm, "pm_decode_hit")] {
        let kinds: Vec<&str> = trace.stages.iter().map(|s| s.kind.as_str()).collect();
        // The merged key column's search and walk are a filter consult.
        assert_eq!(
            kinds,
            [
                "memtable_probe",
                "filter_consult",
                pm_stage,
                "ssd_read",
                "merge"
            ],
            "one stage per kind, in consult order"
        );
        assert_eq!(trace.stage_nanos(), trace.total_nanos);
        let merge = trace.stages.last().unwrap();
        assert!(merge.input_records >= 20, "records pulled off the heap");
        assert_eq!(merge.output_records, 20, "rows returned");
    }
    assert!(
        warm.total_nanos < cold.total_nanos,
        "cached groups cost DRAM, not PM"
    );
}

// -------------------------------------------------------------------
// The engine's own traces, pinned
// -------------------------------------------------------------------

/// CRC32C of `tracer().recorder().to_json()` after
/// [`pinned_trace_workload`], per mode. PmBlade's moved when scans
/// began to seek the merged key column: the scan with rows spends 324
/// virtual ns in `filter_consult` (four lines), not 162, and every
/// later trace starts 162 ns on. It moved again when the seek stopped
/// charging the windows line its search had read: 243 ns (three
/// lines), every later trace 81 ns earlier. All three moved when every
/// table filter became one blocked line: the get an SSD level serves
/// spends 159 ns less in `ssd_read` (one 81 ns line, not three 80 ns
/// reads), and flushes writing the new filter sections start later
/// traces a few tens of ns on.
const ENGINE_TRACE_PINS: [(Mode, u32); 3] = [
    (Mode::PmBlade, 1_634_785_152),
    (Mode::SsdLevel0, 1_868_506_565),
    (Mode::MatrixKv, 2_896_423_639),
];

/// A fixed single-threaded Inline workload over two partitions with a
/// WAL, every request traced: a memtable get, a level-0 get, a get an
/// SSD level serves, a miss, a scan with rows, a scan past every key,
/// puts up to the one that trips a flush, and a batch spanning both
/// partitions. Returns the flight recorder's JSON.
fn pinned_trace_workload(mode: Mode) -> String {
    let wal_dir = std::env::temp_dir().join(format!(
        "pmblade-it-{}-trace-pins-{mode:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Pinned here, not taken from `tiny_options`: every knob the CI
    // matrix's `PMBLADE_TEST_*` overrides can move.
    let opts = pm_blade::Options {
        partitioner: Partitioner(vec![key_for(1_000)]),
        pm_filter_bits_per_key: 10,
        pm_group_cache_bytes: 256 << 10,
        pm_codec_mode: pmtable::CodecMode::Auto,
        trace_sample_every: 1,
        wal_dir: Some(wal_dir.clone()),
        ..tiny_options(mode)
    };
    let db = Db::open(opts).unwrap();
    for i in 0..32u64 {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    for i in (0..32u64).step_by(2) {
        db.put(&key_for(i), &value_for(i + 100, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.put(&key_for(7), b"in the memtable").unwrap();

    let sources = [7, 4, 5, 500].map(|i| db.get(&key_for(i)).unwrap().source);
    let want = [
        ReadSource::MemTable,
        if mode == Mode::SsdLevel0 {
            ReadSource::Ssd
        } else {
            ReadSource::Pm
        },
        ReadSource::Ssd,
        ReadSource::Miss,
    ];
    assert_eq!(sources, want, "{mode:?}");
    let (rows, _) = db
        .scan(ScanRequest::new().start(key_for(4)).limit(10))
        .unwrap();
    assert_eq!(rows.len(), 10, "{mode:?}");
    let (rows, _) = db.scan(ScanRequest::new().start(key_for(9_000))).unwrap();
    assert!(rows.is_empty(), "{mode:?}");

    let flushes = || flush_origins(&db).len();
    let before = flushes();
    let mut i = 100u64;
    while flushes() == before {
        db.put(&key_for(i), &value_for(i, 96)).unwrap();
        i += 1;
        assert!(i < 1_000, "{mode:?}: no flush tripped");
    }
    let mut batch = WriteBatch::new();
    batch.put(key_for(3), value_for(3, 32));
    batch.put(key_for(1_003), value_for(1_003, 32));
    db.write_batch(batch).unwrap();

    let json = db.tracer().recorder().to_json();
    drop(db);
    let _ = std::fs::remove_dir_all(&wal_dir);
    json
}

/// The traces the engine itself lays out — every request kind, in
/// every level-0 kind — are pinned byte for byte.
#[test]
fn engine_traces_are_pinned_in_every_mode() {
    for (mode, pin) in ENGINE_TRACE_PINS {
        let json = pinned_trace_workload(mode);
        let crc = encoding::crc::crc32c(json.as_bytes());
        assert_eq!(crc, pin, "{mode:?} traces moved:\n{json}");
    }
}

// -------------------------------------------------------------------
// Write path + maintenance cross-linking
// -------------------------------------------------------------------

/// The trace ids of the flush spans in `db`'s compaction log.
fn flush_origins(db: &Db) -> Vec<u64> {
    let log = db.compaction_log();
    let flushes = log.iter().filter(|s| s.kind == SpanKind::Flush);
    flushes.map(|s| s.trace_id).collect()
}

/// A memtable flush tripped by a traced write carries that write's
/// trace id on its span, so slow writes can be attributed to the
/// maintenance they caused.
#[test]
fn flush_triggered_by_traced_write_carries_the_origin_trace_id() {
    const WIRE_ID: u64 = 0xFACE;
    let wal_dir =
        std::env::temp_dir().join(format!("pmblade-it-{}-trace-origin", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.trace_sample_every = 0; // only the explicit contexts below record
    opts.wal_dir = Some(wal_dir.clone()); // so writes record a WAL-append stage
    let db = Db::open(opts).unwrap();

    let ctx = TraceContext::sampled(WIRE_ID);
    let mut i = 0u64;
    while flush_origins(&db).is_empty() {
        db.put_with(&key_for(i), &value_for(i, 256), Some(ctx))
            .unwrap();
        i += 1;
        assert!(i < 10_000, "no automatic flush after 10k writes");
    }
    let origins = flush_origins(&db);
    assert!(
        origins.contains(&WIRE_ID),
        "flush span must carry the originating trace id, got {origins:?}"
    );

    // The traced writes themselves recorded commit-stage breakdowns.
    let traces = db.flight_recorder();
    let write = traces
        .iter()
        .find(|t| t.op == TraceOp::Write)
        .expect("traced writes recorded");
    assert_eq!(write.trace_id, WIRE_ID);
    let kinds: BTreeSet<&str> = write.stages.iter().map(|s| s.kind.as_str()).collect();
    assert!(kinds.contains("wal_append"), "stages {kinds:?}");
    assert!(kinds.contains("memtable_apply"), "stages {kinds:?}");
    drop(db);
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Untraced compactions (and everything on a fresh engine) keep
/// trace id 0 on their spans.
#[test]
fn untraced_maintenance_spans_carry_trace_id_zero() {
    let mut opts = tiny_options(Mode::PmBlade);
    opts.trace_sample_every = 0;
    let db = Db::open(opts).unwrap();
    for i in 0..32u64 {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    let snap = db.metrics_snapshot();
    assert!(!snap.spans.is_empty(), "compactions produce spans");
    assert!(snap.spans.iter().all(|s| s.trace_id == 0));
    assert!(db.flight_recorder().is_empty());
}

// -------------------------------------------------------------------
// Chrome trace-event export
// -------------------------------------------------------------------

/// Byte-exact golden for the exporter: one request event plus one
/// event per stage, microsecond timestamps with the nanosecond
/// remainder in the fraction.
#[test]
fn chrome_trace_export_matches_golden() {
    let stage = |kind, start_nanos, end_nanos, input_records, output_records| TraceSpan {
        id: 0,
        trace_id: 42,
        kind,
        partition: 1,
        start_nanos,
        end_nanos,
        input_records,
        output_records,
        input_bytes: 0,
        output_bytes: 0,
        level: None,
        cost: None,
    };
    let trace = RequestTrace {
        trace_id: 42,
        op: TraceOp::Get,
        partition: 1,
        start_nanos: 2_000,
        total_nanos: 1_500,
        stages: vec![
            stage(SpanKind::MemtableProbe, 2_000, 2_250, 0, 0),
            stage(SpanKind::FilterConsult, 2_250, 2_500, 2, 1),
            stage(SpanKind::SsdRead, 2_500, 3_400, 1, 2),
        ],
    };
    let expected = concat!(
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
        "{\"name\": \"get\", \"cat\": \"request\", \"ph\": \"X\", ",
        "\"ts\": 2.000, \"dur\": 1.500, \"pid\": 1, \"tid\": 42, ",
        "\"args\": {\"trace_id\": 42, \"stage_nanos\": 1400}},\n",
        "{\"name\": \"memtable_probe\", \"cat\": \"stage\", \"ph\": \"X\", ",
        "\"ts\": 2.000, \"dur\": 0.250, \"pid\": 1, \"tid\": 42, ",
        "\"args\": {\"input_records\": 0, \"output_records\": 0}},\n",
        "{\"name\": \"filter_consult\", \"cat\": \"stage\", \"ph\": \"X\", ",
        "\"ts\": 2.250, \"dur\": 0.250, \"pid\": 1, \"tid\": 42, ",
        "\"args\": {\"input_records\": 2, \"output_records\": 1}},\n",
        "{\"name\": \"ssd_read\", \"cat\": \"stage\", \"ph\": \"X\", ",
        "\"ts\": 2.500, \"dur\": 0.900, \"pid\": 1, \"tid\": 42, ",
        "\"args\": {\"input_records\": 1, \"output_records\": 2}}",
        "]}\n",
    );
    assert_eq!(chrome_trace_json(&[trace]), expected);
    assert_eq!(
        chrome_trace_json(&[]),
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n"
    );
}

// -------------------------------------------------------------------
// Flight-recorder semantics
// -------------------------------------------------------------------

/// The recorder is a capped ring of [`FLIGHT_RECORDER_CAPACITY`]
/// traces: overflow evicts the oldest traces and counts the drops.
#[test]
fn recorder_ring_caps_and_counts_drops() {
    let opts = pm_blade::Options {
        trace_sample_every: 1,
        ..pm_blade::Options::default()
    };
    let db = Db::open(opts).unwrap();
    db.put(b"k", b"v").unwrap();
    let gets = FLIGHT_RECORDER_CAPACITY + 20;
    for _ in 0..gets {
        db.get(b"k").unwrap();
    }
    let traces = db.flight_recorder();
    assert_eq!(
        traces.len(),
        FLIGHT_RECORDER_CAPACITY,
        "ring keeps exactly its capacity"
    );
    // Every sampled request was filed: the put and the gets, minus
    // what the ring evicted.
    assert_eq!(db.tracer().recorded_total.get(), 1 + gets as u64);
    assert_eq!(db.tracer().recorder().dropped(), 21);
    // Oldest-to-newest ordering: engine-originated ids count up.
    let ids: Vec<u64> = traces.iter().map(|t| t.trace_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

// -------------------------------------------------------------------
// The stage-sum invariant under random workloads
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// In every mode, for every recorded trace, the summed stage
    /// durations never exceed the request latency reported to the
    /// caller — stages are measured sub-intervals of the request, not
    /// estimates — and a get or scan attributes every nanosecond.
    #[test]
    fn stage_sums_never_exceed_request_latency(
        mode in 0usize..4,
        ops in proptest::collection::vec((0u8..4, 0u64..64), 1..120),
    ) {
        let mode = [Mode::PmBlade, Mode::PmBladePm, Mode::SsdLevel0, Mode::MatrixKv][mode];
        let mut opts = tiny_options(mode);
        opts.trace_sample_every = 1;
        let db = Db::open(opts).unwrap();
        for (kind, k) in ops {
            match kind {
                0 => { db.put(&key_for(k), &value_for(k, 48)).unwrap(); }
                1 => { db.get(&key_for(k)).unwrap(); }
                2 => { db.delete(&key_for(k)).unwrap(); }
                _ => {
                    let request = ScanRequest::new().start(key_for(k)).limit(16);
                    db.scan(request.reverse(k % 3 == 0)).unwrap();
                }
            }
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        for k in 0..8u64 {
            db.get(&key_for(k)).unwrap();
        }
        let traces = db.flight_recorder();
        prop_assert!(!traces.is_empty());
        for t in traces {
            prop_assert!(t.trace_id != 0);
            prop_assert!(
                t.stage_nanos() <= t.total_nanos,
                "stages {} exceed total {} for trace {} ({:?})",
                t.stage_nanos(), t.total_nanos, t.trace_id, t.op
            );
            for s in &t.stages {
                prop_assert_eq!(s.trace_id, t.trace_id);
            }
            match t.op {
                // Gets attribute every nanosecond to the steps of their
                // walk; scans to cursor steps by source kind, and the
                // merge.
                TraceOp::Get => {
                    prop_assert_eq!(t.stage_nanos(), t.total_nanos, "{:?}", mode);
                    prop_assert_eq!(t.stages[0].kind, SpanKind::MemtableProbe);
                }
                TraceOp::Scan => {
                    prop_assert_eq!(t.stage_nanos(), t.total_nanos, "{:?}", mode);
                    prop_assert_eq!(t.stages.last().map(|s| s.kind), Some(SpanKind::Merge));
                }
                TraceOp::Write => {}
            }
        }
    }
}

// -------------------------------------------------------------------
// Zero-overhead invariant
// -------------------------------------------------------------------

/// Tracing only observes the virtual timeline. With sampling off the
/// engine records nothing; and the virtual latencies of an identical
/// workload are bit-identical whether sampling is off or total.
#[test]
fn sampling_choice_never_moves_virtual_latencies() {
    let run = |sample_every: u64| -> (Vec<u64>, u64) {
        let mut opts = tiny_options(Mode::PmBlade);
        opts.trace_sample_every = sample_every;
        let db = Db::open(opts).unwrap();
        let mut latencies = Vec::new();
        for i in 0..200u64 {
            latencies.push(db.put(&key_for(i), &value_for(i, 96)).unwrap().as_nanos());
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        for i in 0..200u64 {
            latencies.push(db.get(&key_for(i)).unwrap().latency.as_nanos());
        }
        for i in (0..200u64).step_by(10) {
            let request = ScanRequest::new().start(key_for(i)).limit(25);
            latencies.push(db.scan(request.reverse(i % 20 == 0)).unwrap().1.as_nanos());
        }
        (latencies, db.tracer().sampled_total.get())
    };
    let (off, off_sampled) = run(0);
    let (on, on_sampled) = run(1);
    assert_eq!(off_sampled, 0, "sampling off records nothing");
    assert!(
        on_sampled >= 420,
        "sampling every request records everything"
    );
    assert_eq!(
        off, on,
        "virtual latencies must be identical regardless of sampling"
    );
}
