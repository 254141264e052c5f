//! Every engine mode (PMBlade, PMBlade-PM, SSD level-0, MatrixKV) must
//! agree on *what* the data is — they may only differ in *where* it
//! lives and what it costs. The same holds across the two
//! [`MaintenanceMode`]s: Inline and Background may schedule compactions
//! differently, but never disagree on contents.

use pm_blade::{
    CompactionRequest, Db, MaintenanceMode, Mode, Partitioner, ScanRequest, SpanKind, TraceSpan,
};
use pmblade_integration_tests::{key_for, pm_unreferenced_bytes, tiny_db, tiny_options, value_for};

const ALL_MODES: [Mode; 4] = [
    Mode::PmBlade,
    Mode::PmBladePm,
    Mode::SsdLevel0,
    Mode::MatrixKv,
];

fn drive(db: &mut Db, seed: u64, ops: usize) {
    let mut rng = sim::Pcg64::seeded(seed);
    for _ in 0..ops {
        let i = rng.next_below(600);
        match rng.next_below(10) {
            0 => {
                db.delete(&key_for(i)).unwrap();
            }
            _ => {
                let version = rng.next_below(1_000);
                db.put(&key_for(i), &value_for(i * 7 + version, 120))
                    .unwrap();
            }
        }
    }
}

#[test]
fn all_modes_agree_on_contents() {
    let mut reference: Option<Vec<Option<Vec<u8>>>> = None;
    for mode in ALL_MODES {
        let mut db = tiny_db(mode);
        drive(&mut db, 42, 4_000);
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert_eq!(pm_unreferenced_bytes(&db), 0, "{mode:?}");
        let view: Vec<Option<Vec<u8>>> = (0..600u64)
            .map(|i| db.get(&key_for(i)).unwrap().value)
            .collect();
        match &reference {
            None => reference = Some(view),
            Some(expect) => {
                for (i, (a, b)) in expect.iter().zip(&view).enumerate() {
                    assert_eq!(a, b, "mode {mode:?} disagrees on key {i}");
                }
            }
        }
    }
}

/// A fixed workload must produce the identical final key/value state
/// whether maintenance ran inline at the trigger points or on the
/// background workers. `close()` drains the queue before the final
/// flush, so the Background run is fully settled when compared.
#[test]
fn inline_and_background_agree_on_contents() {
    let mut reference: Option<Vec<Option<Vec<u8>>>> = None;
    for maintenance in [MaintenanceMode::Inline, MaintenanceMode::Background] {
        let mut opts = tiny_options(Mode::PmBlade);
        opts.maintenance = maintenance;
        let mut db = Db::open(opts).expect("engine opens");
        drive(&mut db, 42, 4_000);
        db.close();
        db.compact(CompactionRequest::FlushAll).unwrap();
        assert_eq!(pm_unreferenced_bytes(&db), 0, "{maintenance:?}");
        let view: Vec<Option<Vec<u8>>> = (0..600u64)
            .map(|i| db.get(&key_for(i)).unwrap().value)
            .collect();
        match &reference {
            None => reference = Some(view),
            Some(expect) => {
                for (i, (a, b)) in expect.iter().zip(&view).enumerate() {
                    assert_eq!(a, b, "{maintenance:?} disagrees on key {i}");
                }
            }
        }
    }
}

#[test]
fn all_modes_agree_on_scans() {
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for mode in ALL_MODES {
        let mut db = tiny_db(mode);
        drive(&mut db, 99, 2_500);
        let (rows, _) = db
            .scan(
                ScanRequest::new()
                    .start(key_for(100))
                    .end(key_for(400))
                    .limit(10_000),
            )
            .unwrap();
        match &reference {
            None => reference = Some(rows),
            Some(expect) => {
                assert_eq!(expect, &rows, "mode {mode:?} scan differs");
            }
        }
    }
}

#[test]
fn pm_modes_use_pm_and_ssd_mode_does_not() {
    for mode in ALL_MODES {
        let db = tiny_db(mode);
        for i in 0..500u64 {
            db.put(&key_for(i), &value_for(i, 200)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        match mode {
            Mode::SsdLevel0 => {
                assert_eq!(db.pm_used(), 0, "{mode:?} must not touch PM")
            }
            _ => assert!(db.pm_used() > 0, "{mode:?} must use PM"),
        }
    }
}

#[test]
fn write_amplification_ordering_between_modes() {
    // The paper's central WA claim at miniature scale: with a dataset
    // larger than PM, PM-Blade writes less to the SSD than the
    // RocksDB-like configuration.
    let mut ssd_mode = tiny_db(Mode::SsdLevel0);
    let mut blade = tiny_db(Mode::PmBlade);
    for db in [&mut ssd_mode, &mut blade] {
        let mut rng = sim::Pcg64::seeded(7);
        for _ in 0..6_000 {
            let i = rng.next_below(1_500);
            db.put(&key_for(i), &value_for(i, 300)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let ssd_wa = ssd_mode.write_amp();
    let blade_wa = blade.write_amp();
    let (ssd_writes, blade_ssd) = (ssd_wa.ssd_bytes, blade_wa.ssd_bytes);
    assert_eq!(ssd_wa.user_bytes, blade_wa.user_bytes);
    assert!(
        blade_ssd < ssd_writes,
        "pm-blade ssd bytes {blade_ssd} must undercut rocksdb-like {ssd_writes}"
    );
}

#[test]
fn matrixkv_costs_more_to_flush_than_pmblade() {
    // The matrix container's construction overhead (cross-hints) makes
    // its minor compactions slower — the reason it loses the YCSB Load
    // race in Fig 12.
    let mut blade = tiny_db(Mode::PmBlade);
    let mut matrix = tiny_db(Mode::MatrixKv);
    for db in [&mut blade, &mut matrix] {
        for i in 0..1_000u64 {
            db.put(&key_for(i), &value_for(i, 256)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let flush_time = |db: &Db| -> sim::SimDuration {
        db.compaction_log()
            .iter()
            .filter(|e| e.kind == SpanKind::Flush)
            .map(|e| e.duration())
            .sum()
    };
    assert!(flush_time(&matrix) > flush_time(&blade));
}

/// The virtual clock and the device byte counters a fixed write-only
/// stream ends on, per mode: `(mode, now_nanos, pm_bytes_written,
/// ssd_bytes_written, ssd_bytes_read)`. They move only when the work a
/// compaction does moves: what it reads, where its output lands, what
/// it writes — or, the clock alone, when what a put is charged moves. A
/// compaction rewrite may change how the host gets there, never where
/// the virtual clock ends up.
/// Last moved when PM and SSTable filter sections became whole 64-byte
/// lines: each table's filter is up to 63 bytes longer.
const WRITE_ONLY_PARITY: [(Mode, u64, u64, u64, u64); 4] = [
    (Mode::PmBlade, 167_906_214, 46_823_067, 3_073_862, 1_162_090),
    (
        Mode::PmBladePm,
        263_830_416,
        3_077_416,
        25_546_958,
        22_623_400,
    ),
    (Mode::SsdLevel0, 353_199_367, 0, 28_902_310, 25_978_007),
    (Mode::MatrixKv, 68_078_924, 3_731_506, 3_555_552, 952_630),
];

#[test]
fn write_only_stream_ends_on_the_recorded_virtual_clock_in_every_mode() {
    let got = WRITE_ONLY_PARITY.map(|(mode, ..)| {
        // Every knob that shapes the compaction sequence is pinned
        // here, not taken from `tiny_options`: the CI matrix's
        // `PMBLADE_TEST_*` overrides must not move the constants.
        let db = Db::open(pm_blade::Options {
            mode,
            // Room for an internal compaction's new run beside its
            // inputs: one that runs out of PM falls back to a major
            // compaction, and where that happens is not what is pinned.
            pm_capacity: 4 << 20,
            memtable_bytes: 8 << 10,
            tau_w: 64 << 10,
            tau_m: 1 << 20,
            tau_t: 512 << 10,
            l1_target: 96 << 10,
            max_table_bytes: 24 << 10,
            block_cache_bytes: 256 << 10,
            l0_unsorted_hard_cap: 8,
            pm_filter_bits_per_key: 10,
            pm_group_cache_bytes: 4 << 20,
            pm_codec_mode: pmtable::CodecMode::Auto,
            trace_sample_every: 0,
            ..pm_blade::Options::default()
        })
        .unwrap();
        // Overwrites, deletes and fresh keys in a fixed scrambled order.
        let mut user_bytes = 0;
        for i in 0..40_000u64 {
            let key = key_for((i * 7919) % 25_000);
            if i % 13 == 0 {
                db.delete(&key).unwrap();
                user_bytes += key.len();
            } else {
                let value = value_for(i, 40 + (i % 60) as usize);
                db.put(&key, &value).unwrap();
                user_bytes += key.len() + value.len();
            }
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        let stats = db.stats();
        assert!(stats.minor_compactions.get() > 100, "{mode:?}");
        assert!(stats.major_compactions.get() > 1, "{mode:?}");
        if mode == Mode::PmBlade {
            assert!(stats.internal_compactions.get() > 1);
        }
        let tables = db.ssd().list();
        assert!(
            tables
                .iter()
                .any(|name| name.contains("-L2-") || name.contains("-L3-")),
            "{mode:?}: no major landed below level 1: {tables:?}"
        );
        let amp = db.write_amp();
        assert_eq!(amp.user_bytes, user_bytes as u64, "{mode:?}");
        let ssd_read = db.ssd().stats().bytes_read.get();
        (
            mode,
            db.now().as_nanos(),
            amp.pm_bytes,
            amp.ssd_bytes,
            ssd_read,
        )
    });
    assert_eq!(got, WRITE_ONLY_PARITY);
}

fn fold_span(out: &mut Vec<u8>, s: &TraceSpan) {
    let fields = [
        s.kind as u64,
        s.partition as u64,
        s.start_nanos,
        s.end_nanos,
        s.input_records,
        s.output_records,
        s.input_bytes,
        s.output_bytes,
        s.level.map_or(u64::MAX, |level| level as u64),
        s.cost.is_some() as u64,
        s.trace_id,
    ];
    out.extend(fields.iter().flat_map(|f| f.to_le_bytes()));
}

/// CRC32C over every ring span of a fixed two-partition stream, in
/// ring order, per mode. A rewrite of the maintenance path may change
/// how the spans are produced, never which spans, in which order, with
/// which numbers. Span ids are left out: they number the spans, they
/// do not describe the work; a span's SSD level is folded in.
/// Last moved when every table filter became one blocked line: spans
/// carry the new tables' bytes, and gets the one-line filter charge.
const SPAN_SEQUENCE_PINS: [(Mode, u32); 4] = [
    (Mode::PmBlade, 3_457_733_166),
    (Mode::PmBladePm, 3_853_831_906),
    (Mode::MatrixKv, 2_901_122_417),
    (Mode::SsdLevel0, 658_463_198),
];

#[test]
fn maintenance_span_sequence_is_pinned_in_every_mode() {
    let got = SPAN_SEQUENCE_PINS.map(|(mode, _)| {
        // Pinned here, not taken from `tiny_options`: every knob that
        // shapes the compaction sequence and every knob the CI matrix's
        // `PMBLADE_TEST_*` overrides can move.
        let opts = pm_blade::Options {
            partitioner: Partitioner(vec![key_for(4_000)]),
            pm_capacity: 384 << 10,
            tau_w: 24 << 10,
            tau_m: 288 << 10,
            tau_t: 96 << 10,
            l1_target: 64 << 10,
            max_table_bytes: 24 << 10,
            pm_filter_bits_per_key: 10,
            pm_group_cache_bytes: 4 << 20,
            pm_codec_mode: pmtable::CodecMode::Auto,
            trace_sample_every: 64,
            event_log_capacity: 1 << 16,
            ..tiny_options(mode)
        };
        let db = Db::open(opts).unwrap();
        // Partition 0 takes zipf overwrites (Eq 2) and, in the middle
        // third, a read after every third write (Eq 1); partition 1
        // takes fresh keys only, so nothing but the hard cap merges it.
        // Eq 1's rate is reads per virtual second: a read after every
        // write, on the clock of majors that write each byte once, fires
        // it so often that PM never reaches τ_m and Eq 3 never runs.
        let mut rng = sim::Pcg64::seeded(22);
        let zipf = workloads::KeyDistribution::zipfian(4_000, 0.9);
        for i in 0..6_000u64 {
            let key = match i % 4 {
                0 => key_for(4_000 + i),
                _ => key_for(zipf.sample(&mut rng, 4_000)),
            };
            let value = value_for(i, 100 + (i % 80) as usize);
            db.put(&key, &value).unwrap();
            if (2_000..4_000).contains(&i) && i % 3 == 0 {
                db.get(&key_for(zipf.sample(&mut rng, 4_000))).unwrap();
            }
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        let snap = db.metrics_snapshot();
        assert_eq!(snap.spans_dropped, 0, "{mode:?}");
        let sum = |kind, of: fn(&TraceSpan) -> u64| -> u64 {
            let spans = snap.spans.iter().filter(|s| s.kind == kind);
            spans.map(of).sum()
        };
        assert!(sum(SpanKind::Flush, |_| 1) > 50, "{mode:?}");
        assert!(sum(SpanKind::Major, |_| 1) > 2, "{mode:?}");
        assert!(snap.spans.iter().any(|s| s.trace_id != 0), "{mode:?}");
        // A major moves level-0 records, and only flushes bring those.
        let [moved, flushed] =
            [SpanKind::Major, SpanKind::Flush].map(|kind| sum(kind, |s| s.input_records));
        assert!(moved <= flushed, "{mode:?}: {moved} > {flushed}");
        let tables = db.ssd().list();
        let deeper = tables.iter().any(|t| t.contains("-L2-"));
        assert!(
            deeper,
            "{mode:?}: no major landed below level 1: {tables:?}"
        );
        assert_eq!(pm_unreferenced_bytes(&db), 0, "{mode:?}");
        if mode == Mode::PmBlade {
            let fired = |rule| snap.counter(rule) > 0;
            assert!(fired("cost_eq1_triggers") && fired("cost_eq2_triggers"));
            assert!(fired("cost_hard_cap_triggers") && fired("cost_retention_passes"));
            // An internal compaction ran out of PM and a major ran in
            // its place.
            assert!(
                fired("internal_out_of_pm_fallbacks"),
                "no internal compaction fell back to a major"
            );
        }
        let mut bytes = Vec::new();
        snap.spans
            .iter()
            .for_each(|span| fold_span(&mut bytes, span));
        (mode, encoding::crc::crc32c(&bytes))
    });
    assert_eq!(got, SPAN_SEQUENCE_PINS);
}
