//! Durable table lifecycle: plain reopen round-trips, WAL checkpoint
//! rotation with segment deletion, the double-replay guard, and
//! crash-injection recovery proofs against a `BTreeMap` oracle.
//!
//! The crash proptest is the acceptance bar for the manifest refactor:
//! random workloads with a fault plan that kills the virtual process at
//! a randomized durable-write boundary (optionally tearing the final
//! frame), followed by a reopen that must restore exactly the acked
//! state — every acknowledged commit survives, no deleted key
//! resurrects, and the recovered map equals the never-crashed
//! reference (modulo the one in-flight op whose group died mid-sync).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use pm_blade::{
    CompactionRequest, Db, DbError, MaintenanceMode, MetricKey, Mode, ScanRequest, TraceSpan,
};
use pmblade_integration_tests::{key_for, pm_unreferenced_bytes, tiny_options, value_for};
use pmtable::CodecMode;
use proptest::prelude::*;
use sim::FaultPlan;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per test case (unique across the process
/// so proptest cases never collide).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pmblade-dur-{}-{tag}-{n}", std::process::id()))
}

/// Full forward scan of the live keyspace as a map.
fn scan_all(db: &Db) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let (rows, _) = db.scan(ScanRequest::new()).unwrap();
    rows.into_iter().collect()
}

/// Count `wal-*.log` segments on disk.
fn wal_segments_on_disk(dir: &std::path::Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            (name.starts_with("wal-") && name.ends_with(".log")).then_some(name)
        })
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Plain reopen round-trips (no faults): write → flush → compact →
// flush → close → open → full scan parity, in every level-0 kind and
// both maintenance modes.
// ---------------------------------------------------------------------

/// Level-0 tables across every partition, by the `l0_unsorted_tables`
/// gauge (PM unsorted tables, matrix rows, SSD level-0 tables).
fn level0_tables(db: &Db) -> i64 {
    let snap = db.metrics_snapshot();
    let gauges = snap.gauges.iter();
    let level0 = gauges.filter(|(key, _)| key.name == "l0_unsorted_tables");
    level0.map(|(_, tables)| tables).sum()
}

fn reopen_round_trip(mode: Mode, maintenance: MaintenanceMode, tag: &str) {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(mode);
    opts.wal_dir = Some(dir.clone());
    opts.maintenance = maintenance;
    let (expected, tables_at_close);
    {
        let db = Db::open(opts.clone()).unwrap();
        for i in 0..400u64 {
            db.put(&key_for(i), &value_for(i, 48)).unwrap();
        }
        for i in (0..400u64).step_by(7) {
            db.delete(&key_for(i)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap();
        // Drain the background queue now: a major it ran after the
        // batch below could empty level-0 again. What follows runs
        // its maintenance inline.
        db.close();
        // A batch flushed after the major: level-0 holds tables at
        // close, so the reopen rebuilds this mode's level-0.
        for i in 400..700u64 {
            db.put(&key_for(i), &value_for(i, 48)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        // Overwrites and a tail that lives only in the WAL.
        for i in 100..140u64 {
            db.put(&key_for(i), b"rewritten").unwrap();
        }
        expected = scan_all(&db);
        assert!(!expected.is_empty());
        tables_at_close = level0_tables(&db);
        assert!(tables_at_close > 0, "{mode:?}: level-0 is empty at close");
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    assert_eq!(level0_tables(&db), tables_at_close, "{mode:?}");
    assert_eq!(
        scan_all(&db),
        expected,
        "{mode:?}: reopen must restore the full map"
    );
    // Point reads agree with the scan on both hits and tombstones.
    assert_eq!(
        db.get(&key_for(105)).unwrap().value.as_deref(),
        Some(&b"rewritten"[..])
    );
    assert_eq!(
        db.get(&key_for(430)).unwrap().value,
        Some(value_for(430, 48))
    );
    assert!(db.get(&key_for(7)).unwrap().value.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_round_trip_inline() {
    for mode in [
        Mode::PmBlade,
        Mode::PmBladePm,
        Mode::SsdLevel0,
        Mode::MatrixKv,
    ] {
        reopen_round_trip(mode, MaintenanceMode::Inline, "rt-inline");
    }
}

#[test]
fn reopen_round_trip_background() {
    reopen_round_trip(Mode::PmBlade, MaintenanceMode::Background, "rt-bg");
}

/// A directory written in one mode and opened in another: when the new
/// mode's level-0 has no container for the tables the manifest holds,
/// the open fails with `Corrupt` and names the kind it found; the two
/// PM modes share one container, so that pair opens.
#[test]
fn a_manifest_of_another_level0_kind_fails_the_open_with_corrupt() {
    let cases = [
        (Mode::PmBlade, Mode::SsdLevel0, Some("PM")),
        (Mode::MatrixKv, Mode::PmBlade, Some("matrix")),
        (Mode::SsdLevel0, Mode::MatrixKv, Some("SSD")),
        (Mode::PmBlade, Mode::PmBladePm, None),
    ];
    for (written, opened, held) in cases {
        let dir = scratch_dir("mode-change");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = tiny_options(written);
        opts.wal_dir = Some(dir.clone());
        {
            let db = Db::open(opts.clone()).unwrap();
            for i in 0..300u64 {
                db.put(&key_for(i), &value_for(i, 48)).unwrap();
            }
            db.compact(CompactionRequest::FlushAll).unwrap();
            assert!(level0_tables(&db) > 0, "{written:?}: level-0 is empty");
        }
        opts.mode = opened;
        let case = format!("{written:?} -> {opened:?}");
        match (Db::open(opts), held) {
            (Err(e), Some(kind)) => {
                assert_eq!(e.code(), 5, "{case}: {e}");
                let names = format!("holds {kind} level-0 tables");
                assert!(e.to_string().contains(&names), "{case}: {e}");
            }
            (Ok(db), None) => {
                assert_eq!(pm_unreferenced_bytes(&db), 0, "{case}");
                for i in 0..300u64 {
                    let value = db.get(&key_for(i)).unwrap().value;
                    assert_eq!(value, Some(value_for(i, 48)), "{case}: key {i}");
                }
            }
            (Err(e), None) => panic!("{case}: {e}"),
            (Ok(_), Some(kind)) => panic!("{case}: opened over {kind} level-0 tables"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Double-replay guard: an immediate second reopen replays the same
// records once, not cumulatively.
// ---------------------------------------------------------------------

#[test]
fn second_reopen_replays_once_not_cumulatively() {
    let dir = scratch_dir("double-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    // Big memtable: nothing flushes, all 64 records stay WAL-only.
    opts.memtable_bytes = 1 << 20;
    {
        let db = Db::open(opts.clone()).unwrap();
        assert_eq!(
            db.metrics_snapshot()
                .counter("recovery_wal_records_replayed"),
            0,
            "fresh directory has nothing to replay"
        );
        for i in 0..64u64 {
            db.put(&key_for(i), &value_for(i, 32)).unwrap();
        }
    }
    let first;
    {
        let db = Db::open(opts.clone()).unwrap();
        assert_eq!(pm_unreferenced_bytes(&db), 0);
        first = db
            .metrics_snapshot()
            .counter("recovery_wal_records_replayed");
        assert_eq!(first, 64, "every unflushed record replays exactly once");
        // Drop immediately: recovered records must NOT be re-logged
        // into the new active segment.
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let second = db
        .metrics_snapshot()
        .counter("recovery_wal_records_replayed");
    assert_eq!(
        second, first,
        "second reopen must replay the same records once, not cumulatively"
    );
    assert_eq!(scan_all(&db).len(), 64);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checkpoint rotation: segments older than the last flush checkpoint
// are provably deleted from disk.
// ---------------------------------------------------------------------

#[test]
fn flush_checkpoints_delete_covered_wal_segments() {
    let dir = scratch_dir("wal-prune");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    // Tiny segments so the ring rotates many times.
    opts.wal_segment_bytes = 4 << 10;
    let db = Db::open(opts).unwrap();
    for round in 0..6u64 {
        for i in 0..80u64 {
            db.put(&key_for(round * 80 + i), &value_for(i, 96)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
    }
    let snap = db.metrics_snapshot();
    let deleted = snap.counter("wal_segments_deleted_total");
    assert!(
        deleted > 0,
        "rotated segments must be pruned, saw {deleted}"
    );
    // After the final FlushAll every sealed segment is covered by a
    // checkpoint; only the active segment (plus at most one segment
    // rotated-into mid-flush) may remain.
    let on_disk = wal_segments_on_disk(&dir);
    assert!(
        on_disk.len() <= 2,
        "covered segments must be deleted, found {on_disk:?}"
    );
    assert!(snap.counter("manifest_edits_total") > 0);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A covered WAL segment that cannot be unlinked ticks
/// `media_retire_errors_total` at every prune that tries it, and stays
/// sealed: once it can be removed, the next checkpoint removes it.
#[test]
fn a_covered_wal_segment_that_cannot_be_unlinked_is_counted() {
    let dir = scratch_dir("wal-unlink");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.wal_segment_bytes = 4 << 10;
    let db = Db::open(opts).unwrap();
    let put_round = |round: u64| {
        for i in 0..40u64 {
            db.put(&key_for(round * 40 + i), &value_for(i, 96)).unwrap();
        }
    };
    put_round(0);
    let segments = wal_segments_on_disk(&dir);
    assert!(
        segments.len() >= 2,
        "a sealed segment to remove: {segments:?}"
    );
    // Behind the engine's back: the oldest segment on disk, sealed,
    // becomes a directory, which `remove_file` refuses.
    let path = dir.join(&segments[0]);
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();
    let retire_errors = |db: &Db| db.metrics_snapshot().counter("media_retire_errors_total");
    // One partition: one flush, one checkpoint, one prune that fails.
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert_eq!(retire_errors(&db), 1);
    assert!(path.is_dir(), "the failed unlink left the segment in place");
    // Still sealed: the next checkpoint tries it again.
    put_round(1);
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert_eq!(retire_errors(&db), 2);
    // Once it can go, it goes, and nothing more is counted.
    std::fs::remove_dir(&path).unwrap();
    std::fs::write(&path, b"").unwrap();
    put_round(2);
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert!(!path.exists(), "the retried segment is removed");
    assert_eq!(retire_errors(&db), 2);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Recovery observability: the durability counters and the recovery
// wall-clock histogram flow through the Prometheus exposition.
// ---------------------------------------------------------------------

#[test]
fn recovery_metrics_export_through_prometheus() {
    let dir = scratch_dir("recovery-metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    {
        let db = Db::open(opts.clone()).unwrap();
        for i in 0..200u64 {
            db.put(&key_for(i), &value_for(i, 64)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        for i in 0..20u64 {
            db.put(&key_for(1000 + i), b"tail").unwrap();
        }
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let snap = db.metrics_snapshot();
    assert!(snap.counter("manifest_edits_total") > 0);
    assert_eq!(snap.counter("recovery_wal_records_replayed"), 20);
    assert!(snap.counter("recovery_tables_reopened") > 0);
    let text = snap.to_prometheus();
    for series in [
        "pmblade_manifest_edits_total",
        "pmblade_wal_segments_deleted_total",
        "pmblade_recovery_wal_records_replayed",
        "pmblade_recovery_tables_reopened",
        "pmblade_recovery_wall_nanos",
    ] {
        assert!(
            text.contains(series),
            "{series} missing from the exposition"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// PM bytes the open below read before level-0 had a key sketch or key
/// columns. Both are rebuilt inside the pass that finds each reopened
/// table's largest sequence, so the open reads not one byte more.
const SKETCH_REOPEN_PM_BYTES_READ: u64 = 56_414;

#[test]
fn a_reopen_rebuilds_the_key_sketch_and_reads_no_more_pm() {
    let dir = scratch_dir("sketch");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    // Pinned over the CI matrix: the sketch needs filters, and the
    // bytes read depend on the codec.
    opts.pm_filter_bits_per_key = 10;
    opts.pm_codec_mode = CodecMode::Prefix;
    opts.l0_unsorted_hard_cap = 64;
    let gets = |db: &Db| -> Vec<Option<Vec<u8>>> {
        (0..320u64)
            .map(|i| db.get(&key_for(i)).unwrap().value)
            .collect()
    };
    // Scans from before, inside and past the keys, forward and reverse,
    // bounded and not: every unsorted table is held by its key column.
    let scans = |db: &Db| -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
        let from = |i| ScanRequest::new().start(key_for(i)).limit(40);
        let requests = [
            ScanRequest::new().limit(25),
            from(7),
            from(150).end(key_for(170)),
            from(299).reverse(true),
            from(120).end(key_for(200)).reverse(true),
            from(400),
        ];
        requests.map(|r| db.scan(r).unwrap().0).into()
    };
    let dram_bytes = |db: &Db| {
        let gauges = db.metrics_snapshot().gauges;
        let names = [
            "pm_l0_sketch_bytes",
            "pm_l0_key_column_bytes",
            "pm_l0_index_bytes",
        ];
        names.map(|g| gauges[&MetricKey::global(g)])
    };
    let (answers, rows, bytes);
    {
        let db = Db::open(opts.clone()).unwrap();
        // Six overlapping flushes, so every key has versions in two
        // tables, then a seventh of tombstones for every eleventh key.
        for round in 0..6u64 {
            for i in (round % 3..300).step_by(3) {
                db.put(&key_for(i), &value_for(i + round, 48)).unwrap();
            }
            db.compact(CompactionRequest::FlushAll).unwrap();
        }
        for i in (0..300u64).step_by(11) {
            db.delete(&key_for(i)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        (answers, rows, bytes) = (gets(&db), scans(&db), dram_bytes(&db));
        assert!(bytes.iter().all(|&b| b > 0));
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let read = db.metrics_snapshot().counter("pm_bytes_read");
    assert_eq!(read, SKETCH_REOPEN_PM_BYTES_READ);
    assert_eq!(
        dram_bytes(&db),
        bytes,
        "the reopen rebuilt the same sketch, merged key column and fences"
    );
    assert_eq!(gets(&db), answers);
    let probes = db.metrics_snapshot().counter("pm_l0_sketch_probes_total");
    assert_eq!(probes, 320, "every get went through the sketch");
    assert_eq!(scans(&db), rows);
    let held = db.metrics_snapshot().counter("pm_scan_tables_total");
    assert!(
        held > 0,
        "the scans held tables behind the merged key column"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every level-0 table, unsorted or in the sorted run, gets back its
/// group fences on a reopen, and they take at most a byte per level-0
/// entry. Without filters there is no sketch and no filter, so the
/// index gauge is the merged key column plus the fences.
#[test]
fn a_reopen_rebuilds_group_fences_within_a_byte_per_entry() {
    let dir = scratch_dir("fences");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.pm_filter_bits_per_key = 0;
    opts.l0_unsorted_hard_cap = 64;
    let gauge_sum = |db: &Db, name: &str| -> i64 {
        let snap = db.metrics_snapshot();
        let gauges = snap.gauges.iter().filter(|(key, _)| key.name == name);
        gauges.map(|(_, &v)| v).sum()
    };
    let fence_bytes =
        |db: &Db| gauge_sum(db, "pm_l0_index_bytes") - gauge_sum(db, "pm_l0_key_column_bytes");
    // Distinct keys, none of which leaves level-0: one entry each.
    let keys = 600u64;
    let fences;
    {
        let db = Db::open(opts.clone()).unwrap();
        for i in 0..keys {
            db.put(&key_for(i), &value_for(i, 48)).unwrap();
            if i == keys / 2 {
                db.compact(CompactionRequest::FlushAll).unwrap();
                db.compact(CompactionRequest::Internal { partition: 0 })
                    .unwrap();
            }
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        fences = fence_bytes(&db);
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    assert_eq!(
        gauge_sum(&db, "ssd_level_bytes"),
        0,
        "level-0 holds every key"
    );
    assert_eq!(fence_bytes(&db), fences, "the reopen rebuilt every fence");
    assert!(
        fences > 0 && fences as u64 <= keys,
        "{fences} fence bytes for {keys} level-0 entries"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash-injection recovery proofs.
// ---------------------------------------------------------------------

/// One workload step. Compactions are in the op stream so the fault
/// countdown can land mid-flush or mid-major.
#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Del(u16),
    Flush,
    Internal,
    Major,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..160, 0u8..=255).prop_map(|(k, v)| Op::Put(k, v)),
        3 => (0u16..160).prop_map(Op::Del),
        1 => Just(Op::Flush),
        1 => Just(Op::Internal),
        1 => Just(Op::Major),
    ]
}

fn prop_value(k: u16, v: u8) -> Vec<u8> {
    let mut out = format!("pv-{k}-{v}-").into_bytes();
    out.resize(40, b'x');
    out
}

/// Apply a workload op to the oracle (only data ops mutate it).
fn oracle_apply(oracle: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            oracle.insert(key_for(*k as u64), prop_value(*k, *v));
        }
        Op::Del(k) => {
            oracle.remove(&key_for(*k as u64));
        }
        Op::Flush | Op::Internal | Op::Major => {}
    }
}

/// Run one crash case: apply ops until the armed fault plan kills the
/// "process" (first `Err`), reopen with faults disarmed, and prove the
/// recovered state equals the acked oracle — or the acked oracle plus
/// exactly the one op whose commit died mid-sync (its group may have
/// reached the log before the crash; durability of *unacked* writes is
/// permitted, loss of *acked* ones is not).
fn run_crash_case(ops: &[Op], countdown: u64, torn: bool, maintenance: MaintenanceMode) {
    let dir = scratch_dir("crash");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::disarmed();
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.fault_plan = Some(plan.clone());
    opts.wal_segment_bytes = 2 << 10;
    opts.maintenance = maintenance;
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut failed_op: Option<Op> = None;
    {
        // Open consumes durable events itself (manifest edits, the new
        // WAL segment), so the plan arms only once the engine is up.
        let db = Db::open(opts.clone()).unwrap();
        plan.arm(countdown, torn);
        for op in ops {
            let res = match op {
                Op::Put(k, v) => db.put(&key_for(*k as u64), &prop_value(*k, *v)).map(|_| ()),
                Op::Del(k) => db.delete(&key_for(*k as u64)).map(|_| ()),
                Op::Flush => db.compact(CompactionRequest::FlushAll),
                Op::Internal => db.compact(CompactionRequest::Internal { partition: 0 }),
                Op::Major => db.compact(CompactionRequest::Major { partition: 0 }),
            };
            match res {
                Ok(()) => oracle_apply(&mut oracle, op),
                Err(_) => {
                    failed_op = Some(op.clone());
                    break;
                }
            }
        }
        // Drop with the plan still tripped: the crash freezes the disk
        // state, nothing may sneak out during close().
    }
    plan.disarm();
    let db = Db::open(opts.clone()).unwrap_or_else(|e| panic!("recovery failed: {e}"));
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let got = scan_all(&db);
    if got != oracle {
        let mut tolerant = oracle.clone();
        match &failed_op {
            Some(op) => oracle_apply(&mut tolerant, op),
            None => panic!(
                "no op failed but state diverged: got {} keys, expected {}",
                got.len(),
                oracle.len()
            ),
        }
        assert_eq!(
            got, tolerant,
            "recovered state must be the acked oracle or acked + the one in-flight op"
        );
    }
    // Point-read agreement on a sample: acked commits survive, deleted
    // keys stay dead.
    for k in (0u16..160).step_by(13) {
        let key = key_for(k as u64);
        assert_eq!(
            db.get(&key).unwrap().value,
            got.get(&key).cloned(),
            "get/scan parity after recovery for {k}"
        );
    }
    // Second life: the recovered engine writes, flushes and closes; a
    // fault-free reopen must see all of it — no log may append behind
    // the torn frame the first recovery stopped at.
    let mut acked = got;
    for i in 0..80u64 {
        db.put(&key_for(1000 + i), &value_for(i, 40)).unwrap();
        acked.insert(key_for(1000 + i), value_for(i, 40));
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.close();
    drop(db);
    let db = Db::open(opts).unwrap_or_else(|e| panic!("second recovery failed: {e}"));
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let again = scan_all(&db);
    let lost = (0..80u64)
        .filter(|&i| again.get(&key_for(1000 + i)) != Some(&value_for(i, 40)))
        .count();
    assert_eq!(
        lost, 0,
        "second reopen (countdown {countdown}, torn {torn}) lost {lost} of 80 keys"
    );
    assert_eq!(again, acked, "second reopen must restore the acked map");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Inline maintenance: compactions run on the writer thread, so
    /// the countdown lands mid-flush / mid-major deterministically.
    #[test]
    fn crash_recovery_matches_oracle_inline(
        ops in proptest::collection::vec(op_strategy(), 20..120),
        countdown in 1u64..300,
        torn in proptest::bool::ANY,
    ) {
        run_crash_case(&ops, countdown, torn, MaintenanceMode::Inline);
    }

    /// Background maintenance: flushes and majors race the writer, so
    /// the crash can hit a maintenance thread mid-install.
    #[test]
    fn crash_recovery_matches_oracle_background(
        ops in proptest::collection::vec(op_strategy(), 20..120),
        countdown in 1u64..300,
        torn in proptest::bool::ANY,
    ) {
        run_crash_case(&ops, countdown, torn, MaintenanceMode::Background);
    }
}

// ---------------------------------------------------------------------
// Encoding v2: a mixed-codec level-0 survives crash and reopen. The
// manifest logs each table's codec id; recovery must cross-check those
// against the self-describing regions, restore the exact per-table
// codec histogram, and return the acked data byte-for-byte.
// ---------------------------------------------------------------------

#[test]
fn mixed_codec_tables_survive_crash_and_reopen() {
    let dir = scratch_dir("mixed-codec");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::disarmed();
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.fault_plan = Some(plan.clone());
    // Keep all the tables: the tiny hard cap would otherwise merge the
    // mixed-codec level-0 into one re-encoded sorted run mid-test.
    opts.l0_unsorted_hard_cap = 64;
    // Auto selection is the subject here — override any forced
    // PMBLADE_TEST_CODEC the matrix run injected via tiny_options.
    opts.pm_codec_mode = CodecMode::Auto;
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut failed: Option<(Vec<u8>, Vec<u8>)> = None;
    let histogram;
    {
        let db = Db::open(opts.clone()).unwrap();
        // Two differently-shaped batches, flushed separately, so auto
        // selection encodes them with different codecs: a timeseries
        // shape (8-byte big-endian keys, fixed 8-byte values) and a
        // ragged text shape that only prefix groups can hold.
        for i in 0..256u64 {
            let key = (3_000_000_000u64 + i).to_be_bytes().to_vec();
            let value = (7_000u64 + i).to_le_bytes().to_vec();
            db.put(&key, &value).unwrap();
            oracle.insert(key, value);
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        for i in 0..120u64 {
            let key = format!("text{i:03}{}", "k".repeat((i % 7) as usize)).into_bytes();
            let value = format!("value-{}", "v".repeat((i % 9) as usize)).into_bytes();
            db.put(&key, &value).unwrap();
            oracle.insert(key, value);
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        histogram = db.l0_codec_histogram();
        assert!(
            histogram.iter().filter(|&&n| n > 0).count() >= 2,
            "auto selection must leave a mixed-codec level-0, got {histogram:?}"
        );
        // Crash mid-tail: these writes stay WAL-only (no flush after
        // arming), so no new tables form and the histogram is frozen.
        plan.arm(40, true);
        for i in 0..100u64 {
            let key = format!("tail{i:04}").into_bytes();
            if db.put(&key, b"tail-value").is_err() {
                failed = Some((key, b"tail-value".to_vec()));
                break;
            }
            oracle.insert(key, b"tail-value".to_vec());
        }
        assert!(failed.is_some(), "the armed fault plan must trip mid-tail");
    }
    plan.disarm();
    let db = Db::open(opts).unwrap_or_else(|e| panic!("mixed-codec recovery failed: {e}"));
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    assert_eq!(
        db.l0_codec_histogram(),
        histogram,
        "reopened level-0 must decode to the same per-table codecs"
    );
    let got = scan_all(&db);
    if got != oracle {
        // As in `run_crash_case`: the one in-flight op's group may have
        // reached the log before the crash.
        let mut tolerant = oracle.clone();
        let (key, value) = failed.expect("divergence without a failed op");
        tolerant.insert(key, value);
        assert_eq!(
            got, tolerant,
            "mixed-codec recovery must restore the acked map (± the in-flight op)"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pinned deterministic crash case aimed at the flush window: the
/// countdown is swept across the whole range of a fixed workload, so
/// every durable-write boundary (WAL append, PM publish, manifest
/// append, CURRENT swap) gets a crash exactly on it at least once.
#[test]
fn crash_boundary_sweep_mid_flush_and_major() {
    let mut ops = Vec::new();
    for i in 0..60u16 {
        ops.push(Op::Put(i, (i % 250) as u8));
        if i % 20 == 19 {
            ops.push(Op::Flush);
        }
    }
    ops.push(Op::Major);
    for i in 0..10u16 {
        ops.push(Op::Del(i));
    }
    ops.push(Op::Flush);
    for countdown in 1..120u64 {
        run_crash_case(&ops, countdown, countdown % 2 == 0, MaintenanceMode::Inline);
    }
}

// ---------------------------------------------------------------------
// Maintenance on failure: a flush, internal or major compaction that
// fails at any durable-write boundary — its manifest append among
// them — leaves no span in the ring and loses no acked write.
// ---------------------------------------------------------------------

#[test]
fn a_failed_maintenance_step_pushes_no_span_and_keeps_acked_data() {
    let partition = 0;
    let mut first_success = Vec::new();
    for request in [
        CompactionRequest::Flush { partition },
        CompactionRequest::Internal { partition },
        CompactionRequest::Major { partition },
    ] {
        // One fresh engine per durable-write boundary of the request,
        // until the countdown outlasts it and the request succeeds.
        let mut manifest_failed = false;
        for countdown in 0.. {
            let dir = scratch_dir("hooks");
            let _ = std::fs::remove_dir_all(&dir);
            let plan = FaultPlan::disarmed();
            let mut opts = tiny_options(Mode::PmBlade);
            opts.wal_dir = Some(dir.clone());
            opts.fault_plan = Some(plan.clone());
            // Nothing flushes or compacts unasked: two unsorted tables
            // and a memtable tail, then the armed request.
            opts.memtable_bytes = 1 << 20;
            let db = Db::open(opts.clone()).unwrap();
            let mut acked = BTreeMap::new();
            for round in 0..3u64 {
                for i in 0..60u64 {
                    let value = value_for(i + round, 48);
                    db.put(&key_for(i), &value).unwrap();
                    acked.insert(key_for(i), value);
                }
                if round < 2 {
                    db.compact(CompactionRequest::Flush { partition }).unwrap();
                }
            }
            let ring = db.metrics_snapshot().spans.len();
            plan.arm(countdown, false);
            let outcome = db.compact(request);
            if outcome.is_err() {
                // Only the two set-up flushes ever reported work.
                let worked = |s: &&TraceSpan| s.end_nanos > s.start_nanos || s.input_records > 0;
                let spans = db.compaction_log();
                assert_eq!(spans.iter().filter(worked).count(), 2, "{request:?}");
                assert_eq!(db.metrics_snapshot().spans.len(), ring, "{request:?}");
            }
            manifest_failed |=
                matches!(&outcome, Err(DbError::Io(m)) if m.starts_with("manifest:"));
            drop(db);
            plan.disarm();
            let db = Db::open(opts).unwrap();
            assert_eq!(pm_unreferenced_bytes(&db), 0);
            assert_eq!(scan_all(&db), acked, "{request:?} at {countdown}");
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            if outcome.is_ok() {
                first_success.push(countdown);
                break;
            }
        }
        assert!(manifest_failed, "{request:?}: no manifest append failed");
    }
    // The durable-write boundaries each request crosses: a flush syncs
    // the WAL, publishes a PM region and appends three manifest edits;
    // an internal and a major compaction publish, then append two.
    assert_eq!(first_success, [5, 3, 3], "crash points per request moved");
}

// ---------------------------------------------------------------------
// A failed append in a live process: the write fails part-way (here a
// torn injected write, then `disarm` with no reopen) and the process
// keeps going. The log must cut the torn bytes off before its next
// append, or replay stops at them and every later frame is lost.
// ---------------------------------------------------------------------

/// Keys not in `got`, or not at their acked value.
fn lost_keys(acked: &BTreeMap<Vec<u8>, Vec<u8>>, got: &BTreeMap<Vec<u8>, Vec<u8>>) -> usize {
    acked.iter().filter(|(k, v)| got.get(*k) != Some(v)).count()
}

#[test]
fn a_torn_wal_append_does_not_strand_later_commits() {
    let dir = scratch_dir("live-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::disarmed();
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.fault_plan = Some(plan.clone());
    // Nothing flushes: every acked key lives in the WAL alone.
    opts.memtable_bytes = 1 << 20;
    let mut acked = BTreeMap::new();
    {
        let db = Db::open(opts.clone()).unwrap();
        for i in 0..40u64 {
            if i == 20 {
                plan.arm(0, true);
                assert!(db.put(&key_for(i), b"torn").is_err());
                plan.disarm();
                continue;
            }
            db.put(&key_for(i), &value_for(i, 48)).unwrap();
            acked.insert(key_for(i), value_for(i, 48));
        }
        db.sync_wal().unwrap();
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let got = scan_all(&db);
    assert_eq!(lost_keys(&acked, &got), 0, "of {} acked keys", acked.len());
    assert_eq!(got, acked);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_manifest_append_does_not_strand_later_edits() {
    let dir = scratch_dir("live-manifest");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::disarmed();
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.fault_plan = Some(plan.clone());
    // Flushes only when asked; small segments, so each flush checkpoint
    // deletes the WAL its tables now hold.
    opts.memtable_bytes = 1 << 20;
    opts.wal_segment_bytes = 1 << 10;
    let mut acked = BTreeMap::new();
    {
        let db = Db::open(opts.clone()).unwrap();
        for round in 0..3u64 {
            for i in round * 60..round * 60 + 60 {
                db.put(&key_for(i), &value_for(i, 48)).unwrap();
                acked.insert(key_for(i), value_for(i, 48));
            }
            if round == 1 {
                // WAL sync, PM publish, then the first manifest append
                // tears; the flush fails and the process carries on.
                plan.arm(2, true);
                assert!(db.compact(CompactionRequest::FlushAll).is_err());
                plan.disarm();
            } else {
                db.compact(CompactionRequest::FlushAll).unwrap();
            }
        }
    }
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let got = scan_all(&db);
    assert_eq!(lost_keys(&acked, &got), 0, "of {} acked keys", acked.len());
    assert_eq!(got, acked);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The bytes on disk: everything a fixed Inline workload leaves under
// `wal_dir` — WAL segments, manifest, `CURRENT`, PM regions, SSTables.
// ---------------------------------------------------------------------

#[test]
fn wal_dir_bytes_are_pinned() {
    let dir = scratch_dir("wal-dir-bytes");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.wal_segment_bytes = 4 << 10;
    // What the bytes of a PM region depend on, fixed against the
    // read-path matrix's environment overrides.
    opts.pm_codec_mode = CodecMode::Prefix;
    opts.pm_filter_bits_per_key = 10;
    {
        let db = Db::open(opts).unwrap();
        for i in 0..600u64 {
            db.put(&key_for(i * 7 % 600), &value_for(i, 48)).unwrap();
        }
        for i in (0..600u64).step_by(11) {
            db.delete(&key_for(i)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Internal { partition: 0 })
            .unwrap();
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap();
        // A PM region on top of level 1, and a WAL-only tail.
        for i in 0..120u64 {
            db.put(&key_for(i * 3), b"flushed").unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        for i in 0..40u64 {
            db.put(&key_for(i), b"tail").unwrap();
        }
        db.close();
    }
    // CRC32C over every file's path below `dir` and bytes, in path
    // order. Last recorded when the PM and SSTable filter sections
    // became the blocked filter's lines: the WAL segment and `CURRENT`
    // kept their bytes; the regions, the SSTable and the manifest's
    // table sizes moved.
    let mut files = Vec::new();
    let mut pending = vec![dir.clone()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut crc = 0;
    for path in &files {
        let name = path.strip_prefix(&dir).unwrap().to_string_lossy();
        crc = encoding::crc::extend(crc, name.as_bytes());
        crc = encoding::crc::extend(crc, &std::fs::read(path).unwrap());
    }
    let names: Vec<_> = files
        .iter()
        .map(|p| p.strip_prefix(&dir).unwrap())
        .collect();
    assert_eq!((files.len(), crc), (6, 4_162_192_921), "{names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Read faults: an SSTable that cannot be read fails the scan or the
// compaction that needs it — it is never skipped, and no compaction
// input is deleted after a failed merge.
// ---------------------------------------------------------------------

#[test]
fn unreadable_sstable_fails_scans_and_majors_and_keeps_every_input() {
    for mode in [
        Mode::PmBlade,
        Mode::PmBladePm,
        Mode::SsdLevel0,
        Mode::MatrixKv,
    ] {
        // The bad block is the first of level 1, or its very last: a
        // streaming major compaction reaches that one with all but one
        // of its output tables already finished.
        for late in [false, true] {
            read_fault_case(mode, late);
        }
    }
}

fn read_fault_case(mode: Mode, late: bool) {
    let dir = scratch_dir("readfault");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(mode);
    opts.wal_dir = Some(dir.clone());
    // Level 1 is a run of about fifteen tables.
    opts.max_table_bytes = 16 << 10;
    {
        let db = Db::open(opts.clone()).unwrap();
        for i in 0..3000u64 {
            db.put(&key_for(i), &value_for(i, 64)).unwrap();
        }
        db.compact(CompactionRequest::FlushAll).unwrap();
        db.compact(CompactionRequest::Major { partition: 0 })
            .unwrap();
        db.close();
    }
    // Behind the engine's back: flip a byte in one data block of one
    // level-1 table. Footer, filter and index stay intact, so the table
    // reopens; reading that block fails its checksum.
    let device = ssd_dir_listing(&dir);
    assert!(device.len() >= 8, "{mode:?}: level 1 holds {device:?}");
    let victim = if late {
        &device[device.len() - 1]
    } else {
        &device[0]
    };
    let path = dir.join("ssd").join(victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = if late {
        // The footer's first field is where the data blocks end.
        let footer = bytes.len() - 28;
        u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize - 16
    } else {
        16
    };
    bytes[at] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();

    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    let counter = |name: &str| db.metrics_snapshot().counter(name);
    let scan = db.scan(ScanRequest::new());
    assert!(
        scan.is_err(),
        "{mode:?}: scan over a corrupt block must fail"
    );
    assert_eq!(counter("ssd_read_errors_total"), 1, "{mode:?}");
    // A scan that stays clear of the bad block still works.
    let clear = if late { 0 } else { 2990 };
    let request = ScanRequest::new().start(key_for(clear)).limit(10);
    assert_eq!(db.scan(request).unwrap().0.len(), 10, "{mode:?}");

    // New versions across the whole key range, flushed to level-0:
    // the next major compaction needs every level-1 table as input.
    for i in (0..3000u64).step_by(100).chain([2999]) {
        db.put(&key_for(i), b"newer").unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    let tables_before = db.ssd().list();
    let pm_before = db.pm_used();
    let written_before = db.ssd().stats().bytes_written.get();
    let major = db.compact(CompactionRequest::Major { partition: 0 });
    assert!(
        major.is_err(),
        "{mode:?}: major over a corrupt input must fail"
    );
    assert_eq!(counter("compaction_input_errors_total"), 1, "{mode:?}");
    if late {
        let written = db.ssd().stats().bytes_written.get() - written_before;
        assert!(
            written > 8 * (16 << 10),
            "{mode:?}: the merge had written {written} B of output when it failed"
        );
    }
    assert_eq!(
        db.ssd().list(),
        tables_before,
        "{mode:?}: no input deleted, no output left behind"
    );
    assert_eq!(db.pm_used(), pm_before, "{mode:?}: level-0 still in place");
    // Both sides of the failed merge are still served.
    assert_eq!(
        db.get(&key_for(100)).unwrap().value.as_deref(),
        Some(&b"newer"[..])
    );
    let old = if late { 1501 } else { 2998 };
    assert_eq!(
        db.get(&key_for(old)).unwrap().value,
        Some(value_for(old, 64)),
        "{mode:?}"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retired level-1 table whose backing file cannot be unlinked: the
/// major that retired it still succeeds, every key reads back, the
/// failed unlink is counted in `media_retire_errors_total`, and the
/// next open skips the leftover and reads every key back again.
#[test]
fn a_retired_table_that_cannot_be_unlinked_is_counted() {
    let dir = scratch_dir("retire");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = tiny_options(Mode::PmBlade);
    opts.wal_dir = Some(dir.clone());
    opts.max_table_bytes = 16 << 10;
    let db = Db::open(opts.clone()).unwrap();
    for i in 0..3000u64 {
        db.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    let level1 = ssd_dir_listing(&dir);
    assert!(level1.len() >= 8, "level 1 holds {level1:?}");
    // Behind the engine's back: one table's file becomes a directory,
    // which `remove_file` refuses. The device still holds its bytes.
    let path = dir.join("ssd").join(&level1[0]);
    std::fs::remove_file(&path).unwrap();
    std::fs::create_dir(&path).unwrap();

    // New versions across the whole key range: the next major retires
    // every level-1 table.
    let newer = |i: u64| i.is_multiple_of(100) || i == 2999;
    for i in (0..3000u64).filter(|&i| newer(i)) {
        db.put(&key_for(i), b"newer").unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    db.compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    let live = db.ssd().list();
    assert!(
        level1.iter().all(|name| !live.contains(name)),
        "every level-1 table retired: {live:?}"
    );
    assert_eq!(
        db.metrics_snapshot().counter("media_retire_errors_total"),
        1
    );
    assert!(path.is_dir(), "the failed unlink left the file in place");
    let read_back = |db: &Db| {
        for i in 0..3000u64 {
            let want = if newer(i) {
                b"newer".to_vec()
            } else {
                value_for(i, 64)
            };
            assert_eq!(db.get(&key_for(i)).unwrap().value, Some(want), "key {i}");
        }
    };
    read_back(&db);
    drop(db);
    // The directory holds no object, so the next open skips it.
    let db = Db::open(opts).unwrap();
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    read_back(&db);
    assert!(path.is_dir());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An internal compaction whose new run does not fit the pool falls
/// back to a major compaction. The tables it had published before the
/// pool filled up are freed, not leaked: once the major has drained
/// level-0 the pool is empty.
#[test]
fn internal_compaction_that_runs_out_of_pm_leaves_no_region_behind() {
    let mut opts = tiny_options(Mode::PmBlade);
    opts.pm_capacity = 256 << 10;
    opts.max_table_bytes = 16 << 10;
    // No trigger fires on its own.
    (opts.tau_w, opts.tau_m, opts.tau_t) = (usize::MAX, opts.pm_capacity, opts.pm_capacity);
    opts.l0_unsorted_hard_cap = usize::MAX;
    let db = Db::open(opts).unwrap();
    // Distinct keys: the merged run is as large as its inputs, which
    // already fill more than half the pool.
    for i in 0..1500u64 {
        db.put(&key_for(i), &value_for(i, 100)).unwrap();
    }
    db.compact(CompactionRequest::FlushAll).unwrap();
    assert!(db.pm_used() > 128 << 10, "level-0 holds {}", db.pm_used());
    let written = |db: &Db| db.metrics_snapshot().counter("pm_bytes_written");
    let written_before = written(&db);
    db.compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();
    assert!(
        written(&db) > written_before,
        "part of the new run was published before the pool filled up"
    );
    let counter = |name: &str| db.metrics_snapshot().counter(name);
    assert_eq!(counter("internal_out_of_pm_fallbacks"), 1);
    assert_eq!(counter("internal_compactions"), 0);
    assert_eq!(counter("major_compactions"), 1);
    assert_eq!(counter("media_retire_errors_total"), 0);
    assert_eq!(
        db.pm_used(),
        0,
        "level-0 moved down and nothing else is held"
    );
    assert_eq!(pm_unreferenced_bytes(&db), 0);
    for i in 0..1500u64 {
        assert_eq!(db.get(&key_for(i)).unwrap().value, Some(value_for(i, 100)));
    }
}

/// Object names in the durable SSD directory, ascending.
fn ssd_dir_listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("ssd"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}
