//! Shared-handle concurrency: many writers and readers drive one
//! `Arc<Db>` while compactions run, and nothing is lost or torn.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pm_blade::{
    CompactionRequest, Db, MaintenanceMode, MetricKey, Mode, Options, Partitioner, ScanRequest,
    SimDuration, WriteBatch,
};
use proptest::prelude::*;

// `Db` must be shareable across threads without wrappers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Db>();
    assert_send_sync::<Arc<Db>>();
};

fn small_opts() -> Options {
    Options {
        mode: Mode::PmBlade,
        pm_capacity: 4 << 20,
        memtable_bytes: 8 << 10,
        tau_w: 16 << 10,
        tau_m: 3 << 20,
        tau_t: 1 << 20,
        l1_target: 256 << 10,
        max_table_bytes: 64 << 10,
        ..Options::default()
    }
}

/// The headline smoke test: 4 writers, 4 readers, and a thread issuing
/// manual compactions, all through one `Arc<Db>`. Afterwards every
/// write is present with its final value.
#[test]
fn writers_readers_and_compactions_share_one_handle() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const KEYS_PER_WRITER: usize = 400;
    const ROUNDS: usize = 3;

    let db = Arc::new(Db::open(small_opts()).unwrap());
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Writers: each owns a disjoint key space and overwrites it
        // ROUNDS times, so the final expected value is deterministic.
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..KEYS_PER_WRITER {
                        let k = format!("w{w}-{i:06}");
                        let v = format!("r{round}");
                        db.put(k.as_bytes(), v.as_bytes()).unwrap();
                    }
                }
            });
        }
        // Readers: hammer random keys; every observed value must be one
        // a writer actually wrote (no torn reads).
        for r in 0..READERS {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let k = format!("w{}-{:06}", (i + r) % WRITERS, i % KEYS_PER_WRITER);
                    let out = db.get(k.as_bytes()).unwrap();
                    if let Some(v) = out.value {
                        assert!(v.len() == 2 && v[0] == b'r', "torn value {v:?} for {k}");
                    }
                    i += 1;
                }
            });
        }
        // Compactor: keep forcing flushes and compactions during the
        // writes.
        let compactor = {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    db.compact(CompactionRequest::Flush { partition: 0 })
                        .unwrap();
                    db.compact(CompactionRequest::Internal { partition: 0 })
                        .unwrap();
                    db.compact(CompactionRequest::Major { partition: 0 })
                        .unwrap();
                    std::thread::yield_now();
                }
            })
        };
        // Wait for writers by spawning them first; the scope joins all
        // threads, so signal the loops once writers are finished. The
        // writer handles are implicitly joined by the scope: emulate a
        // barrier with a monitor thread counting completed puts.
        let db2 = Arc::clone(&db);
        let done2 = Arc::clone(&done);
        s.spawn(move || {
            let target = (WRITERS * KEYS_PER_WRITER * ROUNDS) as u64;
            while db2.stats().puts.get() < target {
                std::thread::yield_now();
            }
            done2.store(true, Ordering::Relaxed);
        });
        compactor.join().unwrap();
    });

    // No lost writes: every key holds its final round's value.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let k = format!("w{w}-{i:06}");
            let out = db.get(k.as_bytes()).unwrap();
            assert_eq!(
                out.value.as_deref(),
                Some(format!("r{}", ROUNDS - 1).as_bytes()),
                "key {k} lost or stale"
            );
        }
    }
    assert_eq!(
        db.stats().puts.get(),
        (WRITERS * KEYS_PER_WRITER * ROUNDS) as u64
    );
}

/// Group commit coalesces concurrent writers: with heavy parallel
/// traffic, the number of commit groups must undercut the number of
/// write operations carried (followers ride leaders' groups).
#[test]
fn group_commit_batches_concurrent_writers() {
    let db = Arc::new(Db::open(small_opts()).unwrap());
    std::thread::scope(|s| {
        for t in 0..8 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..300 {
                    let k = format!("g{t}-{i:05}");
                    db.put(k.as_bytes(), b"v").unwrap();
                }
            });
        }
    });
    let groups = db.stats().group_commits.get();
    let grouped = db.stats().grouped_writes.get();
    assert_eq!(grouped, 8 * 300, "every write rode exactly one group");
    assert!(groups >= 1);
    // Coalescing is scheduling-dependent, but it can never exceed one
    // group per write; on any real scheduler some followers get batched.
    assert!(groups <= grouped);
}

/// Batches spanning several partitions land atomically per partition
/// even while other threads write to the same partitions.
#[test]
fn cross_partition_batches_survive_concurrent_traffic() {
    let mut opts = small_opts();
    opts.partitioner = Partitioner(vec![b"m".to_vec()]);
    let db = Arc::new(Db::open(opts).unwrap());
    std::thread::scope(|s| {
        for t in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..200 {
                    let mut batch = WriteBatch::new();
                    batch
                        .put(format!("a{t}-{i:05}"), format!("{t}:{i}"))
                        .put(format!("z{t}-{i:05}"), format!("{t}:{i}"));
                    db.write_batch(batch).unwrap();
                }
            });
        }
    });
    for t in 0..4 {
        for i in 0..200 {
            let want = format!("{t}:{i}");
            for prefix in ["a", "z"] {
                let k = format!("{prefix}{t}-{i:05}");
                assert_eq!(
                    db.get(k.as_bytes()).unwrap().value.as_deref(),
                    Some(want.as_bytes()),
                    "lost {k}"
                );
            }
        }
    }
}

/// Background maintenance keeps major compactions off the write path:
/// concurrent writers drive enough traffic to force majors (tight τ_m),
/// and afterwards no write's recorded virtual latency reaches the size
/// of the cheapest real major compaction — a whole one, not one chunk
/// of it: a chunk moving a last small table can cost less than one
/// slowdown penalty. Backpressure thresholds are set generously so only
/// the maintenance offload — not throttling — is being measured.
#[test]
fn background_writers_never_pay_major_compaction_latency() {
    let mut opts = small_opts();
    opts.maintenance = MaintenanceMode::Background;
    opts.tau_m = 256 << 10;
    opts.tau_t = 128 << 10;
    opts.l0_stall_trigger = 128;
    opts.memtable_stall_debt = 64;
    let db = Arc::new(Db::open(opts).unwrap());
    let mut max_write = SimDuration::ZERO;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let mut worst = SimDuration::ZERO;
                    for i in 0..1500 {
                        let k = format!("bg{w}-{i:06}");
                        let v = "x".repeat(100);
                        worst = worst.max(db.put(k.as_bytes(), v.as_bytes()).unwrap());
                    }
                    worst
                })
            })
            .collect();
        for h in handles {
            max_write = max_write.max(h.join().unwrap());
        }
    });
    db.close();
    assert!(
        db.stats().major_compactions.get() >= 1,
        "workload must force majors for the assertion to mean anything"
    );
    // A background major moves level-0 in chunks, one span each, until
    // level-0 is empty; flushes landing between its chunks only extend
    // it. So a partition's Major spans with nothing but flushes between
    // them are one major: sum them.
    let mut majors: Vec<SimDuration> = Vec::new();
    let mut open = std::collections::HashMap::new();
    for e in db.compaction_log() {
        match e.kind {
            pm_blade::SpanKind::Major => {
                let at = *open.entry(e.partition).or_insert_with(|| {
                    majors.push(SimDuration::ZERO);
                    majors.len() - 1
                });
                majors[at] += e.duration();
            }
            pm_blade::SpanKind::Flush => {}
            _ => drop(open.remove(&e.partition)),
        }
    }
    let cheapest_major = majors
        .into_iter()
        .filter(|&d| d > SimDuration::ZERO)
        .min()
        .expect("at least one major ran");
    assert!(
        max_write < cheapest_major,
        "a write paid compaction-sized latency: {max_write:?} >= {cheapest_major:?}"
    );
    // The generous thresholds mean no write should have hard-stalled.
    assert_eq!(db.metrics_snapshot().counter("write_stalls"), 0);
    // Nothing lost.
    for w in 0..4 {
        for i in (0..1500).step_by(83) {
            let k = format!("bg{w}-{i:06}");
            assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "lost {k}");
        }
    }
}

/// `close()` drains the queue: every enqueued job (and the follow-ups
/// running jobs generate) completes before the workers join, the
/// counters reconcile, and the engine stays usable afterwards via the
/// inline fallback.
#[test]
fn close_drains_the_maintenance_queue() {
    let mut opts = small_opts();
    opts.maintenance = MaintenanceMode::Background;
    let db = Db::open(opts).unwrap();
    for i in 0..2000 {
        let k = format!("drain-{i:06}");
        let v = "y".repeat(64);
        db.put(k.as_bytes(), v.as_bytes()).unwrap();
    }
    db.close();
    let snap = db.metrics_snapshot();
    assert_eq!(
        snap.gauges[&MetricKey::global("maintenance_queue_depth")],
        0
    );
    assert_eq!(
        snap.gauges[&MetricKey::global("maintenance_jobs_inflight")],
        0
    );
    assert_eq!(
        snap.counter("maintenance_jobs_enqueued"),
        snap.counter("maintenance_jobs_completed") + snap.counter("maintenance_jobs_failed"),
        "every accepted job must be accounted for after close"
    );
    assert_eq!(snap.counter("maintenance_jobs_failed"), 0);
    assert!(snap.counter("maintenance_jobs_enqueued") >= 1);
    for i in (0..2000).step_by(131) {
        let k = format!("drain-{i:06}");
        assert!(db.get(k.as_bytes()).unwrap().value.is_some(), "lost {k}");
    }
    // Post-close writes run their maintenance inline and still land.
    let minors = db.stats().minor_compactions.get();
    for i in 0..600 {
        let k = format!("late-{i:06}");
        let v = "z".repeat(64);
        db.put(k.as_bytes(), v.as_bytes()).unwrap();
    }
    assert!(db.stats().minor_compactions.get() > minors);
    // close() is idempotent.
    db.close();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]

    /// WriteBatch atomicity against concurrent scans: one writer
    /// applies numbered batches that rewrite a fixed key set, all in one
    /// partition; a reader scanning the set must observe every key at
    /// the *same* batch number — never a mix. A scan holds the
    /// partition read lock for its whole pass, and the commit leader
    /// applies a group under one write lock.
    ///
    /// The memtable is sized so no flush happens: batch visibility is
    /// what is under test.
    #[test]
    fn write_batch_is_atomic_under_concurrent_scans(
        keys in 2usize..6,
        rounds in 5u32..25,
    ) {
        let mut opts = small_opts();
        opts.memtable_bytes = 4 << 20;
        let db = Arc::new(Db::open(opts).unwrap());
        let key_names: Vec<String> =
            (0..keys).map(|i| format!("atomic-{i:02}")).collect();
        // Seed round 0 so readers always find every key.
        let mut seed = WriteBatch::new();
        for k in &key_names {
            seed.put(k.clone(), "00000000");
        }
        db.write_batch(seed).unwrap();

        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let db = Arc::clone(&db);
                let key_names = key_names.clone();
                let done = Arc::clone(&done);
                s.spawn(move || {
                    for round in 1..=rounds {
                        let mut batch = WriteBatch::new();
                        for k in &key_names {
                            batch.put(k.clone(), format!("{round:08}"));
                        }
                        db.write_batch(batch).unwrap();
                    }
                    done.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..2 {
                let db = Arc::clone(&db);
                let key_names = key_names.clone();
                let done = Arc::clone(&done);
                s.spawn(move || {
                    loop {
                        let finished = done.load(Ordering::Relaxed);
                        let scan = ScanRequest::new().start("atomic-").end("atomic.");
                        let (rows, _) = db.scan(scan).unwrap();
                        assert_eq!(rows.len(), key_names.len(), "every seeded key is live");
                        assert!(
                            rows.windows(2).all(|w| w[0].1 == w[1].1),
                            "torn batch: {rows:?}"
                        );
                        if finished {
                            break;
                        }
                    }
                });
            }
        });

        // Final state: the last round everywhere.
        for k in &key_names {
            prop_assert_eq!(
                db.get(k.as_bytes()).unwrap().value.unwrap(),
                format!("{rounds:08}").into_bytes()
            );
        }
    }

    /// Backpressure stalls engage at the configured unsorted-L0
    /// threshold and *release* once a worker compacts the debt away:
    /// the stalled write completes, the stall is counted exactly once,
    /// and writes after the relief don't stall again.
    #[test]
    fn stall_engages_and_releases(
        stall_at in 2usize..6,
        extra_puts in 1usize..20,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "pmblade-stall-{}-{stall_at}-{extra_puts}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = small_opts();
        opts.wal_dir = Some(dir.clone());
        opts.l0_stall_trigger = stall_at;
        // Keep the automatic compaction triggers out of the picture so
        // the unsorted count is fully under the test's control.
        opts.tau_w = 1 << 30;
        opts.l0_unsorted_hard_cap = 100;
        // Build exactly `stall_at` unsorted tables via manual flushes on
        // an Inline engine, whose writes are never throttled: the
        // slowdown at half the stall, and its early relief, cannot
        // drain L0 mid-setup — this test isolates the stall path.
        {
            let db = Db::open(opts.clone()).unwrap();
            for t in 0..stall_at {
                db.put(format!("stall-{t:02}").as_bytes(), b"v").unwrap();
                db.compact(CompactionRequest::Flush { partition: 0 }).unwrap();
            }
        }
        opts.maintenance = MaintenanceMode::Background;
        let db = Db::open(opts).unwrap();
        let unsorted = db.metrics_snapshot().gauges[&MetricKey::partition("l0_unsorted_tables", 0)];
        prop_assert_eq!(unsorted, stall_at as i64);
        prop_assert_eq!(db.metrics_snapshot().counter("write_stalls"), 0);
        // This write crosses the stall threshold: it must park, enqueue
        // relief, and complete only after a worker compacted the L0.
        db.put(b"stalled-write", b"v").unwrap();
        let snap = db.metrics_snapshot();
        prop_assert_eq!(snap.counter("write_stalls"), 1);
        let stall_wall =
            &snap.histograms[&MetricKey::global("write_stall_wall_nanos")];
        prop_assert_eq!(stall_wall.count, 1);
        // Released: the relief compaction emptied the unsorted set, so
        // further writes sail through without stalling.
        for i in 0..extra_puts {
            db.put(format!("after-{i:03}").as_bytes(), b"v").unwrap();
        }
        prop_assert_eq!(db.metrics_snapshot().counter("write_stalls"), 1);
        prop_assert!(db.get(b"stalled-write").unwrap().value.is_some());
        db.close();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
