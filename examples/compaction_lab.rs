//! Compaction lab: poke at the three compaction mechanisms directly —
//! internal compaction, the cost models, and the coroutine scheduler.
//!
//! ```sh
//! cargo run --release -p pmblade-examples --bin compaction_lab
//! ```

use coroutine::{Policy, Scheduler, SchedulerConfig, TraceParams};
use pm_blade::{CompactionRequest, Db, DbError, MaintenanceMode, Options, SpanKind};

fn main() -> Result<(), DbError> {
    // ---- Internal compaction on demand -------------------------------
    let mut opts = Options::pm_blade(16 << 20);
    opts.memtable_bytes = 16 << 10;
    // Manual control: disable the automatic triggers.
    opts.l0_unsorted_hard_cap = usize::MAX;
    opts.tau_w = usize::MAX;
    // Eq 3 never fires: PM use cannot pass the pool's capacity.
    opts.tau_m = opts.pm_capacity;
    // Eq 1 never fires either: the load reads nothing.
    let db = Db::open(opts)?;

    // Update-heavy traffic: 4000 writes over 800 keys.
    for i in 0..4_000u32 {
        let key = format!("k{:05}", i % 800);
        db.put(key.as_bytes(), format!("v{i}").as_bytes())?;
    }
    db.compact(CompactionRequest::FlushAll)?;
    let before = db.pm_used();
    let n_unsorted = 40; // roughly; one per memtable freeze
    println!("level-0 before: ~{n_unsorted} unsorted tables, {before} bytes on PM");

    db.compact(CompactionRequest::Internal { partition: 0 })?;
    println!(
        "internal compaction released {} bytes ({} duplicate records)",
        db.stats().internal_space_released.get(),
        db.stats().internal_dropped_records.get(),
    );
    println!("level-0 after: {} bytes on PM", db.pm_used());
    let log = db.compaction_log();
    let ev = log
        .iter()
        .rev()
        .find(|e| e.kind == SpanKind::Internal)
        .expect("we just ran one");
    println!("it took {} of virtual device time\n", ev.duration());

    // Reads are sharply cheaper once level-0 is sorted.
    let out = db.get(b"k00400")?;
    println!(
        "post-compaction read: {} from {:?}\n",
        out.latency, out.source
    );

    // ---- The coroutine scheduler --------------------------------------
    // The same compaction work under the three §V policies.
    let params = TraceParams {
        input_bytes: 8 << 20,
        value_size: 256,
        dup_ratio: 0.3,
        ..TraceParams::default()
    };
    let tasks = coroutine::trace::split(&params, 4, 1);
    println!("8 MiB major compaction, 4 subtasks, 2 cores, q=4:");
    for (name, policy) in [
        ("OS threads     ", Policy::OsThreads),
        ("naive coroutine", Policy::NaiveCoroutine),
        ("PM-Blade       ", Policy::PmBlade),
    ] {
        let report = Scheduler::new(SchedulerConfig {
            policy,
            cores: 2,
            max_io: 4,
            ..SchedulerConfig::default()
        })
        .run(&tasks);
        println!(
            "  {name}  duration {:>9}  cpu {:>5.1}%  io {:>5.1}%  io-lat {}",
            format!("{}", report.duration),
            report.cpu_utilization * 100.0,
            report.io_utilization * 100.0,
            report.io_mean_latency,
        );
    }
    println!("\nthe flush coroutine + pressure gate give the best duration and utilization");

    // ---- Background maintenance ---------------------------------------
    // The same triggers, but fired by §V worker threads instead of the
    // writing thread: puts only enqueue jobs (deduplicated per partition)
    // and only slow down when level-0 or memtable debt crosses the
    // backpressure watermarks.
    let mut opts = Options::pm_blade(16 << 20);
    opts.memtable_bytes = 16 << 10;
    opts.maintenance = MaintenanceMode::Background;
    let db = Db::open(opts)?;
    for i in 0..4_000u32 {
        let key = format!("k{:05}", i % 800);
        db.put(key.as_bytes(), format!("v{i}").as_bytes())?;
    }
    db.close(); // drain the queue, join the workers
    let snap = db.metrics_snapshot();
    println!(
        "\nbackground lab: {} jobs enqueued, {} deduped, {} completed, {} failed",
        snap.counter("maintenance_jobs_enqueued"),
        snap.counter("maintenance_jobs_deduped"),
        snap.counter("maintenance_jobs_completed"),
        snap.counter("maintenance_jobs_failed"),
    );
    println!(
        "backpressure: {} slowdowns, {} stalls",
        snap.counter("write_slowdowns"),
        snap.counter("write_stalls"),
    );
    Ok(())
}
