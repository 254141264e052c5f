//! Quickstart: open a PM-Blade engine, write, read, scan, and inspect
//! where the data lives.
//!
//! ```sh
//! cargo run --release -p pmblade-examples --bin quickstart
//! ```

use pm_blade::{CompactionRequest, Db, MaintenanceMode, Options, ScanRequest};

fn main() -> Result<(), pm_blade::DbError> {
    // An 8 MiB PM level-0 standing in for the paper's 80 GB module; all
    // timing below is on the virtual device clock.
    let db = Db::open(Options::pm_blade(8 << 20))?;

    // Basic key-value operations. Every call returns its virtual latency.
    let w = db.put(b"order:1001", b"status=placed")?;
    println!("put      : {w}");
    db.put(b"order:1002", b"status=paid")?;
    db.put(b"order:1001", b"status=paid")?; // update supersedes

    let out = db.get(b"order:1001")?;
    println!(
        "get      : {} -> {:?} (served from {:?})",
        out.latency,
        String::from_utf8_lossy(out.value.as_deref().unwrap_or_default()),
        out.source,
    );

    // Deletes write tombstones; reads see the newest version.
    db.delete(b"order:1002")?;
    assert!(db.get(b"order:1002")?.value.is_none());

    // Range scans merge the memtable, PM level-0 and SSD levels.
    for i in 0..2_000u32 {
        db.put(format!("order:{:06}", i).as_bytes(), b"payload")?;
    }
    let (rows, latency) = db.scan(
        ScanRequest::new()
            .start("order:000100")
            .end("order:000110")
            .limit(100),
    )?;
    println!("scan     : {} rows in {latency}", rows.len());

    // Force the memtable down to the PM level-0 and look at the tiers.
    db.compact(CompactionRequest::FlushAll)?;
    let out = db.get(b"order:000500")?;
    println!(
        "tiered   : order:000500 now served from {:?} in {}",
        out.source, out.latency
    );

    // Engine statistics: write amplification and compaction activity.
    let wa = db.write_amp();
    println!(
        "wa       : user {}B -> PM {}B + SSD {}B ({:.2}x)",
        wa.user_bytes,
        wa.pm_bytes,
        wa.ssd_bytes,
        wa.factor()
    );
    println!(
        "compact  : {} minor, {} internal, {} major",
        db.stats().minor_compactions.get(),
        db.stats().internal_compactions.get(),
        db.stats().major_compactions.get(),
    );
    println!(
        "pm usage : {} / {} bytes",
        db.pm_used(),
        db.options().pm_capacity
    );

    // ---- Background maintenance ---------------------------------------
    // By default flush/compaction run inline on the write path
    // (MaintenanceMode::Inline): deterministic virtual timing, but a put
    // occasionally pays for a whole flush. Background mode hands that
    // work to §V worker threads; the write path only detects triggers and
    // enqueues jobs, so put latency stays flat.
    let mut opts = Options::pm_blade(8 << 20);
    opts.maintenance = MaintenanceMode::Background;
    let bg = Db::open(opts)?;
    for i in 0..2_000u32 {
        bg.put(format!("order:{:06}", i).as_bytes(), b"payload")?;
    }
    // close() drains the job queue and joins the workers, so everything
    // the workers were still chewing on is durable and visible.
    bg.close();
    let snap = bg.metrics_snapshot();
    println!(
        "background: {} jobs completed ({} deduped), {} stalls",
        snap.counter("maintenance_jobs_completed"),
        snap.counter("maintenance_jobs_deduped"),
        snap.counter("write_stalls"),
    );
    Ok(())
}
