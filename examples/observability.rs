//! Observability tour: the compaction log, metrics snapshots, deltas,
//! and the Prometheus and JSON renderers.
//!
//! ```sh
//! cargo run --release -p pmblade-examples --bin observability
//! ```

use pm_blade::{CompactionRequest, Db, MetricKey, Options, ScanRequest, SpanKind};

fn main() -> Result<(), pm_blade::DbError> {
    let opts = Options {
        pm_capacity: 4 << 20,
        memtable_bytes: 32 << 10,
        tau_w: 64 << 10,
        tau_m: 2 << 20,
        tau_t: 1 << 20,
        l1_target: 512 << 10,
        max_table_bytes: 128 << 10,
        event_log_capacity: 256,
        ..Options::default()
    };
    let db = Db::open(opts)?;

    // Generate enough traffic to exercise flushes and compactions.
    for i in 0..20_000u32 {
        let key = format!("user{:08}", i % 5_000);
        db.put(key.as_bytes(), &[b'v'; 100])?;
    }
    for i in 0..2_000u32 {
        let key = format!("user{:08}", i);
        db.get(key.as_bytes())?;
    }
    db.scan(
        ScanRequest::new()
            .start("user00000100")
            .end("user00000200")
            .limit(50),
    )?;
    db.compact(CompactionRequest::FlushAll)?;

    // 1. The engine's record of its background work. The compaction log
    //    is the span ring: one span per flush, internal or major
    //    compaction that installed, at most `event_log_capacity` of
    //    them. Group commits and cost-model triggers are counters.
    let log = db.compaction_log();
    let snap = db.metrics_snapshot();
    println!("\n== background work ==");
    for kind in [SpanKind::Flush, SpanKind::Internal, SpanKind::Major] {
        let spans = log.iter().filter(|s| s.kind == kind).count();
        println!("{:<14} {spans}", kind.as_str());
    }
    for span in log.iter().filter(|s| s.kind != SpanKind::Flush) {
        if let Some(cost) = &span.cost {
            println!(
                "  {} compaction on p{} triggered by {}",
                span.kind.as_str(),
                span.partition,
                cost.rule()
            );
        }
    }
    let cost_triggers: u64 = [
        "cost_eq1_triggers",
        "cost_eq2_triggers",
        "cost_hard_cap_triggers",
        "cost_retention_passes",
        "cost_codec_choices",
    ]
    .into_iter()
    .map(|name| snap.counter(name))
    .sum();
    let group_commits = snap.counter_at(&MetricKey::global("group_commits"));
    println!("group commits  {group_commits}");
    println!("cost triggers  {cost_triggers}");
    println!("spans dropped  {}", snap.spans_dropped);

    // 2. Pull-style: one snapshot covers every counter, gauge, latency
    //    histogram, and the retained compaction spans.
    println!(
        "\n== snapshot @ {} virtual ns == {} counters, {} gauges, {} histograms, {} spans",
        snap.at_nanos,
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.spans.len()
    );

    // 3. Deltas: subtract an earlier snapshot to get a rate window.
    let before = db.metrics_snapshot();
    for i in 0..1_000u32 {
        db.put(format!("user{:08}", i).as_bytes(), b"delta")?;
    }
    let window = db.metrics_snapshot().delta(&before);
    println!(
        "== delta window == puts {} / group commits {} / spans {}",
        window.counter_at(&MetricKey::global("puts")),
        window.counter_at(&MetricKey::global("group_commits")),
        window.spans.len()
    );

    // 4. Prometheus text exposition, ready for a scrape endpoint. The
    //    maintenance gauges/counters (queue depth, in-flight jobs,
    //    slowdowns, stalls) are exported alongside the engine metrics —
    //    they stay at zero here because this Db runs in Inline mode.
    println!("\n== prometheus (excerpt) ==");
    for line in db.metrics_snapshot().to_prometheus().lines().filter(|l| {
        l.starts_with("pmblade_read_latency")
            || l.starts_with("pmblade_group_commits")
            || l.starts_with("pmblade_pm_used_bytes")
            || l.starts_with("pmblade_maintenance_queue_depth")
            || l.starts_with("pmblade_write_stalls")
    }) {
        println!("{line}");
    }

    // 4b. The same counters move once maintenance runs on worker threads.
    let mut bg_opts = Options::pm_blade(4 << 20);
    bg_opts.memtable_bytes = 32 << 10;
    bg_opts.maintenance = pm_blade::MaintenanceMode::Background;
    let bg = Db::open(bg_opts)?;
    for i in 0..20_000u32 {
        bg.put(format!("user{:08}", i % 5_000).as_bytes(), &[b'v'; 100])?;
    }
    bg.close();
    let bg_snap = bg.metrics_snapshot();
    println!("\n== background maintenance ==");
    for name in [
        "maintenance_jobs_enqueued",
        "maintenance_jobs_deduped",
        "maintenance_jobs_completed",
        "maintenance_jobs_failed",
        "write_slowdowns",
        "write_stalls",
    ] {
        println!("{name:<27} {}", bg_snap.counter(name));
    }

    // 5. JSON, as served by the server's `GET /debug`.
    let json = db.metrics_snapshot().to_json();
    println!("\n== json == {} bytes (excerpt)", json.len());
    for line in json.lines().take(6) {
        println!("{line}");
    }
    Ok(())
}
