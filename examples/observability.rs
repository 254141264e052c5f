//! Observability tour: event listeners, metrics snapshots, deltas, and
//! the Prometheus and JSON renderers.
//!
//! ```sh
//! cargo run --release -p pmblade-examples --bin observability
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pm_blade::{
    CompactionRequest, CostDecision, Db, EventListener, Options, ScanRequest, TraceSpan,
};

/// A listener that tallies engine events. Listener hooks run on the
/// engine thread that did the work — with the partition's commit mutex
/// held for group commits — so they must stay cheap and must never call
/// back into the `Db`.
#[derive(Default)]
struct Tally {
    flushes: AtomicU64,
    compactions: AtomicU64,
    group_commits: AtomicU64,
    cost_triggers: AtomicU64,
}

impl EventListener for Tally {
    fn on_flush_complete(&self, _span: &TraceSpan) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn on_compaction_complete(&self, span: &TraceSpan) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        if let Some(cost) = &span.cost {
            println!(
                "  [listener] {} compaction on p{} triggered by {}",
                span.kind.as_str(),
                span.partition,
                cost.rule()
            );
        }
    }

    fn on_group_commit(&self, _span: &TraceSpan) {
        self.group_commits.fetch_add(1, Ordering::Relaxed);
    }

    fn on_cost_decision(&self, decision: &CostDecision) {
        if decision.triggered() {
            self.cost_triggers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn main() -> Result<(), pm_blade::DbError> {
    let tally = Arc::new(Tally::default());
    let mut opts = Options {
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
    opts.listeners
        .add(Arc::clone(&tally) as Arc<dyn EventListener>);
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

    // 1. The listener saw every event as it happened.
    println!("\n== listener tallies ==");
    println!("flushes        {}", tally.flushes.load(Ordering::Relaxed));
    println!(
        "compactions    {}",
        tally.compactions.load(Ordering::Relaxed)
    );
    println!(
        "group commits  {}",
        tally.group_commits.load(Ordering::Relaxed)
    );
    println!(
        "cost triggers  {}",
        tally.cost_triggers.load(Ordering::Relaxed)
    );

    // 2. Pull-style: one snapshot covers every counter, gauge, latency
    //    histogram, and the retained compaction spans.
    let snap = db.metrics_snapshot();
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
        window.counter_at(&pm_blade::MetricKey::global("puts")),
        window.counter_at(&pm_blade::MetricKey::global("group_commits")),
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

    // The compaction log is the span ring itself: at most
    // `event_log_capacity` recent flush / internal / major spans.
    let log = db.compaction_log();
    println!(
        "\ncompaction log: {} recent spans (flush/internal/major), {:?} spans dropped",
        log.len(),
        snap.spans_dropped
    );
    Ok(())
}
