//! Fig 9(a)–(d): coroutine-based compaction vs naive coroutines vs OS
//! threads, across value sizes — CPU utilization, I/O utilization, I/O
//! latency during compaction, and total compaction duration.
//!
//! Setup mirrors §VI-C: 2 GiB of data (scaled to 2 MiB per subtask
//! batch), compaction concurrency 4, two cores, max I/O concurrency 4.

use bench::Table;
use coroutine::{Policy, Scheduler, SchedulerConfig, TraceParams};

fn main() {
    let policies = [
        ("Thread", Policy::OsThreads),
        ("Coroutine", Policy::NaiveCoroutine),
        ("PMBlade", Policy::PmBlade),
    ];
    let mut cpu = Table::new(
        "Fig 9(a) — CPU utilization",
        &["value size", "Thread", "Coroutine", "PMBlade"],
    );
    let mut io = Table::new(
        "Fig 9(b) — I/O device utilization",
        &["value size", "Thread", "Coroutine", "PMBlade"],
    );
    let mut lat = Table::new(
        "Fig 9(c) — I/O latency during compaction",
        &["value size", "Thread", "Coroutine", "PMBlade"],
    );
    let mut dur = Table::new(
        "Fig 9(d) — compaction duration",
        &["value size", "Thread", "Coroutine", "PMBlade"],
    );

    for &value_size in &[32u32, 64, 128, 256, 512, 1024, 4096] {
        let params = TraceParams {
            input_bytes: 8 << 20,
            value_size,
            dup_ratio: 0.25,
            ..TraceParams::default()
        };
        // The paper: concurrency 4, two cores, q = 4 (the scheduler's
        // default, which the engine's background workers run at).
        let tasks = coroutine::trace::split(&params, 4, 55);
        let mut cells = [
            vec![format!("{value_size}B")],
            vec![format!("{value_size}B")],
            vec![format!("{value_size}B")],
            vec![format!("{value_size}B")],
        ];
        for (_, policy) in policies {
            let report = Scheduler::new(SchedulerConfig {
                policy,
                ..SchedulerConfig::default()
            })
            .run(&tasks);
            cells[0].push(bench::pct(report.cpu_utilization));
            cells[1].push(bench::pct(report.io_utilization));
            cells[2].push(bench::ms(report.io_mean_latency));
            cells[3].push(bench::ms(report.duration));
        }
        cpu.row(&cells[0]);
        io.row(&cells[1]);
        lat.row(&cells[2]);
        dur.row(&cells[3]);
    }
    cpu.print();
    println!(
        "\npaper 9(a): at 256B PMBlade +23% over Thread, +14% over \
         Coroutine"
    );
    io.print();
    println!("\npaper 9(b): at 32B PMBlade +35%/+18%; ≥128B PMBlade near 100%");
    lat.print();
    println!("\npaper 9(c): PMBlade lowest; at 512B it is 66% of Thread");
    dur.print();
    println!(
        "\npaper 9(d): PMBlade shortest; at 64B it is 71% of Thread and \
         80% of Coroutine"
    );
}
