//! Fig 10(a)/(b): the ablation study on the Meituan-style workload —
//! end-to-end read/scan/write latency and throughput for five
//! configurations that add PM-Blade's techniques one at a time:
//!
//! - PMBlade-SSD: nothing (SSD level-0);
//! - PMB-P:       PM level-0, array-based tables, no internal compaction;
//! - PMB-PI:      + internal compaction with the cost models;
//! - PMB-PIC:     + compressed PM tables;
//! - PMBlade:     + coroutine-based major compaction.
//!
//! Paper deltas: reads −40% PMBlade vs PMB-P (internal compaction −29%,
//! compression −7%, coroutines −4%); writes −48%; scans −54%;
//! throughput +51%.

use bench::{us, Table};
use pm_blade::{Db, Mode, Options};
use workloads::{run_meituan, MeituanWorkload, Relational};

/// The five ablation rungs.
#[derive(Clone, Copy, Debug)]
struct Rung {
    name: &'static str,
    mode: Mode,
    internal_compaction: bool,
    compressed_tables: bool,
    coroutine_factor: f64,
}

fn options(rung: &Rung) -> Options {
    let mut opts: Options = match rung.mode {
        Mode::SsdLevel0 => bench::rocksdb_like(),
        _ => bench::pmblade(),
    };
    if rung.mode != Mode::SsdLevel0 {
        opts.partitioner = bench::meituan_partitioner();
        if !rung.internal_compaction {
            // PMB-P: PM level-0, conventional strategy (count trigger).
            opts.mode = Mode::PmBladePm;
        }
        if !rung.compressed_tables {
            // Array-based PM tables: approximate by disabling the
            // prefix extractor (no meta/prefix sharing) and doubling
            // the group cost via group_size 2.
            opts.pm_table.extractor = pmtable::MetaExtractor::None;
            opts.pm_table.group_size = 2;
        } else {
            opts.pm_table.extractor = pmtable::MetaExtractor::Delimiter(b':');
            opts.pm_table.group_size = 16;
        }
    }
    opts
}

fn main() {
    let rungs = [
        Rung {
            name: "PMBlade-SSD",
            mode: Mode::SsdLevel0,
            internal_compaction: false,
            compressed_tables: false,
            coroutine_factor: 1.0,
        },
        Rung {
            name: "PMB-P",
            mode: Mode::PmBlade,
            internal_compaction: false,
            compressed_tables: false,
            coroutine_factor: 1.0,
        },
        Rung {
            name: "PMB-PI",
            mode: Mode::PmBlade,
            internal_compaction: true,
            compressed_tables: false,
            coroutine_factor: 1.0,
        },
        Rung {
            name: "PMB-PIC",
            mode: Mode::PmBlade,
            internal_compaction: true,
            compressed_tables: true,
            coroutine_factor: 1.0,
        },
        Rung {
            name: "PMBlade",
            mode: Mode::PmBlade,
            internal_compaction: true,
            compressed_tables: true,
            // §V: coroutine scheduling shortens major compactions to
            // ~71-80% — modelled as a discount on background time.
            coroutine_factor: 0.75,
        },
    ];

    let mut lat = Table::new(
        "Fig 10(a) — end-to-end latency (Meituan workload)",
        &["config", "read", "scan", "write"],
    );
    let mut thr = Table::new(
        "Fig 10(b) — normalized throughput",
        &["config", "throughput"],
    );
    let mut baseline_tput = None;
    for rung in &rungs {
        let db = Db::open(options(rung)).unwrap();
        let rel = Relational::new(db, MeituanWorkload::schema());
        // Load phase: orders only.
        let mut load = MeituanWorkload::new(600, 0.0, 77);
        let ops = load.ops(3_000);
        run_meituan(&rel, &ops).unwrap();
        let after_load = bench::background_time(rel.db());
        // Mixed transactions.
        let mut mixed = MeituanWorkload::new(600, 0.5, 78);
        // Continue the order id sequence past the loaded range.
        for _ in 0..load.orders_created() {
            mixed.new_order();
        }
        let ops = mixed.ops(6_000);
        let m = run_meituan(&rel, &ops).unwrap();
        // Maintenance runs Inline, so the mixed phase's elapsed time
        // already holds its own background work, at full cost: the full
        // system takes the coroutine discount off that share.
        let bg = bench::background_time(rel.db()) - after_load;
        let total = m.elapsed - bg.mul_f64(1.0 - rung.coroutine_factor);
        let tput = m.operations as f64 / total.as_secs_f64();
        let base = *baseline_tput.get_or_insert(tput);
        lat.row(&[
            rung.name.to_string(),
            us(m.reads.mean_duration()),
            us(m.scans.mean_duration()),
            us(m.writes.mean_duration()),
        ]);
        thr.row(&[rung.name.to_string(), format!("{:.2}x", tput / base)]);
    }
    lat.print();
    println!(
        "\npaper 10(a): PMBlade vs PMB-P: reads −40%, writes −48%, \
         scans −54%; PMB-P vs PMBlade-SSD: scans −49%"
    );
    thr.print();
    println!(
        "\npaper 10(b): PMBlade +51% over PMB-P (internal compaction \
         +33%, compression +11%, coroutines +7%)"
    );
}
