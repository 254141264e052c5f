//! Fig 12: normalized throughput under YCSB Load + A–F for the four
//! systems (PMBlade, RocksDB, MatrixKV-8GB, MatrixKV-80GB).
//!
//! Paper shapes: Load — PMBlade 3.5x RocksDB, 1.8x MatrixKV-8 (and the
//! 80 GB MatrixKV is *slower* on Load because its matrix construction
//! overhead throttles flushes); E — 2.0x/2.4x; A — 1.5x/1.3x.

use bench::Table;
use pm_blade::{Db, Options};
use workloads::{run_ycsb, YcsbKind, YcsbWorkload};

// ~20 MiB of 1 KiB records: 2.5x the scaled 8 MiB PM, matching the
// paper's 200 GB dataset vs 80 GB PM.
const RECORDS: u64 = 20_000;
const RUN_OPS: usize = 8_000;
const VALUE: usize = 1024;

fn systems() -> [(&'static str, Options); 4] {
    [
        ("PMBlade", bench::pmblade()),
        ("RocksDB", bench::rocksdb_like()),
        ("MatrixKV-8", bench::matrixkv_8()),
        ("MatrixKV-80", bench::matrixkv_80()),
    ]
}

fn main() {
    let mut table = Table::new(
        "Fig 12 — YCSB throughput normalized to RocksDB",
        &[
            "workload",
            "PMBlade",
            "RocksDB",
            "MatrixKV-8",
            "MatrixKV-80",
        ],
    );
    for kind in YcsbKind::ALL {
        let mut tputs = Vec::new();
        for (_, mut opts) in systems() {
            if opts.mode == pm_blade::Mode::PmBlade {
                // PM-Blade partitions its tree by key range (§III).
                opts.partitioner = pm_blade::Partitioner::numeric("user", RECORDS, 8);
            }
            let db = Db::open(opts).unwrap();
            // Load phase (also the measured phase for Load itself).
            let mut w = YcsbWorkload::new(kind, RECORDS, VALUE, 90);
            let load_ops = w.load_ops();
            let load_metrics = run_ycsb(&db, &load_ops).unwrap();
            // Maintenance runs Inline: the put that trips a flush or a
            // compaction is charged its virtual time, so a phase's
            // elapsed time already holds the background work that ran
            // during it.
            let metrics = if kind == YcsbKind::Load {
                load_metrics
            } else {
                run_ycsb(&db, &w.ops(RUN_OPS)).unwrap()
            };
            let tput = metrics.operations as f64 / metrics.elapsed.as_secs_f64();
            tputs.push(tput);
        }
        let base = tputs[1]; // normalize to RocksDB
        let mut row = vec![kind.name().to_string()];
        for t in &tputs {
            row.push(format!("{:.2}x", t / base));
        }
        table.row(&row);
    }
    table.print();
    println!(
        "\npaper: Load 3.5x/1.0/1.8x/<1.8x; A 1.5x/1.0/1.3x; \
         E 2.0x/1.0/~0.8x; B-D,F between"
    );
}
