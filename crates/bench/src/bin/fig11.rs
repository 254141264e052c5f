//! Fig 11(a)–(e): the Meituan-style workload across four systems —
//! write amplification, read latency, write latency, scan latency, and
//! normalized throughput for PMBlade, RocksDB, MatrixKV-8GB and
//! MatrixKV-80GB (all scaled by ~1/1000).
//!
//! Paper shapes: PMBlade WA 197 GB ≈ 18% of RocksDB and ~half of
//! MatrixKV-8; PMBlade lowest read/write/scan latency (write 33% of
//! RocksDB, scan 22% of RocksDB / 34% of MatrixKV-8); throughput 3.7×
//! RocksDB and ~2.6× MatrixKV.

use bench::{mib, us, Table};
use pm_blade::{Db, Options};
use workloads::{run_meituan, MeituanWorkload, Relational};

fn main() {
    let systems: [(&str, Options); 4] = [
        ("PMBlade", bench::pmblade()),
        ("RocksDB", bench::rocksdb_like()),
        ("MatrixKV-8", bench::matrixkv_8()),
        ("MatrixKV-80", bench::matrixkv_80()),
    ];
    let mut wa = Table::new(
        "Fig 11(a) — write amplification",
        &["system", "PM", "SSD", "total", "factor"],
    );
    let mut lat = Table::new(
        "Fig 11(b)-(d) — latency",
        &["system", "read", "write", "scan"],
    );
    let mut thr = Table::new(
        "Fig 11(e) — normalized throughput",
        &["system", "throughput"],
    );
    let mut pmblade_tput = None;
    for (name, mut opts) in systems {
        if opts.mode == pm_blade::Mode::PmBlade {
            opts.pm_table.extractor = pmtable::MetaExtractor::Delimiter(b':');
            // The paper's PM-Blade partitions its tree by key range;
            // the baselines are unpartitioned stores.
            opts.partitioner = bench::meituan_partitioner();
        }
        let db = Db::open(opts).unwrap();
        let rel = Relational::new(db, MeituanWorkload::schema());
        // Load ~2.5x the PM capacity, as in the paper (200 GB vs 80 GB).
        let mut load = MeituanWorkload::new(800, 0.0, 81);
        let ops = load.ops(20_000);
        run_meituan(&rel, &ops).unwrap();
        let mut mixed = MeituanWorkload::new(800, 0.5, 82);
        for _ in 0..load.orders_created() {
            mixed.new_order();
        }
        let ops = mixed.ops(10_000);
        let m = run_meituan(&rel, &ops).unwrap();
        let amp = rel.db().write_amp();
        let (pm, ssd, user) = (amp.pm_bytes, amp.ssd_bytes, amp.user_bytes);
        wa.row(&[
            name.to_string(),
            mib(pm),
            mib(ssd),
            mib(pm + ssd),
            format!("{:.1}x", (pm + ssd) as f64 / user.max(1) as f64),
        ]);
        lat.row(&[
            name.to_string(),
            us(m.reads.mean_duration()),
            us(m.writes.mean_duration()),
            us(m.scans.mean_duration()),
        ]);
        // Maintenance runs Inline, so the mixed phase's elapsed time
        // already holds the background work that ran during it.
        let tput = m.operations as f64 / m.elapsed.as_secs_f64();
        let base = *pmblade_tput.get_or_insert(tput);
        thr.row(&[name.to_string(), format!("{:.2}x", tput / base)]);
    }
    wa.print();
    println!(
        "\npaper 11(a): PMBlade 197GB (125 PM + 72 SSD) = 18% of \
         RocksDB; MatrixKV-8 is 2.1x PMBlade"
    );
    lat.print();
    println!(
        "\npaper 11(b)-(d): PMBlade lowest on all three; write 33% of \
         RocksDB / 48% of MatrixKV-8; scan 22% / 34%"
    );
    thr.print();
    println!(
        "\npaper 11(e): PMBlade 3.7x RocksDB, 2.6x MatrixKV-8, \
         2.5x MatrixKV-80"
    );
}
