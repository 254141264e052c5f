//! Table V: duration of an internal compaction (PM→PM) vs an SSD-based
//! level-0 compaction of the same data, across value sizes — the paper
//! measures internal compaction at roughly half the SSD duration.

use bench::{ms, Table};
use pm_blade::{CompactionRequest, Db, Mode, Options, SpanKind};

fn run(mode: Mode, value_size: usize) -> sim::SimDuration {
    let mut opts: Options = match mode {
        Mode::PmBlade => bench::pmblade(),
        Mode::SsdLevel0 => bench::rocksdb_like(),
        _ => unreachable!(),
    };
    // Manual triggering only.
    opts.l0_unsorted_hard_cap = usize::MAX;
    opts.l0_table_trigger = usize::MAX;
    opts.tau_w = usize::MAX;
    opts.pm_capacity = 16 << 20;
    // Eq 3 never fires: PM use cannot pass the pool's capacity.
    opts.tau_m = opts.pm_capacity;
    // Eq 1 never fires either: the load reads nothing.
    let mut db = Db::open(opts).unwrap();
    bench::load_data(&mut db, 1 << 20, value_size, 0.3, 2000);
    db.compact(CompactionRequest::FlushAll).unwrap();
    match mode {
        Mode::PmBlade => db
            .compact(CompactionRequest::Internal { partition: 0 })
            .unwrap(),
        Mode::SsdLevel0 => db
            .compact(CompactionRequest::Major { partition: 0 })
            .unwrap(),
        _ => unreachable!(),
    }
    db.compaction_log()
        .iter()
        .rev()
        .find(|e| matches!(e.kind, SpanKind::Internal | SpanKind::Major))
        .map(|e| e.duration())
        .expect("compaction ran")
}

fn main() {
    let mut table = Table::new(
        "Table V — compaction duration (1 MiB of data)",
        &[
            "value size",
            "PMBlade (internal)",
            "PMBlade-SSD (L0→L1)",
            "ratio",
        ],
    );
    for &value_size in &[512usize, 1024, 4096, 16384, 65536] {
        let pm = run(Mode::PmBlade, value_size);
        let ssd = run(Mode::SsdLevel0, value_size);
        table.row(&[
            format!("{}B", value_size),
            ms(pm),
            ms(ssd),
            format!("{:.2}", pm.as_nanos() as f64 / ssd.as_nanos() as f64),
        ]);
    }
    table.print();
    println!(
        "\npaper: PMBlade 2.1→1.4s vs PMBlade-SSD 4→2.8s \
         (internal ≈ 50% of SSD duration)"
    );
}
