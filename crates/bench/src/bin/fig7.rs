//! Fig 7(a)/(b): how internal compaction affects level-0 reads.
//!
//! (a) read latency as data accumulates under a 50/50 read-write mix for
//!     PMBlade (internal compaction on), PMBlade-PM (off) and
//!     PMBlade-SSD (level-0 on SSD) — the paper sees PMBlade stay low
//!     (up to −82% vs PMBlade-PM) while the others climb;
//! (b) average and p99.9 read latency *during* a compaction vs without
//!     one, for PM and SSD level-0s.

use bench::{us, Table};
use pm_blade::{CompactionRequest, Db, Mode, Options};
use sim::{Histogram, Pcg64};

fn make(mode: Mode) -> Db {
    let mut opts: Options = match mode {
        Mode::PmBlade => bench::pmblade(),
        Mode::PmBladePm => bench::pmblade_pm(),
        Mode::SsdLevel0 => bench::rocksdb_like(),
        _ => unreachable!(),
    };
    // Keep level-0 resident: this experiment isolates L0 read behaviour.
    opts.pm_capacity = 64 << 20;
    // Eq 3 never fires: PM use cannot pass the pool's capacity.
    opts.tau_m = opts.pm_capacity;
    opts.l0_table_trigger = usize::MAX;
    // A small block cache, as in the paper's level-0 experiments — the
    // dataset must not fit in DRAM or the SSD rows degenerate.
    opts.block_cache_bytes = 128 << 10;
    if mode != Mode::PmBlade {
        opts.l0_unsorted_hard_cap = usize::MAX;
    }
    Db::open(opts).unwrap()
}

fn mixed_phase(db: &mut Db, ops: usize, keys: u64, seed: u64) -> Histogram {
    let mut rng = Pcg64::seeded(seed);
    let mut reads = Histogram::new();
    let value = vec![0u8; 1024];
    for i in 0..ops {
        let k = format!("user{:010}", rng.next_below(keys));
        if i % 2 == 0 {
            db.put(k.as_bytes(), &value).unwrap();
        } else {
            let out = db.get(k.as_bytes()).unwrap();
            reads.record_duration(out.latency);
        }
    }
    reads
}

fn main() {
    // ---- Fig 7(a) ----------------------------------------------------
    let mut fig7a = Table::new(
        "Fig 7(a) — L0 read latency under 50r/50w as data accumulates",
        &["ops", "PMBlade", "PMBlade-PM", "PMBlade-SSD"],
    );
    let keys = 4_000u64;
    let mut dbs = [
        make(Mode::PmBlade),
        make(Mode::PmBladePm),
        make(Mode::SsdLevel0),
    ];
    let step = 4_000usize;
    for round in 1..=4 {
        let mut cells = vec![format!("{}k", round * step / 500)];
        for db in dbs.iter_mut() {
            let reads = mixed_phase(db, step, keys, 70 + round as u64);
            cells.push(us(reads.mean_duration()));
        }
        fig7a.row(&cells);
    }
    fig7a.print();
    println!(
        "\npaper 7(a): PMBlade stays flat; PMBlade-PM and PMBlade-SSD \
         climb with data (PMBlade up to −82% vs PMBlade-PM)"
    );

    // ---- Fig 7(b) ----------------------------------------------------
    // Reads during a compaction vs without. The virtual-time engine runs
    // compactions inline, so "during" is modeled by adding the paper's
    // observed interference: reads issued while a compaction is active
    // queue behind its device traffic. We approximate by charging each
    // read the device-busy share of the concurrent compaction.
    let mut fig7b = Table::new(
        "Fig 7(b) — read latency during compaction (1 KiB values)",
        &["config", "avg", "p99.9"],
    );
    for (name, mode, compact) in [
        ("PMBlade (internal)", Mode::PmBlade, true),
        ("PMBlade-noComp", Mode::PmBlade, false),
        ("PMBlade-SSD (L0→L1)", Mode::SsdLevel0, true),
        ("PMBlade-SSD-noComp", Mode::SsdLevel0, false),
    ] {
        let mut db = make(mode);
        bench::load_data(&mut db, 1 << 20, 1024, -1.0, 3000);
        db.compact(CompactionRequest::FlushAll).unwrap();
        // Trigger the compaction and measure its duration.
        let interference = if compact {
            match mode {
                Mode::PmBlade => db
                    .compact(CompactionRequest::Internal { partition: 0 })
                    .unwrap(),
                _ => db
                    .compact(CompactionRequest::Major { partition: 0 })
                    .unwrap(),
            }
            let log = db.compaction_log();
            let ev = log.last().unwrap();
            // Interference felt by one read: the compaction occupies the
            // device for its duration; a concurrent random read waits a
            // uniformly-distributed slice of the per-I/O service time.
            ev.duration() / (db.stats().puts.get().max(1) / 4).max(1)
        } else {
            sim::SimDuration::ZERO
        };
        let mut rng = Pcg64::seeded(99);
        let mut hist = Histogram::new();
        for _ in 0..4_000 {
            let k = format!("user{:010}", rng.next_below(1_000));
            let out = db.get(k.as_bytes()).unwrap();
            // 30% of reads land while the compaction holds the device.
            let delayed = rng.next_f64() < 0.3;
            let lat = if delayed {
                out.latency + interference
            } else {
                out.latency
            };
            hist.record_duration(lat);
        }
        fig7b.row(&[
            name.to_string(),
            us(hist.mean_duration()),
            us(hist.quantile_duration(0.999)),
        ]);
    }
    fig7b.print();
    println!(
        "\npaper 7(b): PMBlade avg 1.7x / p99.9 5.3x of noComp, yet only \
         23% / 21% of PMBlade-SSD under compaction"
    );
}
