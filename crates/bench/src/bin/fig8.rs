//! Fig 8(a)/(b): the compaction models' effect on write amplification
//! and PM residency.
//!
//! (a) write amplification after loading the dataset under different key
//!     distributions — RocksDB ≫ PMBlade-PM ≫ PMBlade (the paper:
//!     2573 GB vs 825 GB vs 359 GB for 200 GB written uniformly);
//! (b) fraction of reads served from PM under a 50r/50w mix vs skew —
//!     the cost-based retention keeps warm partitions resident (+34% at
//!     skew 0 in the paper).

use bench::{mib, pct, Table};
use pm_blade::{CompactionRequest, Db, Mode, Options, Partitioner};
use sim::Pcg64;

fn partitioned(mut opts: Options, keys: u64) -> Options {
    opts.partitioner = Partitioner::numeric("user", keys, 8);
    opts
}

fn main() {
    // ---- Fig 8(a): write amplification --------------------------------
    let mut fig8a = Table::new(
        "Fig 8(a) — write amplification, 20 MiB inserted (1 KiB values)",
        &["distribution", "RocksDB", "PMBlade-PM", "PMBlade (pm+ssd)"],
    );
    let data = bench::DATA_BYTES;
    let keys = (data / 1038) as u64;
    for &(name, skew) in &[("uniform", 0.0f64), ("zipf 0.6", 0.6), ("zipf 0.99", 0.99)] {
        let mut row = vec![name.to_string()];
        for mode in [Mode::SsdLevel0, Mode::PmBladePm, Mode::PmBlade] {
            let opts: Options = match mode {
                Mode::SsdLevel0 => bench::rocksdb_like(),
                Mode::PmBladePm => bench::pmblade_pm(),
                Mode::PmBlade => bench::pmblade(),
                _ => unreachable!(),
            };
            let mut db = Db::open(partitioned(opts, keys)).unwrap();
            bench::load_data(&mut db, data, 1024, skew, 4000);
            db.compact(CompactionRequest::FlushAll).unwrap();
            let wa = db.write_amp();
            let (pm, ssd, user) = (wa.pm_bytes, wa.ssd_bytes, wa.user_bytes);
            let total = pm + ssd;
            row.push(format!(
                "{}+{} ({:.1}x)",
                mib(pm),
                mib(ssd),
                total as f64 / user.max(1) as f64
            ));
        }
        fig8a.row(&row);
    }
    fig8a.print();
    println!(
        "\npaper 8(a) uniform: RocksDB 2573GB, PMBlade-PM 825GB, \
         PMBlade 359GB (201 PM + 158 SSD) for 200GB written"
    );

    // ---- Fig 8(b): PM hit ratio ---------------------------------------
    let mut fig8b = Table::new(
        "Fig 8(b) — reads served from PM under 50r/50w",
        &["skew", "PMBlade-PM", "PMBlade"],
    );
    for &skew in &[0.0f64, 0.3, 0.6, 0.9] {
        let mut row = vec![format!("{skew:.1}")];
        for mode in [Mode::PmBladePm, Mode::PmBlade] {
            let opts: Options = match mode {
                Mode::PmBladePm => bench::pmblade_pm(),
                Mode::PmBlade => bench::pmblade(),
                _ => unreachable!(),
            };
            let keys = 8_000u64;
            let mut db = Db::open(partitioned(opts, keys)).unwrap();
            // Load past PM capacity so major compactions must choose
            // what to keep.
            bench::load_data(&mut db, 12 << 20, 1024, -1.0, 5000);
            // Mixed phase with the requested read skew.
            let dist = workloads::KeyDistribution::zipfian(keys, skew);
            let mut rng = Pcg64::seeded(6000);
            let value = vec![0u8; 1024];
            for i in 0..30_000 {
                let k = format!("user{:010}", dist.sample(&mut rng, keys));
                if i % 2 == 0 {
                    db.get(k.as_bytes()).unwrap();
                } else {
                    db.put(k.as_bytes(), &value).unwrap();
                }
            }
            row.push(pct(db.stats().pm_hit_ratio()));
        }
        fig8b.row(&row);
    }
    fig8b.print();
    println!(
        "\npaper 8(b): hit ratio grows with skew; the cost model adds \
         +34% at skew 0 by retaining warm partitions"
    );
}
