//! Table IV: PM space released by internal compaction as data skew grows.
//! More skew → more duplicate versions among the unsorted PM tables →
//! more space reclaimed (the paper frees ~80% of used PM at skew 1.0).

use bench::{mib, pct, Table};
use pm_blade::{CompactionRequest, Db, Options};

fn main() {
    let mut table = Table::new(
        "Table IV — space released by internal compaction vs data skew",
        &["skew", "PM before", "released", "fraction"],
    );
    for &skew in &[0.0f64, 0.2, 0.4, 0.6, 0.8, 1.0] {
        // Update-only load: write 2x the key-space footprint so skewed
        // runs accumulate duplicates in level-0.
        let mut opts: Options = bench::pmblade();
        // Disable automatic internal/major compaction: triggered manually.
        opts.l0_unsorted_hard_cap = usize::MAX;
        opts.tau_w = usize::MAX;
        // Headroom for the sorted run built by the manual compaction.
        opts.pm_capacity = 32 << 20;
        // Eq 3 never fires: PM use cannot pass the pool's capacity.
        opts.tau_m = opts.pm_capacity;
        // Eq 1 never fires either: the load reads nothing.
        let mut db = Db::open(opts).unwrap();
        bench::load_data(&mut db, 4 << 20, 1024, skew, 1000);
        db.compact(CompactionRequest::FlushAll).unwrap();
        let before = db.pm_used() as u64;
        db.compact(CompactionRequest::Internal { partition: 0 })
            .unwrap();
        let released = db.stats().internal_space_released.get();
        table.row(&[
            format!("{skew:.1}"),
            mib(before),
            mib(released),
            pct(released as f64 / before.max(1) as f64),
        ]);
    }
    table.print();
    println!(
        "\npaper: released grows 11.6→16.2GB over skew 0→1 \
         (~80% of used PM at skew 1)"
    );
}
