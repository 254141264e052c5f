//! Retail orders: the relational layer on PM-Blade — record tables,
//! secondary indexes, the order lifecycle from the paper's §VI-D.
//!
//! ```sh
//! cargo run --release -p pmblade-examples --bin retail_orders
//! ```

use pm_blade::{Db, DbError, Options};
use workloads::{Relational, TableDef};

const ORDERS: u16 = 1;

fn main() -> Result<(), DbError> {
    let db = Db::open(Options::pm_blade(8 << 20))?;
    // An orders table: pk, status, user, merchant, amount — with
    // secondary indexes on status (1), user (2) and merchant (3).
    let rel = Relational::new(db, vec![TableDef::new(ORDERS, 5, vec![1, 2, 3])]);

    // A burst of take-out orders.
    for i in 0..3_000u32 {
        rel.insert_row(
            ORDERS,
            &vec![
                format!("o{:08}", i).into_bytes(),
                b"placed".to_vec(),
                format!("u{:04}", i % 500).into_bytes(),
                format!("m{:03}", i % 40).into_bytes(),
                format!("{}.50", 8 + i % 30).into_bytes(),
            ],
        )?;
    }

    // Orders progress: pay the most recent thousand.
    for i in 2_000..3_000u32 {
        rel.update_column(ORDERS, format!("o{:08}", i).as_bytes(), 1, b"paid")?;
    }

    // Index query: everything user u0042 ordered (scan the index,
    // then point-read each row — the paper's two-step lookup).
    let (rows, latency) = rel.index_query(ORDERS, 2, b"u0042", 100)?;
    println!(
        "user u0042 has {} orders (index query took {latency})",
        rows.len()
    );

    // Index query on the hot status column.
    let (paid, latency) = rel.index_query(ORDERS, 1, b"paid", 2_000)?;
    println!("{} paid orders ({latency})", paid.len());
    assert_eq!(paid.len(), 1_000);

    // Merchant dashboard: recent orders for one merchant.
    let (m7, _) = rel.index_query(ORDERS, 3, b"m007", 200)?;
    println!("merchant m007 has {} orders", m7.len());

    // Point read + primary-key range scan.
    let (row, latency) = rel.get_row(ORDERS, b"o00002500")?;
    println!(
        "o00002500 status={:?} ({latency})",
        String::from_utf8_lossy(&row.expect("row exists")[1])
    );
    let (page, _) = rel.scan_rows(ORDERS, b"o00001000", 10)?;
    println!("scan page: {} rows from o00001000", page.len());

    // The hot/warm split the paper exploits: status updates concentrate
    // on recent orders, so internal compaction keeps them cheap to read.
    let stats = rel.db().stats();
    println!(
        "reads served: memtable {}, PM {}, SSD {} (pm hit {:.0}%)",
        stats.reads_from_memtable.get(),
        stats.reads_from_pm.get(),
        stats.reads_from_ssd.get(),
        stats.pm_hit_ratio() * 100.0
    );
    Ok(())
}
