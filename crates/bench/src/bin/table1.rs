//! Table I: point-read latency of an indexable table on PM vs an SSTable
//! served from the block cache vs an SSTable on SSD, as the number of
//! tables that must be consulted grows (1/2/4/8).
//!
//! Paper's numbers (for calibration):
//! `PM 3.3/4.4/7.9/14.5 us · cached 2.6/3.5/6.0/10.7 us ·
//!  SSD 22.3/31.3/49.9/100.2 us`.

use std::sync::Arc;

use bench::{index_entries, us, Table};
use encoding::key::KeyKind;
use pm_device::PmPool;
use pmtable::{PmTable, PmTableBuilder, PmTableOptions};
use sim::{CostModel, Pcg64, SimDuration, Timeline};
use ssd_device::SsdDevice;
use sstable::{BlockCache, SsTable, SsTableBuilder, SsTableOptions};

const ENTRIES_PER_TABLE: usize = 1_000_000;
const PROBES: usize = 2_000;

fn main() {
    let cost = CostModel::default();
    let mut table = Table::new(
        "Table I — query latency vs number of tables",
        &[
            "tables",
            "table on PM",
            "SSTable in cache",
            "SSTable in SSD",
        ],
    );

    for &ntables in &[1usize, 2, 4, 8] {
        // --- PM tables ------------------------------------------------
        let pool = PmPool::new(1 << 30, cost);
        let mut pm_tables = Vec::new();
        for t in 0..ntables {
            let entries = index_entries(ENTRIES_PER_TABLE / ntables, 8, 100 + t as u64);
            let mut b = PmTableBuilder::new(PmTableOptions {
                group_size: 16,
                extractor: pmtable::MetaExtractor::Delimiter(b':'),
                filter_bits_per_key: 0,
                codec: pmtable::CodecMode::Prefix,
            });
            for e in &entries {
                b.add(e.clone());
            }
            let mut tl = Timeline::new();
            let (bytes, _) = b.finish(&cost, &mut tl);
            let region = pool.publish(bytes, &mut tl).unwrap();
            pm_tables.push((PmTable::open(region).unwrap(), entries));
        }
        let mut rng = Pcg64::seeded(1);
        let mut pm_total = SimDuration::ZERO;
        for _ in 0..PROBES {
            let mut tl = Timeline::new();
            // Worst case of unsorted L0: probe every table.
            for (t, entries) in &pm_tables {
                let probe = &entries[rng.next_below(entries.len() as u64) as usize];
                let _ = t.get(&probe.user_key, u64::MAX, &mut tl);
            }
            pm_total += tl.elapsed();
        }

        // --- SSTables (shared builder for cached + cold) ---------------
        let device = SsdDevice::new(cost);
        let big_cache = Arc::new(BlockCache::new(1 << 30));
        let no_cache = Arc::new(BlockCache::disabled());
        let mut warm_tables = Vec::new();
        let mut cold_tables = Vec::new();
        let mut keysets = Vec::new();
        for t in 0..ntables {
            let entries = index_entries(ENTRIES_PER_TABLE / ntables, 8, 200 + t as u64);
            let name = format!("t{ntables}-{t}.sst");
            let mut b = SsTableBuilder::new(&device, &name, SsTableOptions::default()).unwrap();
            let mut tl = Timeline::new();
            for e in &entries {
                b.add(&e.user_key, e.seq, KeyKind::Value, &e.value, &mut tl);
            }
            b.finish(&mut tl).unwrap();
            warm_tables
                .push(SsTable::open(&device, &name, Arc::clone(&big_cache), &mut tl).unwrap());
            cold_tables
                .push(SsTable::open(&device, &name, Arc::clone(&no_cache), &mut tl).unwrap());
            keysets.push(entries);
        }
        // Warm the cache fully.
        {
            let mut tl = Timeline::new();
            for t in &warm_tables {
                let _ = t.scan_all(&mut tl);
            }
        }
        let mut rng = Pcg64::seeded(2);
        let mut warm_total = SimDuration::ZERO;
        let mut cold_total = SimDuration::ZERO;
        for _ in 0..PROBES {
            let mut twarm = Timeline::new();
            let mut tcold = Timeline::new();
            for ((warm, cold), entries) in warm_tables.iter().zip(&cold_tables).zip(&keysets) {
                let probe = &entries[rng.next_below(entries.len() as u64) as usize];
                let _ = warm.get(&probe.user_key, u64::MAX, &mut twarm);
                let _ = cold.get(&probe.user_key, u64::MAX, &mut tcold);
            }
            warm_total += twarm.elapsed();
            cold_total += tcold.elapsed();
        }

        table.row(&[
            ntables.to_string(),
            us(pm_total / PROBES as u64),
            us(warm_total / PROBES as u64),
            us(cold_total / PROBES as u64),
        ]);
    }
    table.print();
    println!(
        "\npaper: PM 3.3/4.4/7.9/14.5us, cache 2.6/3.5/6.0/10.7us, \
         SSD 22.3/31.3/49.9/100.2us"
    );
}
