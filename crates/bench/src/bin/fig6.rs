//! Fig 6(a)/(b): minor-compaction duration and read latency of five
//! level-0 table structures — the compressed PM table, the plain array
//! table, per-pair and per-group snappy-compressed arrays, and the
//! RocksDB SSTable (on SSD).
//!
//! Expected shape (paper): PM table builds ~40% faster than Array-based
//! and ~70% faster than SSTable; Array-snappy fails to improve; the
//! group variant is faster than Array-based. On reads, PM table beats
//! Array-based (by up to 22%), snappy variants are 2.3x+ slower, and
//! SSTable reads are ~10x slower.

use std::sync::Arc;

use bench::compressed_array::{
    SnappyGroupTable, SnappyGroupTableBuilder, SnappyTable, SnappyTableBuilder,
};
use bench::{index_entries, us, Table};
use encoding::key::KeyKind;
use pm_device::PmPool;
use pmtable::{
    ArrayTable, ArrayTableBuilder, MetaExtractor, PmTable, PmTableBuilder, PmTableOptions,
};
use sim::{CostModel, Pcg64, SimDuration, Timeline};
use ssd_device::SsdDevice;
use sstable::{BlockCache, SsTable, SsTableBuilder, SsTableOptions};

const PROBES: usize = 3_000;

/// A probe closure over any of the five table formats.
type Reader = Box<dyn Fn(&[u8], &mut Timeline) -> bool>;

struct Built {
    build_time: SimDuration,
    reader: Reader,
}

fn main() {
    let cost = CostModel::default();
    let mut build_table = Table::new(
        "Fig 6(a) — minor compaction duration (normalized to Array-based)",
        &[
            "entries",
            "PM table",
            "Array",
            "Array-snappy",
            "snappy-group",
            "SSTable",
        ],
    );
    let mut read_table = Table::new(
        "Fig 6(b) — point-read latency",
        &[
            "entries",
            "PM table",
            "Array",
            "Array-snappy",
            "snappy-group",
            "SSTable",
        ],
    );

    for &n in &[20_000usize, 50_000, 100_000, 200_000] {
        let entries = Arc::new(index_entries(n, 8, 42));
        let pool = PmPool::new(1 << 30, cost);

        let mut variants: Vec<(&str, Built)> = Vec::new();

        // PM table (prefix compression).
        {
            let mut b = PmTableBuilder::new(PmTableOptions {
                group_size: 16,
                extractor: MetaExtractor::Delimiter(b':'),
                filter_bits_per_key: 0,
                codec: pmtable::CodecMode::Prefix,
            });
            for e in entries.iter() {
                b.add(e.clone());
            }
            let mut tl = Timeline::new();
            let (bytes, _) = b.finish(&cost, &mut tl);
            let region = pool.publish(bytes, &mut tl).unwrap();
            let t = PmTable::open(region).unwrap();
            variants.push((
                "pm",
                Built {
                    build_time: tl.elapsed(),
                    reader: Box::new(move |k, tl| t.get(k, u64::MAX, tl).is_some()),
                },
            ));
        }
        // Array-based.
        {
            let mut b = ArrayTableBuilder::new();
            for e in entries.iter() {
                b.add(e.clone());
            }
            let mut tl = Timeline::new();
            let (bytes, _) = b.finish(&cost, &mut tl);
            let region = pool.publish(bytes, &mut tl).unwrap();
            let t = ArrayTable::open(region).unwrap();
            variants.push((
                "array",
                Built {
                    build_time: tl.elapsed(),
                    reader: Box::new(move |k, tl| t.get(k, u64::MAX, tl).is_some()),
                },
            ));
        }
        // Array-snappy (per pair).
        {
            let mut b = SnappyTableBuilder::new();
            for e in entries.iter() {
                b.add(e.clone());
            }
            let mut tl = Timeline::new();
            let (bytes, _) = b.finish(&cost, &mut tl);
            let region = pool.publish(bytes, &mut tl).unwrap();
            let t = SnappyTable::open(region).unwrap();
            variants.push((
                "snappy",
                Built {
                    build_time: tl.elapsed(),
                    reader: Box::new(move |k, tl| t.get(k, u64::MAX, tl).is_some()),
                },
            ));
        }
        // Array-snappy-group.
        {
            let mut b = SnappyGroupTableBuilder::new();
            for e in entries.iter() {
                b.add(e.clone());
            }
            let mut tl = Timeline::new();
            let (bytes, _) = b.finish(&cost, &mut tl);
            let region = pool.publish(bytes, &mut tl).unwrap();
            let t = SnappyGroupTable::open(region).unwrap();
            variants.push((
                "group",
                Built {
                    build_time: tl.elapsed(),
                    reader: Box::new(move |k, tl| t.get(k, u64::MAX, tl).is_some()),
                },
            ));
        }
        // RocksDB SSTable on SSD.
        {
            let device = SsdDevice::new(cost);
            let cache = Arc::new(BlockCache::new(256 << 10));
            let mut tl = Timeline::new();
            let name = format!("fig6-{n}.sst");
            let mut b = SsTableBuilder::new(&device, &name, SsTableOptions::default()).unwrap();
            for e in entries.iter() {
                b.add(&e.user_key, e.seq, KeyKind::Value, &e.value, &mut tl);
            }
            b.finish(&mut tl).unwrap();
            let build_time = tl.elapsed();
            let t = SsTable::open(&device, &name, cache, &mut tl).unwrap();
            variants.push((
                "sstable",
                Built {
                    build_time,
                    reader: Box::new(move |k, tl| matches!(t.get(k, u64::MAX, tl), Ok(Some(_)))),
                },
            ));
        }

        // Build-duration row, normalized to Array-based.
        let array_build = variants[1].1.build_time;
        let mut brow = vec![n.to_string()];
        for (_, built) in &variants {
            brow.push(format!(
                "{:.2}x",
                built.build_time.as_nanos() as f64 / array_build.as_nanos() as f64
            ));
        }
        build_table.row(&brow);

        // Read-latency row.
        let mut rng = Pcg64::seeded(5);
        let probes: Vec<&[u8]> = (0..PROBES)
            .map(|_| {
                entries[rng.next_below(entries.len() as u64) as usize]
                    .user_key
                    .as_slice()
            })
            .collect();
        let mut rrow = vec![n.to_string()];
        for (_, built) in &variants {
            let mut tl = Timeline::new();
            let mut hits = 0usize;
            for k in &probes {
                if (built.reader)(k, &mut tl) {
                    hits += 1;
                }
            }
            assert_eq!(hits, PROBES, "every probe must hit");
            rrow.push(us(tl.elapsed() / PROBES as u64));
        }
        read_table.row(&rrow);
    }

    build_table.print();
    println!(
        "\npaper 6(a): PM ~0.6x of Array; snappy ≥ Array; group ~0.6x; \
         SSTable ~3x"
    );
    read_table.print();
    println!(
        "\npaper 6(b): PM < Array (−22% at 32MB); snappy ~2.3x Array; \
         group worse than snappy; SSTable up to ~9x"
    );
}
