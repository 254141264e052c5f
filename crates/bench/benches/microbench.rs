//! Criterion microbenchmarks for the hot code paths.
//!
//! These measure *host* wall time (how fast the reproduction itself
//! runs), complementing the virtual-clock experiment binaries that
//! regenerate the paper's tables and figures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_blade::{Db, Options};
use pmtable::{
    ArrayTable, ArrayTableBuilder, DramBuf, MetaExtractor, OwnedEntry, PmTable, PmTableBuilder,
    PmTableOptions, Storage,
};
use sim::{CostModel, Pcg64, Timeline};

fn entries(n: usize) -> Vec<OwnedEntry> {
    let mut rng = Pcg64::seeded(1);
    let mut out: Vec<OwnedEntry> = (0..n)
        .map(|i| {
            let mut value = vec![0u8; 100];
            rng.fill_bytes(&mut value);
            OwnedEntry::value(
                format!("t{:03}:{:012}", i % 8, i * 17).into_bytes(),
                i as u64 + 1,
                value,
            )
        })
        .collect();
    out.sort_by(|a, b| a.internal_cmp(b));
    out
}

fn build_pm_table(data: &[OwnedEntry]) -> PmTable<DramBuf> {
    let cost = CostModel::default();
    let mut b = PmTableBuilder::new(PmTableOptions {
        group_size: 16,
        extractor: MetaExtractor::Delimiter(b':'),
        filter_bits_per_key: 0,
        codec: pmtable::CodecMode::Prefix,
    });
    for e in data {
        b.add(e.clone());
    }
    let (bytes, _) = b.finish(&cost, &mut Timeline::new());
    PmTable::open(DramBuf::new(bytes, cost)).unwrap()
}

fn bench_pm_table(c: &mut Criterion) {
    let data = entries(10_000);
    c.bench_function("pm_table/build_10k", |b| {
        b.iter_batched(
            || data.clone(),
            |data| build_pm_table(&data),
            BatchSize::SmallInput,
        )
    });
    let table = build_pm_table(&data);
    let mut rng = Pcg64::seeded(2);
    c.bench_function("pm_table/get", |b| {
        b.iter(|| {
            let probe = &data[rng.next_below(data.len() as u64) as usize];
            table
                .get(&probe.user_key, u64::MAX, &mut Timeline::new())
                .expect("hit")
        })
    });
}

fn bench_array_table(c: &mut Criterion) {
    let data = entries(10_000);
    let cost = CostModel::default();
    let mut b = ArrayTableBuilder::new();
    for e in &data {
        b.add(e.clone());
    }
    let (bytes, _) = b.finish(&cost, &mut Timeline::new());
    let table = ArrayTable::open(DramBuf::new(bytes, cost)).unwrap();
    let mut rng = Pcg64::seeded(3);
    c.bench_function("array_table/get", |b| {
        b.iter(|| {
            let probe = &data[rng.next_below(data.len() as u64) as usize];
            table
                .get(&probe.user_key, u64::MAX, &mut Timeline::new())
                .expect("hit")
        })
    });
}

fn bench_szip(c: &mut Criterion) {
    let data = entries(64);
    let raw: Vec<u8> = data
        .iter()
        .flat_map(|e| e.user_key.iter().chain(e.value.iter()).copied())
        .collect();
    c.bench_function("szip/compress_8k", |b| {
        b.iter(|| bench::szip::compress(&raw))
    });
    let compressed = bench::szip::compress(&raw);
    c.bench_function("szip/decompress_8k", |b| {
        b.iter(|| bench::szip::decompress(&compressed).unwrap())
    });
}

fn bench_crc(c: &mut Criterion) {
    // One SSTable block's checksum: what a block-cache miss verifies.
    let mut block = vec![0u8; 4096];
    Pcg64::seeded(4).fill_bytes(&mut block);
    c.bench_function("encoding/crc32c_4k", |b| {
        b.iter(|| encoding::crc::crc32c(std::hint::black_box(&block)))
    });
    c.bench_function("encoding/crc32c_4k_portable", |b| {
        b.iter(|| encoding::crc::extend_portable(0, std::hint::black_box(&block)))
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/put_get_cycle", |b| {
        let db = Db::open(Options {
            memtable_bytes: 256 << 10,
            ..Options::pm_blade(32 << 20)
        })
        .unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("key{:010}", i % 10_000);
            db.put(key.as_bytes(), b"benchmark-value-payload").unwrap();
            let out = db.get(key.as_bytes()).unwrap();
            i += 1;
            out.latency
        })
    });
    // The fully cached point read at the level-0 shape the repo
    // benchmark's read workloads run against: 30 mutually overlapping
    // unsorted tables in one partition (PMBlade-PM mode never merges
    // them), every group a get touches already decoded in the cache.
    c.bench_function("engine/get_cached_30_unsorted", |b| {
        let db = Db::open(Options {
            mode: pm_blade::Mode::PmBladePm,
            memtable_bytes: 1 << 20,
            l0_table_trigger: usize::MAX,
            trace_sample_every: 0,
            ..Options::pm_blade(32 << 20)
        })
        .unwrap();
        for table in 0..30u64 {
            for i in (table..3_000).step_by(30) {
                let key = format!("key{i:010}");
                db.put(key.as_bytes(), b"benchmark-value-payload").unwrap();
            }
            db.compact(pm_blade::CompactionRequest::FlushAll).unwrap();
        }
        let hot: Vec<String> = (0..3_000)
            .step_by(7)
            .map(|i| format!("key{i:010}"))
            .collect();
        for key in &hot {
            db.get(key.as_bytes()).unwrap();
        }
        let mut i = 0;
        b.iter(|| {
            i += 1;
            db.get(hot[i % hot.len()].as_bytes()).unwrap().latency
        })
    });
}

fn bench_merge(c: &mut Criterion) {
    let a = entries(5_000);
    let b2 = entries(5_000);
    let cost = CostModel::default();
    c.bench_function("compaction/merge_dedup_10k", |b| {
        b.iter_batched(
            || vec![a.clone(), b2.clone()],
            |sources| pm_blade::handle::merge_dedup(sources, false, &cost, &mut Timeline::new()),
            BatchSize::SmallInput,
        )
    });
}

/// The merge behind scans and compactions, over 30 mutually
/// overlapping PM tables (every table holds every 30th key, as a
/// partition's unsorted level-0 does). The scan pulls 50 rows from a
/// rotating start key through a shared group cache, the tables behind
/// their level-0's merged key column until the merge reaches each; the
/// internal compaction streams all 30 tables, read
/// sequentially, into a new sorted run. `compaction/merge_dedup_10k`
/// above is the materialising reference both replaced.
fn bench_scan_merge(c: &mut Criterion) {
    use pm_blade::costmodel::CodecCostTable;
    use pm_blade::cursor::{merge_into, Cursor, MergingIter, ScanStats};
    use pm_blade::handle::PmRunWriter;
    use pm_blade::level0::PmLevel0;
    use pm_blade::run::RunCursor;
    let cost = CostModel::default();
    let pool = pm_device::PmPool::new(64 << 20, cost);
    let (opts, costs) = (Options::default(), CodecCostTable::default());
    let all = entries(30 * 250);
    let device = ssd_device::SsdDevice::new(cost);
    let cache = std::sync::Arc::new(sstable::BlockCache::new(0));
    let (counter, errors) = (std::sync::atomic::AtomicU64::new(0), sim::Counter::new());
    let media = pm_blade::partition::Media {
        opts: &opts,
        codec_costs: &costs,
        pool: &pool,
        device: &device,
        cache: &cache,
        table_counter: &counter,
        input_errors: &errors,
        retire_errors: &errors,
    };
    let run_writer = |max_bytes| PmRunWriter::new(&media, max_bytes);
    let mut l0 = PmLevel0::new();
    for source in 0..30 {
        let mut writer = PmRunWriter::unsorted(&media);
        for e in all.iter().skip(source).step_by(30) {
            writer.add(e.as_ref(), &mut Timeline::new()).unwrap();
        }
        for (table, keys) in writer.finish(&mut Timeline::new()).unwrap() {
            l0.push_unsorted(table, keys);
        }
    }
    let tables = l0.unsorted();
    let cache = pm_blade::PmGroupCache::new(4 << 20);
    let starts: Vec<&[u8]> = all.iter().step_by(97).map(|e| &e.user_key[..]).collect();
    c.bench_function("scan/merging_iter_50_of_30_sources", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            let cursors = l0.cursors(usize::MAX, None, Some(&cache));
            let (mut stats, mut tl) = (ScanStats::default(), Timeline::new());
            let mut rows = MergingIter::new(
                cursors,
                starts[i % starts.len()],
                None,
                true,
                cost.cpu.merge_per_entry,
                &mut stats,
                &mut tl,
            )
            .unwrap();
            let mut pulled = 0;
            while pulled < 50 && rows.next(&mut tl).unwrap().is_some() {
                pulled += 1;
            }
            pulled
        })
    });
    let errors = sim::Counter::new();
    c.bench_function("compaction/stream_internal_30_tables", |b| {
        b.iter(|| {
            let runs = tables.iter().map(std::slice::from_ref);
            let cursors = runs.map(|run| Cursor::Pm(RunCursor::new(run, None, None)));
            let (mut tl, mut writer) = (Timeline::new(), run_writer(256 << 10));
            let sink = |e: pmtable::EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            merge_into(cursors, false, &cost, &errors, &mut tl, sink).unwrap();
            let run = writer.finish(&mut tl).unwrap();
            run.iter()
                .for_each(|(table, _)| pool.free(table.region()).unwrap());
            run.len()
        })
    });
}

/// An SSD-to-SSD merge, as a major that lands below level 1 runs one:
/// two SSTable runs (10 000 records, and a newer version of every other
/// one) streamed into a third.
fn bench_ssd_merge(c: &mut Criterion) {
    use pm_blade::cursor::{merge_into, Cursor};
    use pm_blade::levels::SsRunWriter;
    use pm_blade::run::RunCursor;
    let cost = CostModel::default();
    let device = ssd_device::SsdDevice::new(cost);
    let cache = std::sync::Arc::new(sstable::BlockCache::new(2 << 20));
    let counter = std::sync::atomic::AtomicU64::new(0);
    let (opts, costs) = (
        Options::default(),
        pm_blade::costmodel::CodecCostTable::default(),
    );
    let pool = pm_device::PmPool::new(0, cost);
    let errors = sim::Counter::new();
    let media = pm_blade::partition::Media {
        opts: &opts,
        codec_costs: &costs,
        pool: &pool,
        device: &device,
        cache: &cache,
        table_counter: &counter,
        input_errors: &errors,
        retire_errors: &errors,
    };
    let run_writer = |level: &str| SsRunWriter::new(&media, level.into(), 256 << 10);
    let older = entries(10_000);
    let newer = older.iter().step_by(2).map(|e| OwnedEntry {
        seq: e.seq + (1 << 20),
        ..e.clone()
    });
    let build = |level: &str, run: &mut dyn Iterator<Item = OwnedEntry>| {
        let mut writer = run_writer(level);
        for e in run {
            writer.add(e.as_ref(), &mut Timeline::new()).unwrap();
        }
        writer.finish(&mut Timeline::new()).unwrap()
    };
    let runs = [
        build("L1", &mut { newer }),
        build("L2", &mut older.iter().cloned()),
    ];
    let errors = sim::Counter::new();
    c.bench_function("compaction/stream_ssd_merge_2_runs", |b| {
        b.iter(|| {
            let cursors = runs
                .each_ref()
                .map(|run| Cursor::Ss(RunCursor::new(run, None, None)));
            let (mut tl, mut writer) = (Timeline::new(), run_writer("out"));
            let sink = |e: pmtable::EntryRef<'_>, tl: &mut Timeline| writer.add(e, tl);
            merge_into(cursors, true, &cost, &errors, &mut tl, sink).unwrap();
            let run = writer.finish(&mut tl).unwrap();
            run.iter()
                .for_each(|table| device.delete(table.table.name()).unwrap());
            run.len()
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    // A group-cache hit: 16 shards, 4 096 groups of 64 tables resident;
    // the shard's map lookup, one relink, one `Arc` clone.
    use sstable::cache::{CacheKey, LruCache};
    let cache = LruCache::<std::sync::Arc<[u8; 64]>, 16>::new(64 << 20);
    let keys: Vec<CacheKey> = (0..4096)
        .map(|i| CacheKey {
            table: 1 + i % 64,
            pos: i / 64,
        })
        .collect();
    for &key in &keys {
        cache.insert(key, std::sync::Arc::new([0; 64]), 64);
    }
    let mut i = 0;
    c.bench_function("cache/group_get_hit", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            cache.get(keys[i]).expect("hit")
        })
    });
}

fn bench_storage_metering_overhead(c: &mut Criterion) {
    // The metering layer must stay cheap relative to the data work.
    let buf = DramBuf::with_default_cost(vec![0u8; 4096]);
    c.bench_function("sim/meter_random_read", |b| {
        let mut tl = Timeline::new();
        b.iter(|| buf.meter_random(64, &mut tl))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_pm_table,
        bench_array_table,
        bench_szip,
        bench_crc,
        bench_engine,
        bench_merge,
        bench_scan_merge,
        bench_ssd_merge,
        bench_cache,
        bench_storage_metering_overhead
);
criterion_main!(benches);
