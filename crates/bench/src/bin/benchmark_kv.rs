//! `benchmark_kv` — the paper's db_bench-style micro-benchmark CLI.
//!
//! The paper extended RocksDB's db_bench with record/index-table
//! support; this binary exposes the same surface over the PM-Blade
//! engine:
//!
//! ```text
//! benchmark_kv [--mode pmblade|pmblade-pm|rocksdb|matrixkv]
//!              [--benchmark fillseq|fillrandom|readrandom|readhot|
//!                           updaterandom|readwhilewriting|seekrandom|
//!                           timeseries|indextable]
//!              [--num N] [--value-size B] [--key-size B] [--skew Z]
//!              [--reads N] [--partitions P] [--pm-mib M] [--threads T]
//!              [--maintenance inline|background] [--metrics-out PATH]
//!              [--pm-filter-bits B] [--pm-cache-bytes N]
//!              [--pm-codec prefix|delta|fixed|auto]
//!              [--server [HOST:PORT]] [--connections N]
//!              [--encoding-report]
//!
//! `--server` switches to the network-service benchmark: `--num` puts
//! then `--reads` gets issued over `--connections` TCP clients through
//! `pm-blade-client`, measuring wall-clock round trips. With no address
//! a `pm-blade-server` is spawned in-process on an ephemeral loopback
//! port; with `HOST:PORT` an external server is used. Results are
//! written to `BENCH_server.json`.
//!
//! `readhot` is the zipfian hot-set read workload: after a random fill,
//! reads hammer a small hot subset of the keyspace (1% of `--num`,
//! zipf-skewed within it). Repeat reads of the same PM prefix groups are
//! exactly what the shared group-decode cache accelerates.
//!
//! `--key-size B` pads every generated key (sequential fills included)
//! out to exactly B bytes; 0 keeps the legacy `user{:010}` format.
//!
//! `timeseries` is the numeric-codec showcase: a monotonic u64 key
//! stream (8-byte big-endian keys, so byte order matches numeric order)
//! with fixed 8-byte values, filled sequentially, flushed, then read
//! back at random. `--pm-codec` forces the PM table codec for any
//! benchmark (`auto` lets the flush-time cost model choose per batch).
//!
//! `--encoding-report` sweeps the codec modes over both the timeseries
//! and readrandom workloads, prints the calibrated per-codec decode
//! costs, and writes the comparison (PM bytes/entry, decode nanos, read
//! p99s per codec) to `BENCH_encoding.json`.
//!
//! `--pm-filter-bits` sets the per-key bloom-filter budget for PM-L0
//! tables (0 disables filters); `--pm-cache-bytes` sizes the shared
//! decoded-group cache (0 disables it). Both default to the engine
//! defaults. Compare `readrandom` p99 with `--pm-filter-bits 0
//! --pm-cache-bytes 0` against the defaults to see the read-path
//! acceleration (recorded in `BENCH_read_path.json`).
//!
//! `--maintenance background` moves flush/compaction onto the engine's
//! worker pool, so put latencies no longer absorb maintenance time —
//! compare `rww/writes` p99 against the default `inline` run.
//!
//! `--threads T` runs the write benchmarks (`fillseq`, `fillrandom`,
//! `updaterandom`) with T OS threads sharing one
//! `Arc<Db>`; concurrent writers coalesce through the engine's
//! per-partition group commit.
//!
//! `--metrics-out PATH` writes the engine's final metrics snapshot
//! (counters, latency quantiles, compaction spans) to PATH as JSON.
//! ```
//!
//! Example: `cargo run --release -p bench --bin benchmark_kv -- \
//!           --benchmark readrandom --num 50000 --skew 0.9`

use pm_blade::costmodel::CodecCostTable;
use pm_blade::{
    CompactionRequest, Db, MaintenanceMode, Mode, Options, Partitioner, Relational, ScanRequest,
    TableDef,
};
use pmtable::{CodecMode, CODEC_COUNT, CODEC_NAMES};
use sim::{Histogram, KeyDistribution, Pcg64, SimDuration};
use workloads::{run_kv, KvWorkload, KvWorkloadSpec};

#[derive(Debug)]
struct Args {
    mode: Mode,
    benchmark: String,
    num: u64,
    value_size: usize,
    /// Total key length in bytes; 0 keeps the legacy `user{:010}`
    /// format. Applies to every workload, sequential fills included.
    key_size: usize,
    skew: f64,
    reads: u64,
    partitions: usize,
    pm_mib: usize,
    threads: usize,
    maintenance: MaintenanceMode,
    metrics_out: Option<std::path::PathBuf>,
    pm_filter_bits: Option<usize>,
    pm_cache_bytes: Option<usize>,
    /// `Some("")` = spawn an in-process server on an ephemeral port;
    /// `Some(addr)` = benchmark an already-running server at `addr`.
    server: Option<String>,
    connections: usize,
    /// Forced PM table codec mode; `None` keeps the engine default
    /// (cost-model-driven auto selection per flush).
    pm_codec: Option<CodecMode>,
    /// Switches to the codec-mode sweep; results go to
    /// `BENCH_encoding.json`.
    encoding_report: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            mode: Mode::PmBlade,
            benchmark: "fillrandom".into(),
            num: 20_000,
            value_size: 100,
            key_size: 0,
            skew: 0.0,
            reads: 20_000,
            partitions: 8,
            pm_mib: 8,
            threads: 1,
            maintenance: MaintenanceMode::Inline,
            metrics_out: None,
            pm_filter_bits: None,
            pm_cache_bytes: None,
            server: None,
            connections: 8,
            pm_codec: None,
            encoding_report: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        // `--server` takes an *optional* address, so it must peek ahead
        // before the `value` closure borrows the iterator.
        if flag == "--server" {
            args.server = Some(match it.peek() {
                Some(v) if !v.starts_with('-') => it.next().unwrap(),
                _ => String::new(),
            });
            continue;
        }
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--mode" => {
                args.mode = match value().as_str() {
                    "pmblade" => Mode::PmBlade,
                    "pmblade-pm" => Mode::PmBladePm,
                    "rocksdb" => Mode::SsdLevel0,
                    "matrixkv" => Mode::MatrixKv,
                    other => {
                        eprintln!("unknown mode {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--benchmark" => args.benchmark = value(),
            "--num" => args.num = value().parse().expect("--num"),
            "--value-size" => args.value_size = value().parse().expect("--value-size"),
            "--key-size" => args.key_size = value().parse().expect("--key-size"),
            "--skew" => args.skew = value().parse().expect("--skew"),
            "--reads" => args.reads = value().parse().expect("--reads"),
            "--partitions" => args.partitions = value().parse().expect("--partitions"),
            "--pm-mib" => args.pm_mib = value().parse().expect("--pm-mib"),
            "--threads" => {
                args.threads = value().parse().expect("--threads");
                if args.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
            }
            "--maintenance" => {
                args.maintenance = match value().as_str() {
                    "inline" => MaintenanceMode::Inline,
                    "background" => MaintenanceMode::Background,
                    other => {
                        eprintln!("unknown maintenance mode {other}");
                        std::process::exit(2);
                    }
                }
            }
            "--metrics-out" => {
                args.metrics_out = Some(value().into());
            }
            "--pm-filter-bits" => {
                args.pm_filter_bits = Some(value().parse().expect("--pm-filter-bits"));
            }
            "--pm-cache-bytes" => {
                args.pm_cache_bytes = Some(value().parse().expect("--pm-cache-bytes"));
            }
            "--pm-codec" => {
                args.pm_codec = Some(match value().as_str() {
                    "prefix" => CodecMode::Prefix,
                    "delta" => CodecMode::Delta,
                    "fixed" => CodecMode::Fixed,
                    "auto" => CodecMode::Auto,
                    other => {
                        eprintln!("unknown codec mode {other}");
                        std::process::exit(2);
                    }
                })
            }
            "--encoding-report" => args.encoding_report = true,
            "--connections" => {
                args.connections = value().parse().expect("--connections");
                if args.connections == 0 {
                    eprintln!("--connections must be at least 1");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "benchmark_kv: db_bench-style micro-benchmark for \
                     PM-Blade\n(see the module docs for flags)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

fn bench_options(args: &Args) -> Options {
    let mut opts: Options = match args.mode {
        Mode::PmBlade => Options::pm_blade(args.pm_mib << 20),
        Mode::PmBladePm => Options::pm_blade_pm(args.pm_mib << 20),
        Mode::SsdLevel0 => Options::rocksdb_like(),
        Mode::MatrixKv => Options::matrixkv(args.pm_mib << 20),
    };
    // A small memtable makes flush cost visible in write latencies —
    // exactly the spike `--maintenance background` is meant to remove.
    opts.memtable_bytes = 8 << 10;
    opts.maintenance = args.maintenance;
    opts.partitioner = Partitioner::numeric("user", args.num.max(1), args.partitions.max(1));
    if let Some(bits) = args.pm_filter_bits {
        opts.pm_filter_bits_per_key = bits;
    }
    if let Some(bytes) = args.pm_cache_bytes {
        opts.pm_group_cache_bytes = bytes;
    }
    if let Some(codec) = args.pm_codec {
        opts.pm_codec_mode = codec;
    }
    opts
}

/// Format key `i` the way the fill phases do, honouring `--key-size`.
/// Mirrors `KvWorkloadSpec::key` so read phases always agree with the
/// keys the workload generator wrote.
fn user_key(key_size: usize, i: u64) -> Vec<u8> {
    if key_size == 0 {
        return format!("user{i:010}").into_bytes();
    }
    let digits = key_size.saturating_sub(4).max(1);
    format!("user{i:0digits$}").into_bytes()
}

fn open_db(args: &Args) -> Db {
    Db::open(bench_options(args)).expect("engine opens")
}

/// Write the engine's final metrics snapshot as JSON, if requested.
fn write_metrics(db: &Db, args: &Args) {
    let Some(path) = &args.metrics_out else {
        return;
    };
    let snap = db.metrics_snapshot();
    std::fs::write(path, snap.to_json()).unwrap_or_else(|e| {
        eprintln!("--metrics-out {}: {e}", path.display());
        std::process::exit(1);
    });
    println!(
        "metrics: {} counters, {} histograms, {} spans ({} evicted) -> {}",
        snap.counters.len(),
        snap.histograms.len(),
        snap.spans.len(),
        snap.spans_dropped,
        path.display()
    );
}

/// Settle the engine and emit final metrics: drains the background
/// maintenance queue (a no-op under `--maintenance inline`) so reported
/// compaction counters cover the whole run, then writes the snapshot.
fn finish(db: &Db, args: &Args) {
    db.close();
    write_metrics(db, args);
}

fn report(name: &str, hist: &Histogram, total: SimDuration, ops: u64) {
    let tput = ops as f64 / total.as_secs_f64().max(1e-12);
    println!(
        "{name:<18} {ops:>9} ops  {tput:>12.0} ops/s  \
         mean {:>9}  p50 {:>9}  p99 {:>9}  p99.9 {:>9}",
        hist.mean_duration(),
        hist.quantile_duration(0.5),
        hist.quantile_duration(0.99),
        hist.quantile_duration(0.999),
    );
}

/// Run `total` writes across `args.threads` OS threads sharing one
/// `Arc<Db>`. Each thread owns a disjoint slice of the key domain (for
/// fills) or a distinct sampling seed (for updates). Reports the
/// combined latency histogram plus *wall-clock* throughput, which is
/// what the thread count actually buys: group commit amortises WAL and
/// memtable work across concurrent writers.
fn threaded_writes(
    db: &std::sync::Arc<Db>,
    args: &Args,
    name: &str,
    total_ops: u64,
    sequential: bool,
    update: bool,
) {
    let threads = args.threads.max(1) as u64;
    let per_thread = total_ops / threads;
    let wall_start = std::time::Instant::now();
    let results: Vec<(Histogram, SimDuration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = std::sync::Arc::clone(db);
                let value = vec![b'm'; args.value_size];
                let dist = KeyDistribution::zipfian(args.num, args.skew);
                s.spawn(move || {
                    let mut hist = Histogram::new();
                    let mut virt = SimDuration::ZERO;
                    let mut rng = Pcg64::seeded(0x7453 + t);
                    for i in 0..per_thread {
                        let key_id = if update {
                            dist.sample(&mut rng, args.num)
                        } else if sequential {
                            t * per_thread + i
                        } else {
                            // Disjoint stripes keep fills collision-free.
                            (t * per_thread + i).wrapping_mul(0x9e3779b97f4a7c15) % args.num.max(1)
                        };
                        let k = user_key(args.key_size, key_id);
                        let d = db.put(&k, &value).expect("put");
                        hist.record_duration(d);
                        virt += d;
                    }
                    (hist, virt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall_start.elapsed();
    let mut merged = Histogram::new();
    let mut virt_max = SimDuration::ZERO;
    for (h, v) in results {
        merged.merge(&h);
        virt_max = virt_max.max(v);
    }
    let ops = per_thread * threads;
    // Virtual elapsed for the parallel phase: the slowest thread's
    // virtual time (threads overlap in simulated time, like real ones).
    report(name, &merged, virt_max, ops);
    println!(
        "{:<18} wall {:>8.2?}  {:>12.0} ops/s (wall, {} threads)           group commits {}",
        "",
        wall,
        ops as f64 / wall.as_secs_f64().max(1e-12),
        threads,
        db.stats().group_commits.get(),
    );
}

fn fill(db: &mut Db, args: &Args, sequential: bool) -> SimDuration {
    let mut w = KvWorkload::new(KvWorkloadSpec {
        keys: args.num,
        key_size: args.key_size,
        value_size: args.value_size,
        ..KvWorkloadSpec::default()
    });
    let ops = if sequential {
        w.fill_sequential()
    } else {
        w.fill_random()
    };
    let m = run_kv(db, &ops).expect("fill");
    report(
        if sequential { "fillseq" } else { "fillrandom" },
        &m.writes,
        m.elapsed,
        m.operations,
    );
    m.elapsed
}

fn read_random(db: &mut Db, args: &Args) -> Histogram {
    let dist = KeyDistribution::zipfian(args.num, args.skew);
    let mut rng = Pcg64::seeded(0xbe9c);
    let mut hist = Histogram::new();
    let mut total = SimDuration::ZERO;
    let mut hits = 0u64;
    for _ in 0..args.reads {
        let k = user_key(args.key_size, dist.sample(&mut rng, args.num));
        let out = db.get(&k).expect("get");
        if out.value.is_some() {
            hits += 1;
        }
        hist.record_duration(out.latency);
        total += out.latency;
    }
    report("readrandom", &hist, total, args.reads);
    println!(
        "{:<18} hit ratio {:.1}%  served from pm {:.1}%",
        "",
        100.0 * hits as f64 / args.reads as f64,
        100.0 * db.stats().pm_hit_ratio()
    );
    report_read_path(db);
    hist
}

/// Print the PM-L0 read-acceleration counters (bloom filters + shared
/// group-decode cache) after a read benchmark.
fn report_read_path(db: &Db) {
    let snap = db.metrics_snapshot();
    let checked = snap.counter("pm_filter_checked_total");
    let useful = snap.counter("pm_filter_useful_total");
    let cache_hits = snap.counter("pm_group_cache_hit_total");
    let cache_misses = snap.counter("pm_group_cache_miss_total");
    println!(
        "{:<18} filters: {useful}/{checked} pruned ({:.1}%)  \
         group cache: {cache_hits} hits / {cache_misses} misses ({:.1}%)",
        "",
        100.0 * useful as f64 / checked.max(1) as f64,
        100.0 * cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
    );
}

/// Zipfian hot-set reads: hammer the hottest 1% of the keyspace after a
/// random fill. Repeat reads decode the same PM prefix groups, so this
/// is the shared group-decode cache's best case.
fn read_hot(db: &mut Db, args: &Args) {
    let hot = (args.num / 100).max(1);
    let skew = if args.skew > 0.0 { args.skew } else { 0.99 };
    let dist = KeyDistribution::zipfian(hot, skew);
    let mut rng = Pcg64::seeded(0x407e);
    let mut hist = Histogram::new();
    let mut total = SimDuration::ZERO;
    let mut hits = 0u64;
    for _ in 0..args.reads {
        // Spread the hot ids across the keyspace so they span tables.
        let id = dist.sample(&mut rng, hot).wrapping_mul(0x9e3779b97f4a7c15) % args.num.max(1);
        let k = user_key(args.key_size, id);
        let out = db.get(&k).expect("get");
        if out.value.is_some() {
            hits += 1;
        }
        hist.record_duration(out.latency);
        total += out.latency;
    }
    report("readhot", &hist, total, args.reads);
    println!(
        "{:<18} hot set {hot} keys  hit ratio {:.1}%  served from pm {:.1}%",
        "",
        100.0 * hits as f64 / args.reads as f64,
        100.0 * db.stats().pm_hit_ratio()
    );
    report_read_path(db);
}

fn update_random(db: &mut Db, args: &Args) {
    let dist = KeyDistribution::zipfian(args.num, args.skew);
    let mut rng = Pcg64::seeded(0x0bad);
    let mut hist = Histogram::new();
    let mut total = SimDuration::ZERO;
    let value = vec![b'u'; args.value_size];
    for _ in 0..args.reads {
        let k = user_key(args.key_size, dist.sample(&mut rng, args.num));
        let d = db.put(&k, &value).expect("put");
        hist.record_duration(d);
        total += d;
    }
    report("updaterandom", &hist, total, args.reads);
}

fn read_while_writing(db: &mut Db, args: &Args) {
    let dist = KeyDistribution::zipfian(args.num, args.skew);
    let mut rng = Pcg64::seeded(0x1eaf);
    let mut reads = Histogram::new();
    let mut writes = Histogram::new();
    let mut total = SimDuration::ZERO;
    let value = vec![b'w'; args.value_size];
    for i in 0..args.reads {
        let k = user_key(args.key_size, dist.sample(&mut rng, args.num));
        if i % 2 == 0 {
            let out = db.get(&k).expect("get");
            reads.record_duration(out.latency);
            total += out.latency;
        } else {
            let d = db.put(&k, &value).expect("put");
            writes.record_duration(d);
            total += d;
        }
    }
    report("rww/reads", &reads, total, args.reads / 2);
    report("rww/writes", &writes, total, args.reads / 2);
}

fn seek_random(db: &mut Db, args: &Args) {
    let dist = KeyDistribution::zipfian(args.num, args.skew);
    let mut rng = Pcg64::seeded(0x5eeb);
    let mut hist = Histogram::new();
    let mut total = SimDuration::ZERO;
    for _ in 0..args.reads.min(5_000) {
        let k = user_key(args.key_size, dist.sample(&mut rng, args.num));
        let (_, d) = db
            .scan(ScanRequest::new().start(k).limit(50))
            .expect("scan");
        hist.record_duration(d);
        total += d;
    }
    report("seekrandom(50)", &hist, total, args.reads.min(5_000));
}

/// What one `timeseries` run measured, for `--encoding-report`.
struct TimeseriesStats {
    pm_bytes_per_entry: f64,
    codec_histogram: [u64; CODEC_COUNT],
    read_p99_nanos: u64,
}

/// The numeric-codec showcase: monotonic u64 keys stored as 8-byte
/// big-endian (so lexicographic order equals numeric order) with fixed
/// 8-byte values — the shape the delta-key and fixed-width-value codecs
/// were built for. Sequential fill, flush to PM, then a seeded random
/// readback over the whole range. Prints PM bytes/entry and the level-0
/// codec histogram so flush-time codec selection is visible.
fn timeseries(db: &mut Db, args: &Args) -> TimeseriesStats {
    const BASE: u64 = 1_700_000_000;
    let mut fill_hist = Histogram::new();
    let mut fill_total = SimDuration::ZERO;
    for i in 0..args.num {
        let key = (BASE + i).to_be_bytes();
        let value = (40_000 + i).to_le_bytes();
        let d = db.put(&key, &value).expect("put");
        fill_hist.record_duration(d);
        fill_total += d;
    }
    report("timeseries/fill", &fill_hist, fill_total, args.num);
    db.compact(CompactionRequest::FlushAll).expect("flush");
    let pm_bytes_per_entry = db.pm_used() as f64 / args.num.max(1) as f64;
    let codec_histogram = db.l0_codec_histogram();

    let mut rng = Pcg64::seeded(0x7153);
    let mut hist = Histogram::new();
    let mut total = SimDuration::ZERO;
    let mut hits = 0u64;
    for _ in 0..args.reads {
        let key = (BASE + rng.next_below(args.num.max(1))).to_be_bytes();
        let out = db.get(&key).expect("get");
        if out.value.is_some() {
            hits += 1;
        }
        hist.record_duration(out.latency);
        total += out.latency;
    }
    report("timeseries/reads", &hist, total, args.reads);
    println!(
        "{:<18} pm {pm_bytes_per_entry:.1} B/entry  l0 codecs \
         prefix={} delta={} fixed={}  hit ratio {:.1}%",
        "",
        codec_histogram[0],
        codec_histogram[1],
        codec_histogram[2],
        100.0 * hits as f64 / args.reads.max(1) as f64,
    );
    TimeseriesStats {
        pm_bytes_per_entry,
        codec_histogram,
        read_p99_nanos: hist.quantile(0.99),
    }
}

/// The paper's record/index-table extension: insert rows with secondary
/// indexes, then run index queries.
fn index_table(args: &Args) {
    let db = open_db(args);
    let rel = Relational::new(db, vec![TableDef::new(1, 4, vec![1, 2])]);
    let mut rng = Pcg64::seeded(0x1dbb);
    let n = args.num.min(50_000);
    let mut write_total = SimDuration::ZERO;
    for i in 0..n {
        let d = rel
            .insert_row(
                1,
                &vec![
                    format!("pk{:010}", i).into_bytes(),
                    format!("s{:02}", rng.next_below(20)).into_bytes(),
                    format!("u{:05}", rng.next_below(2_000)).into_bytes(),
                    vec![b'p'; args.value_size],
                ],
            )
            .expect("insert");
        write_total += d;
    }
    println!(
        "indextable/load   {n:>9} rows  {:>12.0} rows/s",
        n as f64 / write_total.as_secs_f64().max(1e-12)
    );
    let mut hist = Histogram::new();
    let mut total = SimDuration::ZERO;
    for _ in 0..args.reads.min(5_000) {
        let status = format!("s{:02}", rng.next_below(20));
        let (_, d) = rel
            .index_query(1, 1, status.as_bytes(), 20)
            .expect("index query");
        hist.record_duration(d);
        total += d;
    }
    report("indextable/query", &hist, total, args.reads.min(5_000));
    finish(rel.db(), args);
}

/// Format one latency phase of the server benchmark as a JSON object.
fn phase_json(hist: &Histogram) -> String {
    format!(
        "{{\"ops\": {}, \"mean_nanos\": {:.0}, \"p50_nanos\": {}, \
         \"p99_nanos\": {}, \"p999_nanos\": {}}}",
        hist.count(),
        hist.mean(),
        hist.quantile(0.5),
        hist.quantile(0.99),
        hist.quantile(0.999),
    )
}

/// The many-connection benchmark for the network service layer: `--num`
/// puts then `--reads` zipfian gets, split across `--connections` TCP
/// clients, each measuring *wall-clock* round-trip latency through
/// `pm-blade-client`. With a bare `--server` the server is spawned
/// in-process on an ephemeral loopback port and shut down (draining
/// in-flight requests) at the end, so its telemetry counters land in
/// the report; with `--server HOST:PORT` an already-running server is
/// benchmarked and only client-side numbers are available. Results go
/// to `BENCH_server.json`.
fn server_bench(args: &Args) {
    use pm_blade_client::Client;
    use pm_blade_server::{Server, ServerOptions};

    let (addr, server) = match args.server.as_deref() {
        Some(addr) if !addr.is_empty() => (addr.to_string(), None),
        _ => {
            let db = std::sync::Arc::new(open_db(args));
            let opts = ServerOptions::builder()
                .addr("127.0.0.1:0")
                .poll_interval(std::time::Duration::from_millis(5))
                .build()
                .expect("server options");
            let server = Server::start(db, opts).expect("server starts");
            (server.local_addr().to_string(), Some(server))
        }
    };
    let connections = args.connections.max(1) as u64;
    let per_conn_writes = (args.num / connections).max(1);
    let per_conn_reads = (args.reads / connections).max(1);
    println!(
        "server: {} ({} connections, {} puts + {} gets each)",
        addr, connections, per_conn_writes, per_conn_reads
    );

    let wall_start = std::time::Instant::now();
    let results: Vec<(Histogram, Histogram)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let addr = addr.clone();
                let value = vec![b'n'; args.value_size];
                let dist = KeyDistribution::zipfian(args.num, args.skew);
                s.spawn(move || {
                    let mut client = Client::connect(&*addr).expect("client connects");
                    let mut writes = Histogram::new();
                    let mut reads = Histogram::new();
                    let mut rng = Pcg64::seeded(0x53c7 + c);
                    for i in 0..per_conn_writes {
                        // Disjoint stripes keep the fill collision-free.
                        let key_id = (c * per_conn_writes + i).wrapping_mul(0x9e3779b97f4a7c15)
                            % args.num.max(1);
                        let k = user_key(args.key_size, key_id);
                        let t = std::time::Instant::now();
                        client.put(&k, &value).expect("remote put");
                        writes.record(t.elapsed().as_nanos() as u64);
                    }
                    for _ in 0..per_conn_reads {
                        let k = user_key(args.key_size, dist.sample(&mut rng, args.num));
                        let t = std::time::Instant::now();
                        client.get(&k).expect("remote get");
                        reads.record(t.elapsed().as_nanos() as u64);
                    }
                    (writes, reads)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall_start.elapsed();
    let mut writes = Histogram::new();
    let mut reads = Histogram::new();
    for (w, r) in results {
        writes.merge(&w);
        reads.merge(&r);
    }
    let total_ops = writes.count() + reads.count();
    // These histograms hold wall nanos, so wall time is the right base
    // for the per-phase throughput columns too.
    let wall_sim = SimDuration::from_nanos(wall.as_nanos() as u64);
    report("server/puts", &writes, wall_sim, writes.count());
    report("server/gets", &reads, wall_sim, reads.count());
    println!(
        "{:<18} wall {:>8.2?}  {:>12.0} ops/s (wall, {} connections)",
        "",
        wall,
        total_ops as f64 / wall.as_secs_f64().max(1e-12),
        connections,
    );

    let server_json = if let Some(server) = server {
        let db = server.shutdown();
        let snap = db.metrics_snapshot();
        println!(
            "{:<18} server: {} conns  {} puts  {} gets  {} throttled  {} errors",
            "",
            snap.counter("server_connections_total"),
            snap.counter("server_put_total"),
            snap.counter("server_get_total"),
            snap.counter("server_throttled_total"),
            snap.counter("server_errors_total"),
        );
        write_metrics(&db, args);
        format!(
            "{{\"connections_total\": {}, \"put_total\": {}, \"get_total\": {}, \
             \"throttled_total\": {}, \"errors_total\": {}}}",
            snap.counter("server_connections_total"),
            snap.counter("server_put_total"),
            snap.counter("server_get_total"),
            snap.counter("server_throttled_total"),
            snap.counter("server_errors_total"),
        )
    } else {
        "null".to_string()
    };

    let json = format!(
        "{{\n  \"benchmark\": \"server\",\n  \"mode\": \"{:?}\",\n  \
         \"address\": \"{}\",\n  \"connections\": {},\n  \
         \"value_size\": {},\n  \"skew\": {},\n  \
         \"wall_seconds\": {:.6},\n  \"ops_total\": {},\n  \
         \"throughput_ops_per_sec\": {:.0},\n  \"puts\": {},\n  \
         \"gets\": {},\n  \"server\": {}\n}}\n",
        args.mode,
        addr,
        connections,
        args.value_size,
        args.skew,
        wall.as_secs_f64(),
        total_ops,
        total_ops as f64 / wall.as_secs_f64().max(1e-12),
        phase_json(&writes),
        phase_json(&reads),
        server_json,
    );
    let out = std::path::Path::new("BENCH_server.json");
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("BENCH_server.json: {e}");
        std::process::exit(1);
    });
    println!("{:<18} results -> {}", "", out.display());
}

/// The codec-mode sweep (`--encoding-report`): for each of the four
/// codec modes, run the `timeseries` workload (PM bytes/entry, codec
/// histogram, read p99) and the text-keyed `readrandom` workload (where
/// auto selection must fall back to prefix groups without hurting the
/// tail). Prepends the calibrated per-codec decode costs and writes the
/// whole comparison to `BENCH_encoding.json`. The headline numbers are
/// `auto` vs forced `prefix`: auto must shrink timeseries PM
/// bytes/entry substantially while leaving readrandom p99 untouched.
fn encoding_report(args: &Args) {
    let costs = CodecCostTable::calibrate(&bench_options(args).cost);
    println!("calibration (1024-entry synthetic timeseries per codec):");
    for (c, name) in CODEC_NAMES.iter().enumerate() {
        println!(
            "  {name:<8} {:>6.1} B/entry  decode {:>4} ns/group  {:>3} ns/entry",
            costs.bytes_per_entry[c], costs.decode_group_nanos[c], costs.decode_entry_nanos[c],
        );
    }
    let modes = [
        ("prefix", CodecMode::Prefix),
        ("delta", CodecMode::Delta),
        ("fixed", CodecMode::Fixed),
        ("auto", CodecMode::Auto),
    ];
    let mut rows = Vec::new();
    let mut ts_bpe = [0.0f64; 4];
    let mut rr_p99 = [0u64; 4];
    for (i, (name, mode)) in modes.into_iter().enumerate() {
        println!("--- codec mode: {name} ---");
        let mut opts = bench_options(args);
        opts.pm_codec_mode = mode;
        let mut db = Db::open(opts.clone()).expect("engine opens");
        let ts = timeseries(&mut db, args);
        db.close();
        // A fresh engine for the text-keyed shape, so the two workloads
        // never share level-0 state.
        let mut db = Db::open(opts).expect("engine opens");
        fill(&mut db, args, false);
        let rr = read_random(&mut db, args);
        db.close();
        ts_bpe[i] = ts.pm_bytes_per_entry;
        rr_p99[i] = rr.quantile(0.99);
        rows.push(format!(
            "{{\"codec_mode\": \"{name}\", \"timeseries\": \
             {{\"pm_bytes_per_entry\": {:.2}, \"read_p99_nanos\": {}, \
             \"l0_codecs\": {{\"prefix\": {}, \"delta\": {}, \"fixed\": {}}}}}, \
             \"readrandom\": {{\"p99_nanos\": {}}}}}",
            ts.pm_bytes_per_entry,
            ts.read_p99_nanos,
            ts.codec_histogram[0],
            ts.codec_histogram[1],
            ts.codec_histogram[2],
            rr_p99[i],
        ));
    }
    let savings_pct = 100.0 * (1.0 - ts_bpe[3] / ts_bpe[0].max(1e-12));
    println!(
        "encoding: auto stores timeseries at {:.1} B/entry vs {:.1} for \
         prefix-only ({savings_pct:.1}% smaller); readrandom p99 {} ns \
         (auto) vs {} ns (prefix)",
        ts_bpe[3], ts_bpe[0], rr_p99[3], rr_p99[0],
    );
    let calib_json = |c: usize| {
        format!(
            "{{\"bytes_per_entry\": {:.2}, \"decode_group_nanos\": {}, \
             \"decode_entry_nanos\": {}}}",
            costs.bytes_per_entry[c], costs.decode_group_nanos[c], costs.decode_entry_nanos[c],
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"encoding_report\",\n  \"mode\": \"{:?}\",\n  \
         \"num\": {},\n  \"reads\": {},\n  \"value_size\": {},\n  \
         \"calibration\": {{\"prefix\": {}, \"delta\": {}, \"fixed\": {}}},\n  \
         \"modes\": [\n    {}\n  ],\n  \
         \"auto_vs_prefix\": {{\"timeseries_pm_savings_pct\": {savings_pct:.1}, \
         \"readrandom_p99_prefix_nanos\": {}, \
         \"readrandom_p99_auto_nanos\": {}}}\n}}\n",
        args.mode,
        args.num,
        args.reads,
        args.value_size,
        calib_json(0),
        calib_json(1),
        calib_json(2),
        rows.join(",\n    "),
        rr_p99[0],
        rr_p99[3],
    );
    let out = std::path::Path::new("BENCH_encoding.json");
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("BENCH_encoding.json: {e}");
        std::process::exit(1);
    });
    println!("{:<18} results -> {}", "", out.display());
}

fn main() {
    let args = parse_args();
    if args.server.is_some() {
        server_bench(&args);
        return;
    }
    if args.encoding_report {
        println!(
            "benchmark_kv: encoding report, mode={:?} num={} reads={} \
             value={}B",
            args.mode, args.num, args.reads, args.value_size
        );
        encoding_report(&args);
        return;
    }
    println!(
        "benchmark_kv: mode={:?} benchmark={} num={} value={}B skew={} \
         partitions={} pm={}MiB maintenance={:?}",
        args.mode,
        args.benchmark,
        args.num,
        args.value_size,
        args.skew,
        args.partitions,
        args.pm_mib,
        args.maintenance
    );
    if args.threads > 1 {
        println!("threads={} (shared Arc<Db>, group commit)", args.threads);
    }
    match args.benchmark.as_str() {
        "fillseq" => {
            if args.threads > 1 {
                let db = std::sync::Arc::new(open_db(&args));
                threaded_writes(&db, &args, "fillseq", args.num, true, false);
                finish(&db, &args);
            } else {
                let mut db = open_db(&args);
                fill(&mut db, &args, true);
                finish(&db, &args);
            }
        }
        "fillrandom" => {
            if args.threads > 1 {
                let db = std::sync::Arc::new(open_db(&args));
                threaded_writes(&db, &args, "fillrandom", args.num, false, false);
                finish(&db, &args);
            } else {
                let mut db = open_db(&args);
                fill(&mut db, &args, false);
                finish(&db, &args);
            }
        }
        "readrandom" => {
            let mut db = open_db(&args);
            fill(&mut db, &args, false);
            read_random(&mut db, &args);
            finish(&db, &args);
        }
        "readhot" => {
            let mut db = open_db(&args);
            fill(&mut db, &args, false);
            read_hot(&mut db, &args);
            finish(&db, &args);
        }
        "updaterandom" => {
            if args.threads > 1 {
                let db = std::sync::Arc::new(open_db(&args));
                threaded_writes(&db, &args, "fill(load)", args.num, false, false);
                threaded_writes(&db, &args, "updaterandom", args.reads, false, true);
                finish(&db, &args);
            } else {
                let mut db = open_db(&args);
                fill(&mut db, &args, false);
                update_random(&mut db, &args);
                finish(&db, &args);
            }
        }
        "readwhilewriting" => {
            let mut db = open_db(&args);
            fill(&mut db, &args, false);
            read_while_writing(&mut db, &args);
            finish(&db, &args);
        }
        "seekrandom" => {
            let mut db = open_db(&args);
            fill(&mut db, &args, false);
            seek_random(&mut db, &args);
            finish(&db, &args);
        }
        "timeseries" => {
            let mut db = open_db(&args);
            timeseries(&mut db, &args);
            finish(&db, &args);
        }
        "indextable" => index_table(&args),
        other => {
            eprintln!("unknown benchmark {other} (try --help)");
            std::process::exit(2);
        }
    }
}
