//! `benchmark_kv` — the many-connection benchmark of the network service.
//!
//! Fills, reads, scans, mixed traffic and one pipelined connection are
//! measured by `benchmark/run.sh`, the harness a change is judged on;
//! this tool is the one shape it does not have: many TCP clients
//! against one server.
//!
//! `--num` puts then `--reads` uniform gets, split over `--connections`
//! TCP clients, each measuring *wall-clock* round trips through
//! `pm-blade-client`. With a bare `--server` (or none) a
//! `pm-blade-server` is spawned in-process on an ephemeral loopback
//! port and shut down (draining in-flight requests) at the end, so its
//! counters land in the report; with `--server HOST:PORT` an
//! already-running server is used and only client-side numbers exist.
//! Results go to `BENCH_server.json`.
//!
//! Example: `cargo run --release -p bench --bin benchmark_kv -- \
//!           --server --connections 32`

use pm_blade::{Db, Options, Partitioner};
use sim::{Histogram, Pcg64};

const USAGE: &str = "\
benchmark_kv: many-connection benchmark of pm-blade-server (wall clock)
  --server [HOST:PORT]   benchmark a running server; bare = spawn one in-process (default)
  --connections N        TCP clients (default 8)
  --num N                puts, split over the connections (default 20000)
  --reads N              gets, split over the connections (default 20000)
  --pm-filter-bits B     PM-L0 bloom bits per key of the in-process server (0 = off)
  --pm-cache-bytes N     group-decode cache of the in-process server (0 = off)
Everything else (fills, reads, scans, mixed, codecs, threads): benchmark/run.sh";

/// The fixed shape of a run.
const VALUE_SIZE: usize = 100;
const PARTITIONS: usize = 8;
const PM_BYTES: usize = 8 << 20;

#[derive(Debug, PartialEq)]
struct Args {
    /// Address of an already-running server; `None` spawns one
    /// in-process on an ephemeral loopback port.
    server: Option<String>,
    connections: u64,
    num: u64,
    reads: u64,
    /// `None` keeps the engine default.
    pm_filter_bits: Option<usize>,
    pm_cache_bytes: Option<usize>,
}

/// `Ok(None)` is `--help`; `Err` names the flag that was wrong.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("missing value for {flag}"))?;
        value
            .parse()
            .map_err(|_| format!("{flag}: `{value}` is not a number"))
    }
    let mut args = Args {
        server: None,
        connections: 8,
        num: 20_000,
        reads: 20_000,
        pm_filter_bits: None,
        pm_cache_bytes: None,
    };
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            // The address is optional: take the next word unless it is a flag.
            "--server" => args.server = it.next_if(|next| !next.starts_with('-')),
            "--connections" => {
                args.connections = number(&flag, it.next())?;
                if args.connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--num" => args.num = number(&flag, it.next())?,
            "--reads" => args.reads = number(&flag, it.next())?,
            "--pm-filter-bits" => args.pm_filter_bits = Some(number(&flag, it.next())?),
            "--pm-cache-bytes" => args.pm_cache_bytes = Some(number(&flag, it.next())?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(args))
}

fn open_db(args: &Args) -> Db {
    let mut opts = Options::pm_blade(PM_BYTES);
    // A small memtable keeps flushes and compactions inside the run.
    opts.memtable_bytes = 8 << 10;
    opts.partitioner = Partitioner::numeric("user", args.num.max(1), PARTITIONS);
    if let Some(bits) = args.pm_filter_bits {
        opts.pm_filter_bits_per_key = bits;
    }
    if let Some(bytes) = args.pm_cache_bytes {
        opts.pm_group_cache_bytes = bytes;
    }
    Db::open(opts).expect("engine opens")
}

fn user_key(i: u64) -> Vec<u8> {
    format!("user{i:010}").into_bytes()
}

/// One phase's line: the histogram holds wall nanos, so wall time is
/// the base of the throughput column too.
fn report(name: &str, hist: &Histogram, wall: std::time::Duration) {
    let ops = hist.count();
    println!(
        "{name:<18} {ops:>9} ops  {:>12.0} ops/s  \
         mean {:>9}  p50 {:>9}  p99 {:>9}  p99.9 {:>9}",
        ops as f64 / wall.as_secs_f64().max(1e-12),
        hist.mean_duration(),
        hist.quantile_duration(0.5),
        hist.quantile_duration(0.99),
        hist.quantile_duration(0.999),
    );
}

/// One latency phase as a JSON object.
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

/// What follows the tool's own fields in an existing `BENCH_server.json`:
/// the `before` row and `note` a PR adds by hand, or just the closing
/// brace. A rerun rewrites the fields above it and keeps this.
fn hand_added_tail(old: &str) -> &str {
    old.find(",\n  \"before\"").map_or("\n}\n", |at| &old[at..])
}

fn server_bench(args: &Args) {
    use pm_blade_client::Client;
    use pm_blade_server::{Server, ServerOptions};

    let (addr, server) = match &args.server {
        Some(addr) => (addr.clone(), None),
        None => {
            let db = std::sync::Arc::new(open_db(args));
            let opts = ServerOptions {
                poll_interval: std::time::Duration::from_millis(5),
                ..ServerOptions::default()
            };
            let server = Server::start(db, opts).expect("server starts");
            (server.local_addr().to_string(), Some(server))
        }
    };
    let connections = args.connections;
    let keys = args.num.max(1);
    let per_conn_writes = (args.num / connections).max(1);
    let per_conn_reads = (args.reads / connections).max(1);
    println!(
        "server: {addr} ({connections} connections, {per_conn_writes} puts + {per_conn_reads} gets each)"
    );

    let wall_start = std::time::Instant::now();
    let results: Vec<(Histogram, Histogram)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let addr = addr.as_str();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let value = vec![b'n'; VALUE_SIZE];
                    let mut writes = Histogram::new();
                    let mut reads = Histogram::new();
                    let mut rng = Pcg64::seeded(0x53c7 + c);
                    for i in 0..per_conn_writes {
                        // Disjoint stripes keep the fill collision-free.
                        let key_id =
                            (c * per_conn_writes + i).wrapping_mul(0x9e3779b97f4a7c15) % keys;
                        let k = user_key(key_id);
                        let t = std::time::Instant::now();
                        client.put(&k, &value).expect("remote put");
                        writes.record(t.elapsed().as_nanos() as u64);
                    }
                    for _ in 0..per_conn_reads {
                        let k = user_key(rng.next_below(keys));
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
    let throughput = total_ops as f64 / wall.as_secs_f64().max(1e-12);
    report("server/puts", &writes, wall);
    report("server/gets", &reads, wall);
    println!(
        "{:<18} wall {wall:>8.2?}  {throughput:>12.0} ops/s (wall, {connections} connections)",
        ""
    );

    let server_json = match server {
        Some(server) => {
            let snap = server.shutdown().metrics_snapshot();
            let [conns, puts, gets, throttled, errors] = [
                "server_connections_total",
                "server_put_total",
                "server_get_total",
                "server_throttled_total",
                "server_errors_total",
            ]
            .map(|name| snap.counter(name));
            println!(
                "{:<18} server: {conns} conns  {puts} puts  {gets} gets  \
                 {throttled} throttled  {errors} errors",
                ""
            );
            format!(
                "{{\"connections_total\": {conns}, \"put_total\": {puts}, \
                 \"get_total\": {gets}, \"throttled_total\": {throttled}, \
                 \"errors_total\": {errors}}}"
            )
        }
        None => "null".to_string(),
    };

    let out = std::path::Path::new("BENCH_server.json");
    let old = std::fs::read_to_string(out).unwrap_or_default();
    let json = format!(
        "{{\n  \"benchmark\": \"server\",\n  \"mode\": \"PmBlade\",\n  \
         \"address\": \"{addr}\",\n  \"connections\": {connections},\n  \
         \"value_size\": {VALUE_SIZE},\n  \"skew\": 0,\n  \
         \"wall_seconds\": {:.6},\n  \"ops_total\": {total_ops},\n  \
         \"throughput_ops_per_sec\": {throughput:.0},\n  \"puts\": {},\n  \
         \"gets\": {},\n  \"server\": {server_json}{}",
        wall.as_secs_f64(),
        phase_json(&writes),
        phase_json(&reads),
        hand_added_tail(&old),
    );
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("BENCH_server.json: {e}");
        std::process::exit(1);
    });
    println!("{:<18} results -> {}", "", out.display());
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => server_bench(&args),
        Ok(None) => println!("{USAGE}"),
        Err(why) => {
            eprintln!("benchmark_kv: {why}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_args_takes_the_six_flags_and_rejects_the_rest_without_panicking() {
        // The committed CI line.
        let args = parse(
            "--server --connections 8 --num 4000 --reads 4000 \
             --pm-filter-bits 0 --pm-cache-bytes 1024",
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            args,
            Args {
                server: None,
                connections: 8,
                num: 4000,
                reads: 4000,
                pm_filter_bits: Some(0),
                pm_cache_bytes: Some(1024),
            }
        );
        // `--server` with an address, in the middle and at the end.
        for line in [
            "--server 10.0.0.1:7000 --num 5",
            "--num 5 --server 10.0.0.1:7000",
        ] {
            let args = parse(line).unwrap().unwrap();
            assert_eq!(args.server.as_deref(), Some("10.0.0.1:7000"), "{line}");
            assert_eq!(args.num, 5, "{line}");
        }
        assert_eq!(parse("--num 5 --server").unwrap().unwrap().server, None);
        assert_eq!(parse("--help").unwrap(), None);

        for flag in [
            "--num",
            "--reads",
            "--connections",
            "--pm-filter-bits",
            "--pm-cache-bytes",
        ] {
            let why = parse(&format!("{flag} x")).unwrap_err();
            assert!(why.contains(flag) && why.contains("`x`"), "{why}");
            assert!(parse(flag).unwrap_err().contains("missing value"));
        }
        assert!(parse("--connections 0").unwrap_err().contains("at least 1"));
        // A flag of a deleted mode is unknown, not ignored.
        for gone in ["--benchmark fillrandom", "--threads 4", "--mode rocksdb"] {
            assert!(
                parse(gone).unwrap_err().starts_with("unknown flag"),
                "{gone}"
            );
        }
    }

    #[test]
    fn a_rerun_keeps_the_hand_added_fields_of_the_results_file() {
        let tool = "{\n  \"benchmark\": \"server\",\n  \"server\": null";
        let tail = ",\n  \"before\": {\"wall_seconds\": 0.7},\n  \"note\": \"by hand\"\n}\n";
        assert_eq!(hand_added_tail(&format!("{tool}{tail}")), tail);
        assert_eq!(hand_added_tail(&format!("{tool}\n}}\n")), "\n}\n");
        assert_eq!(hand_added_tail(""), "\n}\n");
    }
}
