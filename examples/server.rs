//! Serve a PM-Blade engine over TCP and talk to it with the client.
//!
//! ```sh
//! cargo run --release -p pmblade-examples --bin server
//! ```
//!
//! Spawns a `pm-blade-server` on an ephemeral loopback port (plus a
//! Prometheus `/metrics` endpoint), drives it through `pm-blade-client`
//! — puts, a batch, point gets, a paged scan, a remote compaction —
//! and shuts down cleanly, draining in-flight requests before the
//! engine closes. Swap the ephemeral addresses for fixed `HOST:PORT`
//! strings to serve real clients.

use std::sync::Arc;
use std::time::Duration;

use pm_blade::{CompactionRequest, Db, Options, ScanRequest, WriteBatch};
use pm_blade_client::Client;
use pm_blade_server::{Server, ServerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The engine is opened locally and handed to the server, which owns
    // its lifecycle from here: `Server::shutdown` drains connections and
    // calls `Db::close()` before returning the engine.
    let db = Arc::new(Db::open(Options::pm_blade(8 << 20))?);
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        metrics_addr: Some("127.0.0.1:0".into()),
        // A gentle per-connection rate limit: clients above 50k ops/s
        // are slowed down (never errored), and each delay ticks the
        // `server_throttled_total` counter.
        rate_limit_ops_per_sec: Some(50_000),
        poll_interval: Duration::from_millis(5),
        ..ServerOptions::default()
    };
    let server = Server::start(db, opts)?;
    let addr = server.local_addr();
    println!("serving  : {addr}");
    if let Some(maddr) = server.metrics_local_addr() {
        println!("metrics  : http://{maddr}/metrics");
    }

    // One client = one TCP connection; requests are answered in order.
    let mut client = Client::connect(addr)?;
    client.ping()?;

    let lat = client.put(b"order:1001", b"status=placed")?;
    println!("put      : committed in {lat}ns (engine virtual time)");

    // Many writes in one round trip, applied as the engine's batch.
    let mut batch = WriteBatch::new();
    for i in 0..2_000u32 {
        batch.put(format!("order:{i:06}"), "payload");
    }
    client.write_batch(batch)?;

    let value = client.get(b"order:001234")?;
    println!(
        "get      : order:001234 -> {:?}",
        value.map(|v| String::from_utf8_lossy(&v).into_owned())
    );

    // Scans page transparently: this fetches 1500 rows in 1000-row
    // frames, re-issuing from the successor of each page's last key.
    let rows = client.scan_paged(ScanRequest::new().start("order:000100").limit(1_500))?;
    println!("scan     : {} rows (paged)", rows.len());

    // Remote maintenance; engine errors come back as typed codes.
    client.compact(CompactionRequest::FlushAll)?;
    match client.compact(CompactionRequest::Flush { partition: 9_999 }) {
        Err(pm_blade_client::ClientError::Remote { code, message }) => {
            println!("error    : code {code} ({message})");
        }
        other => println!("error    : unexpected {other:?}"),
    }

    // Graceful shutdown: stop accepting, drain every connection's
    // pipelined requests, join the handlers, then close the engine.
    let db = server.shutdown();
    let snap = db.metrics_snapshot();
    println!(
        "served   : {} puts, {} gets, {} scans over {} connections ({} errors)",
        snap.counter("server_put_total") + snap.counter("server_write_batch_total"),
        snap.counter("server_get_total"),
        snap.counter("server_scan_total"),
        snap.counter("server_connections_total"),
        snap.counter("server_errors_total"),
    );
    Ok(())
}
