//! `pm-blade-server`: the network service layer over a [`Db`].
//!
//! One accept loop hands each TCP connection to its own handler thread,
//! which speaks the length-prefixed, CRC-framed protocol of
//! [`pm_blade::protocol`]. Requests on one connection are processed in
//! order, so clients may pipeline: send several frames, then read the
//! responses back in sequence.
//!
//! Operational behavior:
//!
//! - **Buffered, coalescing I/O** — each connection reads through a
//!   64 KiB `BufReader` and replies through a 64 KiB `BufWriter`, so a
//!   client that pipelines N frames costs about one `read` and one
//!   `write` for the batch. **No reply is ever held across a blocking
//!   socket read, a rate-limit sleep, or a return**: the handler
//!   flushes unless the read buffer already holds one complete next
//!   frame, so a depth-1 client still gets exactly one flush per
//!   request (`server_flushes_total`, `server_flush_latency`).
//! - **Rate limiting** — each connection owns a token bucket
//!   ([`rate_limit::TokenBucket`]); a hot client is *slowed down*
//!   (handler flushes, then sleeps until a token accrues, counted in
//!   `server_throttled_total`), never errored.
//! - **Graceful shutdown** — [`Server::shutdown`] stops the accept
//!   loop, lets every handler finish its in-flight request and drain
//!   frames the client already sent, joins all threads, and finally
//!   runs [`Db::close`] so background maintenance lands. No acked
//!   write is ever lost.
//! - **Observability** — every operation is wired into the engine's
//!   [`MetricsRegistry`]: one counter (`server_get_total`, …) and one
//!   wall-clock latency histogram (`server_get_latency`, …) per op,
//!   plus `server_active_connections` / `server_inflight_requests` /
//!   `server_connections_total` / `server_conn_rejected_total` /
//!   `server_throttled_total` / `server_errors_total`. No series is
//!   labeled per connection, so the set of series does not grow with
//!   the clients served. An optional HTTP listener serves the whole
//!   registry in Prometheus text format at `/metrics` and a live debug
//!   view (flight recorder, maintenance-queue state, metrics
//!   snapshot) as JSON at `/debug`.
//! - **Tracing** — a [`Request::Traced`] envelope carries the client's
//!   trace context; the server hands it to the engine's `*_with` entry
//!   points with the inner request, so one trace id spans
//!   client → server → engine (visible in the flight recorder).

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pm_blade::protocol::{starts_with_frame, Request, Response, WireError};
use pm_blade::telemetry::{Gauge, LatencyRecorder, MetricsRegistry};
use pm_blade::{Db, DbError, MetricKey};
use sim::Counter;

pub mod rate_limit;

use rate_limit::TokenBucket;

/// Knobs for one [`Server`]; [`Server::start`] rejects an inconsistent
/// combination.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Bind address for the KV protocol, e.g. `"127.0.0.1:0"` (port 0
    /// picks an ephemeral port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Maximum concurrent connections; excess connections are closed
    /// immediately (counted in `server_conn_rejected_total`).
    pub max_connections: usize,
    /// Per-client rate limit in requests/second (`None` = unlimited).
    pub rate_limit_ops_per_sec: Option<u64>,
    /// Token-bucket burst size for the rate limiter.
    pub rate_limit_burst: u64,
    /// Idle-read timeout; also the shutdown-poll period. Handlers wake
    /// at this cadence to check for shutdown.
    pub poll_interval: Duration,
    /// Optional bind address for the HTTP observability endpoint
    /// (`/metrics` Prometheus text, `/debug` JSON).
    pub metrics_addr: Option<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            max_connections: 1024,
            rate_limit_ops_per_sec: None,
            rate_limit_burst: 64,
            poll_interval: Duration::from_millis(50),
            metrics_addr: None,
        }
    }
}

impl ServerOptions {
    /// The first inconsistent setting, as the `InvalidInput` error
    /// [`Server::start`] reports it with.
    fn check(&self) -> io::Result<()> {
        let invalid = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.addr.is_empty() {
            return invalid("server addr must not be empty");
        }
        if self.max_connections == 0 {
            return invalid("max_connections must be at least 1");
        }
        if self.rate_limit_ops_per_sec == Some(0) {
            return invalid("rate_limit_ops_per_sec must be nonzero (None for unlimited)");
        }
        if self.rate_limit_burst == 0 {
            return invalid("rate_limit_burst must be at least 1");
        }
        if self.poll_interval.is_zero() {
            return invalid("poll_interval must be nonzero");
        }
        Ok(())
    }
}

/// Handles to the server's metrics, fetched once at startup so the hot
/// path never touches the registry locks (the engine's own idiom).
struct ServerMetrics {
    connections_total: Arc<Counter>,
    conn_rejected_total: Arc<Counter>,
    active_connections: Arc<Gauge>,
    inflight_requests: Arc<Gauge>,
    throttled_total: Arc<Counter>,
    errors_total: Arc<Counter>,
    /// Socket writes by connection handlers, and the wall time of each.
    flushes_total: Arc<Counter>,
    flush_latency: Arc<LatencyRecorder>,
    ops: [OpMetrics; 7],
}

struct OpMetrics {
    total: Arc<Counter>,
    latency: Arc<LatencyRecorder>,
}

/// Index into `ServerMetrics::ops`, in `Request` variant order. A
/// traced envelope counts as its inner operation.
fn op_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Put { .. } => 1,
        Request::Delete { .. } => 2,
        Request::WriteBatch { .. } => 3,
        Request::Get { .. } => 4,
        Request::Scan(_) => 5,
        Request::Compact(_) => 6,
        Request::Traced { inner, .. } => op_index(inner),
    }
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let op = |total: &'static str, latency: &'static str| OpMetrics {
            total: registry.counter(MetricKey::global(total)),
            latency: registry.histogram(MetricKey::global(latency)),
        };
        ServerMetrics {
            connections_total: registry.counter(MetricKey::global("server_connections_total")),
            conn_rejected_total: registry.counter(MetricKey::global("server_conn_rejected_total")),
            active_connections: registry.gauge(MetricKey::global("server_active_connections")),
            inflight_requests: registry.gauge(MetricKey::global("server_inflight_requests")),
            throttled_total: registry.counter(MetricKey::global("server_throttled_total")),
            errors_total: registry.counter(MetricKey::global("server_errors_total")),
            flushes_total: registry.counter(MetricKey::global("server_flushes_total")),
            flush_latency: registry.histogram(MetricKey::global("server_flush_latency")),
            ops: [
                op("server_ping_total", "server_ping_latency"),
                op("server_put_total", "server_put_latency"),
                op("server_delete_total", "server_delete_latency"),
                op("server_write_batch_total", "server_write_batch_latency"),
                op("server_get_total", "server_get_latency"),
                op("server_scan_total", "server_scan_latency"),
                op("server_compact_total", "server_compact_latency"),
            ],
        }
    }
}

struct Shared {
    db: Arc<Db>,
    opts: ServerOptions,
    shutdown: AtomicBool,
    active: AtomicI64,
    inflight: AtomicI64,
    metrics: ServerMetrics,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the listener threads; call `shutdown()` for an orderly exit.
pub struct Server {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `db` per `opts`. An inconsistent `opts`
    /// (empty `addr`, no connections, a zero rate, burst or poll
    /// interval) fails with [`io::ErrorKind::InvalidInput`] before
    /// anything is bound.
    pub fn start(db: Arc<Db>, opts: ServerOptions) -> std::io::Result<Server> {
        opts.check()?;
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &opts.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = metrics_listener
            .as_ref()
            .map(|l| l.local_addr())
            .transpose()?;

        let metrics = ServerMetrics::new(db.metrics());
        let shared = Arc::new(Shared {
            db,
            opts,
            shutdown: AtomicBool::new(false),
            active: AtomicI64::new(0),
            inflight: AtomicI64::new(0),
            metrics,
            handlers: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pmblade-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        let metrics_thread = match metrics_listener {
            Some(l) => {
                let s = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("pmblade-metrics".into())
                        .spawn(move || metrics_loop(l, s))?,
                )
            }
            None => None,
        };

        Ok(Server {
            local_addr,
            metrics_addr,
            shared,
            accept_thread: Some(accept_thread),
            metrics_thread: Some(metrics_thread).flatten(),
        })
    }

    /// The bound KV-protocol address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound `/metrics` address, when one was configured.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Currently-open client connections.
    pub fn active_connections(&self) -> i64 {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, let every handler finish its
    /// in-flight request and drain frames already queued on its socket,
    /// join all threads, then run [`Db::close`] to land background
    /// maintenance. Returns the engine handle for post-shutdown
    /// inspection.
    pub fn shutdown(mut self) -> Arc<Db> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let threads = [self.accept_thread.take(), self.metrics_thread.take()];
        for t in threads.into_iter().flatten() {
            join_handler(&self.shared, t);
        }
        loop {
            let Some(h) = self.shared.handlers.lock().pop() else {
                break;
            };
            join_handler(&self.shared, h);
        }
        self.shared.db.close();
        Arc::clone(&self.shared.db)
    }
}

/// Join a server thread: a connection handler that has finished (or,
/// at shutdown, is about to), or at shutdown the accept loop and the
/// `/metrics` endpoint. One that panicked counts as a server error.
fn join_handler(shared: &Shared, handler: JoinHandle<()>) {
    if handler.join().is_err() {
        shared.metrics.errors_total.incr();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.incr();
                let active = shared.active.load(Ordering::Relaxed);
                if active >= shared.opts.max_connections as i64 {
                    shared.metrics.conn_rejected_total.incr();
                    drop(stream);
                    continue;
                }
                let n = shared.active.fetch_add(1, Ordering::Relaxed) + 1;
                shared.metrics.active_connections.set(n);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("pmblade-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        let n = conn_shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
                        conn_shared.metrics.active_connections.set(n);
                    });
                match handle {
                    Ok(h) => {
                        // Reap the handlers of connections that have
                        // closed, so the list tracks the live ones and
                        // not every connection ever accepted.
                        let mut handlers = shared.handlers.lock();
                        let mut i = 0;
                        while i < handlers.len() {
                            if handlers[i].is_finished() {
                                join_handler(&shared, handlers.swap_remove(i));
                            } else {
                                i += 1;
                            }
                        }
                        handlers.push(h);
                    }
                    Err(_) => {
                        let n = shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
                        shared.metrics.active_connections.set(n);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.opts.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.opts.poll_interval),
        }
    }
}

/// Capacity of a connection's read buffer and of its write buffer.
/// Frames larger than this (up to `MAX_FRAME_BYTES`) bypass them.
const IO_BUF_BYTES: usize = 64 << 10;

/// The socket's write half as the reply `BufWriter` sees it. Every
/// flush (explicit, buffer-full, or large-frame bypass) is one `write`
/// here, counted and timed, so replies per flush can be read off a
/// running process.
struct CountedWrites<'a> {
    stream: TcpStream,
    metrics: &'a ServerMetrics,
}

impl Write for CountedWrites<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let started = Instant::now();
        let written = self.stream.write(buf);
        self.metrics.flushes_total.incr();
        self.metrics
            .flush_latency
            .record_nanos(started.elapsed().as_nanos() as u64);
        written
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // a `TcpStream` buffers nothing in user space
    }
}

/// Serve one connection until the client hangs up, the stream breaks,
/// or shutdown drains it.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.opts.poll_interval));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(IO_BUF_BYTES, read_half);
    let metrics = &shared.metrics;
    let mut writer = BufWriter::with_capacity(IO_BUF_BYTES, CountedWrites { stream, metrics });
    serve(&mut reader, &mut writer, shared);
    // Flush rule (c): however `serve` returned, replies still buffered
    // leave before the socket closes.
    let _ = writer.flush();
}

/// The request loop. Replies are framed into `writer` and flushed only
/// when the handler is about to block, under one invariant: **no reply
/// is held across a blocking socket read, a rate-limit sleep, or a
/// return** (rules (a), (b) below; (c) in [`handle_connection`]).
fn serve(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<CountedWrites<'_>>,
    shared: &Shared,
) {
    let mut bucket = shared
        .opts
        .rate_limit_ops_per_sec
        .map(|rate| TokenBucket::new(rate, shared.opts.rate_limit_burst));
    // One decode and one encode scratch buffer per connection, not per
    // message (a frame over `IO_BUF_BYTES` goes straight to the socket).
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    // Once the shutdown flag is seen, frames the client has already
    // sent are still served (with a much shorter idle window); the
    // first quiet moment afterwards closes the connection.
    let mut draining = false;
    loop {
        if !draining && shared.shutdown.load(Ordering::SeqCst) {
            draining = true;
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(5)));
        }
        // Flush rule (a): the read below blocks unless one *complete*
        // frame is already buffered (a partial frame waits on the peer,
        // who may be waiting on these replies).
        if !starts_with_frame(reader.buffer()) && writer.flush().is_err() {
            return;
        }
        match Request::read(reader, &mut payload) {
            Ok(Some(req)) => {
                if let Some(bucket) = bucket.as_mut() {
                    let wait = bucket.take();
                    if wait > Duration::ZERO {
                        shared.metrics.throttled_total.incr();
                        // Flush rule (b): replies do not wait out a throttle.
                        if writer.flush().is_err() {
                            return;
                        }
                        std::thread::sleep(wait);
                    }
                }
                let idx = op_index(&req);
                let started = Instant::now();
                let n = shared.inflight.fetch_add(1, Ordering::Relaxed) + 1;
                shared.metrics.inflight_requests.set(n);
                let resp = dispatch(&shared.db, req);
                let n = shared.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
                shared.metrics.inflight_requests.set(n);
                let m = &shared.metrics.ops[idx];
                m.total.incr();
                m.latency.record_nanos(started.elapsed().as_nanos() as u64);
                if matches!(resp, Response::Error { .. }) {
                    shared.metrics.errors_total.incr();
                }
                // A reply over the frame cap is refused before a byte
                // leaves; the client hears why, and the stream keeps
                // its frame sync.
                let sent = match resp.write(writer, &mut frame) {
                    Err(e @ WireError::TooLarge(_)) => {
                        shared.metrics.errors_total.incr();
                        let message = e.to_string();
                        Response::Error { code: 0, message }.write(writer, &mut frame)
                    }
                    sent => sent,
                };
                if sent.is_err() {
                    return;
                }
            }
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) if e.is_idle_timeout() => {
                if draining {
                    return;
                }
            }
            Err(WireError::Io(_)) => return,
            // Frame sync is lost; report once and hang up.
            Err(e @ (WireError::Corrupt(_) | WireError::TooLarge(_))) => {
                shared.metrics.errors_total.incr();
                let message = e.to_string();
                let _ = Response::Error { code: 0, message }.write(writer, &mut frame);
                return;
            }
        }
    }
}

/// Map one request onto the engine. Engine failures become
/// [`Response::Error`] with the stable [`DbError::code`]. A traced
/// envelope unwraps here and hands its context to the engine's `*_with`
/// entry points with the inner request.
fn dispatch(db: &Db, req: Request) -> Response {
    let (req, ctx) = match req {
        Request::Traced { ctx, inner } => (*inner, Some(ctx)),
        other => (other, None),
    };
    let result = match req {
        Request::Ping => return Response::Pong,
        Request::Put { key, value } => db.put_with(&key, &value, ctx).map(written),
        Request::Delete { key } => db.delete_with(&key, ctx).map(written),
        Request::WriteBatch { ops } => db.write_batch_with(ops.into(), ctx).map(written),
        Request::Get { key } => db.get_with(&key, ctx).map(|out| Response::Value {
            value: out.value,
            latency_nanos: out.latency.as_nanos(),
        }),
        Request::Scan(scan) => db
            .scan_with(scan, ctx)
            .map(|(rows, latency)| Response::Rows {
                rows,
                latency_nanos: latency.as_nanos(),
            }),
        // Compactions are maintenance, not a traced request path.
        Request::Compact(c) => db.compact(c).map(|()| Response::Compacted),
        // The decoder rejects nested envelopes; defend anyway.
        Request::Traced { .. } => Err(DbError::Config("nested traced envelope".into())),
    };
    result.unwrap_or_else(|e| Response::from_db_error(&e))
}

fn written(latency: pm_blade::SimDuration) -> Response {
    Response::Written {
        latency_nanos: latency.as_nanos(),
    }
}

// --- /metrics + /debug HTTP endpoint ---------------------------------

fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_http_once(stream, &shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.opts.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.opts.poll_interval),
        }
    }
}

/// Minimal one-shot HTTP/1.1: read the request line, answer, close.
/// Routes: `/metrics` (Prometheus text) and `/debug` (JSON: flight
/// recorder + maintenance-queue state + metrics snapshot). `HEAD`
/// answers with the same headers and no body; other methods get 405.
fn serve_http_once(mut stream: TcpStream, shared: &Shared) {
    use std::io::Read as _;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut line = Vec::new();
    // Read until the end of the request line; headers are irrelevant.
    while !line.contains(&b'\n') && line.len() < 4096 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => line.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let request_line = line.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    const TEXT: &str = "text/plain; charset=utf-8";
    let (status, content_type, body) = if method != "GET" && method != "HEAD" {
        (
            "405 Method Not Allowed",
            TEXT,
            "only GET and HEAD are supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                shared.db.metrics_snapshot().to_prometheus(),
            ),
            "/debug" => ("200 OK", "application/json", debug_json(shared)),
            _ => (
                "404 Not Found",
                TEXT,
                "routes: /metrics, /debug\n".to_string(),
            ),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if method != "HEAD" {
        let _ = stream.write_all(body.as_bytes());
    }
    let _ = stream.flush();
}

/// The `/debug` JSON document: the flight recorder, live
/// maintenance-queue state, the current split of the DRAM cache budget,
/// the server's in-flight request gauge, and a full metrics snapshot.
fn debug_json(shared: &Shared) -> String {
    let (queue_depth, jobs_inflight) = shared.db.maintenance_status();
    let (block, group) = shared.db.cache_split();
    format!(
        "{{\"flight_recorder\": {}, \
         \"maintenance\": {{\"queue_depth\": {queue_depth}, \"jobs_inflight\": {jobs_inflight}}}, \
         \"cache_split\": {{\"block_cache_bytes\": {block}, \"pm_group_cache_bytes\": {group}}}, \
         \"inflight_requests\": {}, \
         \"metrics\": {}}}\n",
        shared.db.tracer().recorder().to_json(),
        shared.metrics.inflight_requests.get(),
        shared.db.metrics_snapshot().to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_blade_client::Client;
    use std::time::Instant;

    #[test]
    fn start_rejects_inconsistent_options() {
        let db = Arc::new(Db::open(pm_blade::Options::default()).unwrap());
        let invalid = [
            ServerOptions {
                addr: String::new(),
                ..ServerOptions::default()
            },
            ServerOptions {
                max_connections: 0,
                ..ServerOptions::default()
            },
            ServerOptions {
                rate_limit_ops_per_sec: Some(0),
                ..ServerOptions::default()
            },
            ServerOptions {
                rate_limit_burst: 0,
                ..ServerOptions::default()
            },
            ServerOptions {
                poll_interval: Duration::ZERO,
                ..ServerOptions::default()
            },
        ];
        for opts in invalid {
            let shown = format!("{opts:?}");
            match Server::start(Arc::clone(&db), opts) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{shown}: {e}"),
                Ok(server) => {
                    server.shutdown();
                    panic!("{shown} started");
                }
            }
        }
    }

    #[test]
    fn closed_connections_do_not_accumulate_join_handles() {
        let db = Arc::new(Db::open(pm_blade::Options::default()).unwrap());
        let opts = ServerOptions {
            poll_interval: Duration::from_millis(1),
            ..ServerOptions::default()
        };
        let server = Server::start(db, opts).unwrap();
        let handlers = || server.shared.handlers.lock().len();
        let newest = || {
            let handlers = server.shared.handlers.lock();
            handlers.last().map(|h| h.thread().id())
        };
        let exited = || {
            let handlers = server.shared.handlers.lock();
            handlers.iter().all(|h| h.is_finished())
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::yield_now();
            }
        };
        let mut previous = None;
        for cycle in 0..300 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
            // The acceptor lists a handler just after spawning it, so
            // the ping can be answered while the list still holds the
            // previous (finished) handler: wait for this one's.
            wait_for("handler never listed", &|| {
                newest().is_some_and(|id| Some(id) != previous)
            });
            previous = newest();
            // Every earlier connection's handler had finished by the
            // time this one was accepted, so only this one is listed.
            assert_eq!(handlers(), 1, "cycle {cycle}");
            drop(client);
            wait_for("handler never exited", &exited);
        }
        assert_eq!(server.active_connections(), 0);
        server.shutdown();
    }
}
