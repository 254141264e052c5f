//! Service-layer tests: protocol round-trips under random inputs,
//! loopback client/server parity against direct `Db` calls, graceful
//! shutdown draining pipelined requests, and rate limiting that slows
//! a hot client without erroring it.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use pm_blade::protocol::{read_frame, write_frame, Request, Response, WireError, MAX_FRAME_BYTES};
use pm_blade::{BatchOp, CompactionRequest, Mode, ScanRequest, TraceContext, TraceOp, WriteBatch};
use pm_blade_client::{Client, ClientError};
use pm_blade_server::{Server, ServerOptions};
use pmblade_integration_tests::{key_for, tiny_options, value_for};
use proptest::prelude::*;

// --- protocol round-trip properties ----------------------------------

fn bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..64)
}

fn batch_op_strategy() -> BoxedStrategy<BatchOp> {
    prop_oneof![
        2 => (bytes_strategy(), bytes_strategy())
            .prop_map(|(key, value)| BatchOp::Put { key, value }),
        1 => bytes_strategy().prop_map(|key| BatchOp::Delete { key }),
    ]
    .boxed()
}

fn scan_strategy() -> BoxedStrategy<ScanRequest> {
    (
        bytes_strategy(),
        prop_oneof![1 => Just(None), 2 => bytes_strategy().prop_map(Some)],
        0usize..100_000,
        proptest::bool::ANY,
    )
        .prop_map(|(start, end, limit, reverse)| ScanRequest {
            start,
            end,
            limit,
            reverse,
        })
        .boxed()
}

/// Every request shape, the traced envelope around any other one.
fn request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        8 => plain_request_strategy(),
        1 => (1u64..u64::MAX, plain_request_strategy()).prop_map(|(trace_id, inner)| {
            Request::Traced {
                ctx: TraceContext::sampled(trace_id),
                inner: Box::new(inner),
            }
        }),
    ]
    .boxed()
}

/// Every request but the traced envelope.
fn plain_request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        1 => Just(Request::Ping),
        3 => (bytes_strategy(), bytes_strategy())
            .prop_map(|(key, value)| Request::Put { key, value }),
        2 => bytes_strategy().prop_map(|key| Request::Delete { key }),
        2 => proptest::collection::vec(batch_op_strategy(), 0..8)
            .prop_map(|ops| Request::WriteBatch { ops }),
        3 => bytes_strategy().prop_map(|key| Request::Get { key }),
        2 => scan_strategy().prop_map(Request::Scan),
        1 => (0u8..5, 0usize..16).prop_map(|(kind, partition)| {
            Request::Compact(match kind {
                0 => CompactionRequest::Flush { partition },
                1 => CompactionRequest::FlushAll,
                2 => CompactionRequest::Internal { partition },
                3 => CompactionRequest::Major { partition },
                _ => CompactionRequest::MajorWithRetention,
            })
        }),
    ]
    .boxed()
}

fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        1 => Just(Response::Pong),
        2 => (0u64..u64::MAX).prop_map(|latency_nanos| Response::Written { latency_nanos }),
        3 => (
            prop_oneof![1 => Just(None), 2 => bytes_strategy().prop_map(Some)],
            0u64..u64::MAX,
        )
            .prop_map(|(value, latency_nanos)| Response::Value {
                value,
                latency_nanos,
            }),
        2 => (
            proptest::collection::vec((bytes_strategy(), bytes_strategy()), 0..8),
            0u64..u64::MAX,
        )
            .prop_map(|(rows, latency_nanos)| Response::Rows {
                rows,
                latency_nanos,
            }),
        1 => Just(Response::Compacted),
        1 => (0u64..u16::MAX as u64, proptest::collection::vec(b'a'..=b'z', 0..32))
            .prop_map(|(code, msg)| Response::Error {
                code: code as u16,
                message: String::from_utf8(msg).unwrap(),
            }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips_through_frames(req in request_strategy()) {
        let mut wire = Vec::new();
        req.write(&mut wire, &mut Vec::new()).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        let back = Request::read(&mut cursor, &mut Vec::new()).unwrap().expect("one frame");
        prop_assert_eq!(back, req);
        prop_assert!(Request::read(&mut cursor, &mut Vec::new()).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn response_roundtrips_through_frames(resp in response_strategy()) {
        let mut wire = Vec::new();
        resp.write(&mut wire, &mut Vec::new()).unwrap();
        let back = Response::read(&mut std::io::Cursor::new(&wire), &mut Vec::new())
            .unwrap()
            .expect("one frame");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn corrupt_and_truncated_frames_rejected(
        req in request_strategy(),
        flip in 0usize..10_000,
        cut in 1usize..32,
    ) {
        let mut wire = Vec::new();
        req.write(&mut wire, &mut Vec::new()).unwrap();
        // Any single bit flip must be caught: in the length/CRC header
        // it desynchronizes or mismatches; in the payload the CRC
        // catches it.
        let mut corrupted = wire.clone();
        let pos = flip % corrupted.len();
        corrupted[pos] ^= 1 << (flip % 8);
        match read_frame(&mut std::io::Cursor::new(&corrupted)) {
            Err(WireError::Corrupt(_)) | Err(WireError::TooLarge(_)) => {}
            Ok(Some(payload)) => {
                // A length-shrinking header flip can still yield a CRC-valid
                // shorter frame only if the CRC bytes collide — the mask plus
                // crc32c make that impossible for a single bit flip.
                panic!("corrupt frame decoded as {} payload bytes", payload.len());
            }
            other => panic!("corrupt frame gave {other:?}"),
        }
        // Truncation mid-frame is corruption, not clean EOF.
        let cut = cut.min(wire.len() - 1);
        let truncated = &wire[..wire.len() - cut];
        match read_frame(&mut std::io::Cursor::new(truncated)) {
            Err(WireError::Corrupt(_)) => {}
            other => panic!("truncated frame gave {other:?}"),
        }
    }
}

// --- loopback integration --------------------------------------------

fn start_server(opts: ServerOptions) -> (Server, Arc<pm_blade::Db>) {
    start_server_custom(tiny_options(Mode::PmBlade), opts)
}

fn start_server_custom(
    engine: pm_blade::Options,
    opts: ServerOptions,
) -> (Server, Arc<pm_blade::Db>) {
    let db = Arc::new(pm_blade::Db::open(engine).expect("engine opens"));
    let server = Server::start(Arc::clone(&db), opts).expect("server binds");
    (server, db)
}

/// One raw HTTP exchange against the metrics/debug listener; returns
/// the full response (headers + body) as a string.
fn http_request(addr: std::net::SocketAddr, method: &str, path: &str) -> String {
    let mut http = std::net::TcpStream::connect(addr).unwrap();
    http.write_all(
        format!("{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    response
}

fn quick_poll() -> ServerOptions {
    ServerOptions {
        poll_interval: Duration::from_millis(5),
        ..ServerOptions::default()
    }
}

#[test]
fn loopback_parity_with_direct_db_calls() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 200;
    let (server, db) = start_server(quick_poll());
    let addr = server.local_addr();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                for i in (t * PER_THREAD)..((t + 1) * PER_THREAD) {
                    if i % 3 == 0 {
                        let mut batch = WriteBatch::new();
                        for j in 0..3 {
                            batch.put(key_for(i * 10 + j), value_for(i, 48));
                        }
                        client.write_batch(batch).expect("batch");
                    } else {
                        client
                            .put(&key_for(i * 10), &value_for(i, 48))
                            .expect("put");
                    }
                    if i % 7 == 0 {
                        client.delete(&key_for(i * 10 + 1)).expect("delete");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Client-observed reads must be byte-identical to direct Db calls
    // on the same engine.
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..(THREADS * PER_THREAD) {
        for j in 0..3 {
            let key = key_for(i * 10 + j);
            let via_wire = client.get(&key).expect("remote get");
            let direct = db.get(&key).expect("direct get").value;
            assert_eq!(via_wire, direct, "get parity diverged on key {i}*10+{j}");
        }
    }
    let scan = ScanRequest::new().start(key_for(0)).limit(5_000);
    let via_wire = client.scan(scan.clone()).expect("remote scan");
    let (direct, _) = db.scan(scan).expect("direct scan");
    assert_eq!(via_wire, direct, "scan parity diverged");

    // Paged scans see the same rows as one big scan, over more than
    // one 1 000-row page.
    assert!(
        via_wire.len() > 1_000,
        "{} rows fit one page",
        via_wire.len()
    );
    let paged = client
        .scan_paged(ScanRequest::new().start(key_for(0)).limit(5_000))
        .expect("paged scan");
    assert_eq!(paged, via_wire, "paged scan diverged from single scan");

    // Remote compaction works and reads still agree afterwards.
    client
        .compact(CompactionRequest::FlushAll)
        .expect("compact");
    let key = key_for(20);
    assert_eq!(
        client.get(&key).unwrap(),
        db.get(&key).unwrap().value,
        "post-compaction parity"
    );

    let returned = server.shutdown();
    assert_eq!(
        returned.metrics_snapshot().counter("server_errors_total"),
        0
    );
}

#[test]
fn shutdown_drains_pipelined_requests_without_lost_acks() {
    const PIPELINED: u64 = 64;
    let (server, _db) = start_server(quick_poll());
    let addr = server.local_addr();

    // Pipeline a burst of puts on a raw socket without reading any
    // response, so the frames are queued server-side when shutdown
    // begins.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // Handshake first, so the handler thread is provably attached
    // before shutdown starts (otherwise the not-yet-accepted socket is
    // reset when the listener drops).
    Request::Ping.write(&mut stream, &mut Vec::new()).unwrap();
    match Response::read(&mut stream, &mut Vec::new()) {
        Ok(Some(Response::Pong)) => {}
        other => panic!("handshake failed: {other:?}"),
    }
    for i in 0..PIPELINED {
        Request::Put {
            key: key_for(i),
            value: value_for(i, 32),
        }
        .write(&mut stream, &mut Vec::new())
        .unwrap();
    }
    stream.flush().unwrap();

    // Shutdown must serve every already-sent frame before closing.
    let db = server.shutdown();

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut acked = 0;
    loop {
        match Response::read(&mut stream, &mut Vec::new()) {
            Ok(Some(Response::Written { .. })) => acked += 1,
            Ok(Some(other)) => panic!("unexpected response {other:?}"),
            Ok(None) => break,
            Err(e) => panic!("reading drained responses failed: {e}"),
        }
    }
    assert_eq!(acked, PIPELINED, "every pipelined request must be acked");
    // Every acked write is visible in the engine after shutdown.
    for i in 0..PIPELINED {
        assert_eq!(
            db.get(&key_for(i)).unwrap().value,
            Some(value_for(i, 32)),
            "acked key {i} lost in shutdown"
        );
    }
}

#[test]
fn rate_limit_throttles_hot_client_without_errors() {
    let opts = ServerOptions {
        rate_limit_ops_per_sec: Some(500),
        rate_limit_burst: 1,
        ..quick_poll()
    };
    let (server, _db) = start_server(opts);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    for i in 0..50u64 {
        client
            .put(&key_for(i), b"hot")
            .expect("throttled, not errored");
    }
    for i in 0..50u64 {
        assert_eq!(
            client.get(&key_for(i)).expect("read back"),
            Some(b"hot".to_vec())
        );
    }

    let db = server.shutdown();
    let snap = db.metrics_snapshot();
    assert!(
        snap.counter("server_throttled_total") > 0,
        "the hot connection must have been throttled at least once"
    );
    assert_eq!(snap.counter("server_errors_total"), 0);
    assert_eq!(snap.counter("server_put_total"), 50);
    assert_eq!(snap.counter("server_get_total"), 50);
}

#[test]
fn corrupt_frame_gets_error_response_and_disconnect() {
    let (server, _db) = start_server(quick_poll());
    let addr = server.local_addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Ping.encode_payload()).unwrap();
    *frame.last_mut().unwrap() ^= 0xFF;
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match Response::read(&mut stream, &mut Vec::new()) {
        Ok(Some(Response::Error { code: 0, message })) => {
            assert!(message.contains("corrupt"), "got message {message:?}");
        }
        other => panic!("expected a code-0 error, got {other:?}"),
    }
    // The server hangs up after a framing error.
    assert!(Response::read(&mut stream, &mut Vec::new())
        .unwrap()
        .is_none());

    let db = server.shutdown();
    assert!(db.metrics_snapshot().counter("server_errors_total") > 0);
}

/// A reply over the frame cap is refused before a byte of it leaves:
/// the client hears why, and the connection keeps its frame sync.
#[test]
fn over_cap_scan_reply_is_an_error_and_the_connection_lives_on() {
    let engine = pm_blade::Options {
        memtable_bytes: 64 << 20,
        ..pm_blade::Options::pm_blade(128 << 20)
    };
    let (server, db) = start_server_custom(engine, quick_poll());
    // 33 MiB of rows, all in the memtable: one MiB past the cap.
    let value = vec![b'v'; 1 << 20];
    for i in 0..33u64 {
        db.put(&key_for(i), &value).unwrap();
    }
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.scan(ScanRequest::new()) {
        Err(ClientError::Remote { code: 0, message }) => {
            let cap = MAX_FRAME_BYTES.to_string();
            assert!(message.contains(&cap), "got message {message:?}");
        }
        other => panic!("expected a code-0 error, got {other:?}"),
    }
    client
        .ping()
        .expect("the connection is still in frame sync");
    assert_eq!(client.get(&key_for(0)).unwrap(), Some(value));
    drop(client);
    let db = server.shutdown();
    assert_eq!(db.metrics_snapshot().counter("server_errors_total"), 1);
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let opts = ServerOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..quick_poll()
    };
    let (server, _db) = start_server(opts);
    let addr = server.local_addr();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener");

    let mut client = Client::connect(addr).unwrap();
    client.put(b"observed", b"yes").unwrap();
    client.get(b"observed").unwrap();

    let mut http = std::net::TcpStream::connect(metrics_addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "got {body:.60?}");
    assert!(
        body.contains("pmblade_server_put_total 1"),
        "server op counters exported"
    );
    assert!(body.contains("pmblade_server_get_total 1"));
    assert!(body.contains("pmblade_puts"), "engine counters ride along");
    assert!(body.contains("pmblade_server_flushes_total"));
    assert!(body.contains("pmblade_server_flush_latency_count"));

    server.shutdown();
}

#[test]
fn remote_errors_carry_stable_codes() {
    let (server, _db) = start_server(quick_poll());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Compacting a partition that does not exist must not kill the
    // connection: it comes back as a typed remote error, and the
    // connection keeps working.
    match client.compact(CompactionRequest::Flush { partition: 9_999 }) {
        Err(pm_blade_client::ClientError::Remote { code, message }) => {
            assert!(code > 0, "engine errors carry nonzero codes, got {message}");
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    client.ping().expect("connection survives an engine error");

    server.shutdown();
}

// --- buffered, coalescing connection I/O ------------------------------
//
// The server frames replies into a `BufWriter` and flushes only when it
// is about to block. These tests pin the rule that makes that safe —
// no reply is held across a blocking read, a rate-limit sleep, or a
// return — and that coalescing really happens.

/// A raw socket to the server: the tests below control exactly which
/// bytes go out in which `write`.
fn raw_connection(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// `requests` framed back to back, plus the offset at which each frame
/// ends.
fn frames(requests: &[Request]) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let ends = requests
        .iter()
        .map(|r| {
            r.write(&mut wire, &mut Vec::new()).unwrap();
            wire.len()
        })
        .collect();
    (wire, ends)
}

fn read_reply(stream: &mut std::net::TcpStream) -> Response {
    Response::read(stream, &mut Vec::new())
        .expect("reply arrives")
        .expect("connection still open")
}

fn put(i: u64) -> Request {
    Request::Put {
        key: key_for(i),
        value: value_for(i, 32),
    }
}

#[test]
fn replies_are_not_withheld_behind_a_split_frame() {
    // A long poll interval: the mid-frame stall grace (two read
    // timeouts) must outlast the client's pause between the halves.
    let opts = ServerOptions {
        poll_interval: Duration::from_millis(500),
        ..ServerOptions::default()
    };
    let (server, _db) = start_server(opts);
    let mut stream = raw_connection(server.local_addr());

    let get = Request::Get { key: key_for(1) };
    let (wire, ends) = frames(&[put(1), get, put(2)]);
    let cut = (ends[1] + ends[2]) / 2;
    // Two whole frames and the first half of a third, in one write.
    stream.write_all(&wire[..cut]).unwrap();
    // Both replies must arrive while the third frame is incomplete: a
    // client may well wait for them before it sends the rest.
    assert!(matches!(read_reply(&mut stream), Response::Written { .. }));
    match read_reply(&mut stream) {
        Response::Value { value, .. } => assert_eq!(value, Some(value_for(1, 32))),
        other => panic!("expected the value, got {other:?}"),
    }
    stream.write_all(&wire[cut..]).unwrap();
    assert!(matches!(read_reply(&mut stream), Response::Written { .. }));

    drop(stream);
    let db = server.shutdown();
    assert_eq!(db.metrics_snapshot().counter("server_errors_total"), 0);
}

#[test]
fn depth_one_client_gets_exactly_one_flush_per_request() {
    let (server, _db) = start_server(quick_poll());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..50 {
        client.ping().expect("ping");
    }
    drop(client);
    // Shutdown joins the handler, so the counts are final.
    let snap = server.shutdown().metrics_snapshot();
    assert_eq!(snap.counter("server_ping_total"), 50);
    assert_eq!(snap.counter("server_flushes_total"), 50);
    let flush_latency = &snap.histograms[&pm_blade::MetricKey::global("server_flush_latency")];
    assert_eq!(flush_latency.count, 50, "one latency sample per flush");
}

#[test]
fn pipelined_batch_is_answered_with_few_flushes() {
    const PIPELINED: u64 = 64;
    let (server, _db) = start_server(quick_poll());
    let mut stream = raw_connection(server.local_addr());
    let requests: Vec<Request> = (0..PIPELINED).map(put).collect();
    let (wire, _) = frames(&requests);
    stream.write_all(&wire).unwrap();
    for i in 0..PIPELINED {
        match read_reply(&mut stream) {
            Response::Written { .. } => {}
            other => panic!("reply {i}: {other:?}"),
        }
    }
    drop(stream);
    let snap = server.shutdown().metrics_snapshot();
    assert_eq!(snap.counter("server_put_total"), PIPELINED);
    let flushes = snap.counter("server_flushes_total");
    assert!(
        (1..=8).contains(&flushes),
        "{PIPELINED} pipelined replies left in {flushes} flushes"
    );
}

#[test]
fn frames_larger_than_the_io_buffers_round_trip_between_small_ones() {
    let (server, db) = start_server(quick_poll());
    let mut stream = raw_connection(server.local_addr());

    // A 1 MiB request frame and, from the scan, a reply frame of about
    // the same size: both bypass the 64 KiB connection buffers.
    let ops: Vec<BatchOp> = (0..1024u64)
        .map(|i| BatchOp::Put {
            key: key_for(1_000 + i),
            value: value_for(i, 1024),
        })
        .collect();
    let scan = ScanRequest::new().start(key_for(1_000)).limit(5_000);
    let (wire, ends) = frames(&[
        put(1),
        Request::WriteBatch { ops },
        Request::Scan(scan.clone()),
        Request::Ping,
    ]);
    assert!(ends[1] - ends[0] > 1 << 20, "the batch frame exceeds 1 MiB");
    let sender = {
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || stream.write_all(&wire).unwrap())
    };

    assert!(matches!(read_reply(&mut stream), Response::Written { .. }));
    assert!(matches!(read_reply(&mut stream), Response::Written { .. }));
    match read_reply(&mut stream) {
        Response::Rows { rows, .. } => {
            assert_eq!(rows.len(), 1024);
            assert_eq!(rows, db.scan(scan).unwrap().0, "scan parity");
        }
        other => panic!("expected rows, got {other:?}"),
    }
    assert_eq!(read_reply(&mut stream), Response::Pong);
    sender.join().unwrap();

    drop(stream);
    let db = server.shutdown();
    assert_eq!(db.metrics_snapshot().counter("server_errors_total"), 0);
}

#[test]
fn replies_do_not_wait_out_a_rate_limit_sleep() {
    // 20 ops/s, burst 1: the second and third ping each wait one 50 ms
    // refill period.
    const PERIOD: Duration = Duration::from_millis(50);
    let opts = ServerOptions {
        rate_limit_ops_per_sec: Some(20),
        rate_limit_burst: 1,
        ..quick_poll()
    };
    let (server, _db) = start_server(opts);
    let mut stream = raw_connection(server.local_addr());

    let (wire, _) = frames(&[Request::Ping, Request::Ping, Request::Ping]);
    stream.write_all(&wire).unwrap();
    let mut arrived = Vec::new();
    for _ in 0..3 {
        assert_eq!(read_reply(&mut stream), Response::Pong);
        arrived.push(std::time::Instant::now());
    }
    // Were replies held across the throttle sleeps, all three pongs
    // would leave together at the end.
    let spread = arrived[2] - arrived[0];
    assert!(
        spread >= PERIOD,
        "third pong {spread:?} after the first; the first was withheld"
    );

    drop(stream);
    let snap = server.shutdown().metrics_snapshot();
    assert_eq!(snap.counter("server_throttled_total"), 2);
    assert_eq!(snap.counter("server_errors_total"), 0);
}

#[test]
fn connection_churn_leaves_bounded_metric_cardinality() {
    const CYCLES: u64 = 300;
    let opts = ServerOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..quick_poll()
    };
    // The memtable holds every put, so no flush adds an engine series
    // (a flush labels the codec it picked) and any new series would be
    // the connections'.
    let mut engine = tiny_options(Mode::PmBlade);
    engine.memtable_bytes = 256 << 10;
    let (server, db) = start_server_custom(engine, opts);
    let addr = server.local_addr();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener");

    // The series `/metrics` lists, each line up to its value.
    let series = || -> Vec<String> {
        let body = http_request(metrics_addr, "GET", "/metrics");
        let (_, text) = body.split_once("\r\n\r\n").expect("headers end");
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').expect("series and value").0.to_owned())
            .collect()
    };
    let mut live = Client::connect(addr).expect("connect");
    live.ping().unwrap();
    let with_one_connection = series();
    for i in 0..CYCLES {
        let mut client = Client::connect(addr).expect("connect");
        client.put(&key_for(i), b"churn").expect("put");
    }
    // Handlers notice the hang-ups on their own time.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 1 {
        assert!(std::time::Instant::now() < deadline, "handlers linger");
        std::thread::sleep(Duration::from_millis(5));
    }

    assert_eq!(
        series(),
        with_one_connection,
        "{CYCLES} closed connections changed the series listed"
    );
    assert_eq!(db.metrics_snapshot().counter("server_put_total"), CYCLES);

    drop(live);
    server.shutdown();
}

/// Send `wire` in writes of the given sizes (cycled) and collect
/// `replies` responses.
fn replies_to(wire: &[u8], write_sizes: &[usize], replies: usize) -> Vec<Response> {
    // A generous stall grace (two poll intervals): this test's own
    // thread may be descheduled between two writes that split a frame.
    let opts = ServerOptions {
        poll_interval: Duration::from_millis(100),
        ..ServerOptions::default()
    };
    let (server, _db) = start_server(opts);
    let mut stream = raw_connection(server.local_addr());
    let mut rest = wire;
    for &size in write_sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(size.min(rest.len()));
        stream.write_all(now).unwrap();
        rest = later;
    }
    let got = (0..replies).map(|_| read_reply(&mut stream)).collect();
    drop(stream);
    server.shutdown();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// However the byte stream is cut into writes — mid-header,
    /// mid-payload, many frames at once — the server answers every
    /// request, in order, exactly as it does one frame per write.
    #[test]
    fn replies_do_not_depend_on_how_the_stream_is_cut(
        requests in proptest::collection::vec(request_strategy(), 1..24),
        cuts in proptest::collection::vec(1usize..96, 1..16),
    ) {
        let (wire, ends) = frames(&requests);
        let mut frame_sizes = ends.clone();
        for i in (1..frame_sizes.len()).rev() {
            frame_sizes[i] -= frame_sizes[i - 1];
        }
        let whole = replies_to(&wire, &frame_sizes, requests.len());
        let cut = replies_to(&wire, &cuts, requests.len());
        prop_assert_eq!(cut, whole);
    }
}

// --- end-to-end tracing over the wire --------------------------------

/// The acceptance path for wire tracing: a client-chosen trace id
/// rides the `Request::Traced` envelope through the server into the
/// engine, and at least one traced remote get records four distinct
/// engine stages (memtable probe, filter consult, PM decode, SSD
/// search), exportable as balanced Chrome trace-event JSON.
#[test]
fn traced_remote_get_spans_client_server_engine() {
    const LIVE_ID: u64 = 0xDEAD_BEEF;
    const PROBE_BASE: u64 = 0xBEEF_0000;
    let mut engine = tiny_options(Mode::PmBlade);
    // Deliberately weak filters: the absent-key probes below need
    // bloom false positives to walk the PM-decode leg before falling
    // through to the SSD. The sorted run's table is the one a get
    // still consults its own filter for (an unsorted table's keys are
    // in the level-0 key sketch, which has no false positives to speak
    // of). At 1 bit per key its 1 024 keys get two 512-bit lines, each
    // key setting six bits in one: a line passes ~98 % of absent keys.
    engine.pm_filter_bits_per_key = 1;
    engine.pm_group_cache_bytes = 256 << 10;
    engine.trace_sample_every = 0; // only wire-adopted contexts record
    let (server, db) = start_server_custom(engine, quick_poll());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // Old versions to the SSD, new versions into PM level-0.
    for i in 0..20u64 {
        client.put(&key_for(i), &value_for(i, 64)).unwrap();
    }
    client.compact(CompactionRequest::FlushAll).unwrap();
    client
        .compact(CompactionRequest::Major { partition: 0 })
        .unwrap();
    for i in 0..1024u64 {
        client.put(&key_for(i), &value_for(i + 100, 64)).unwrap();
    }
    client.compact(CompactionRequest::FlushAll).unwrap();
    client
        .compact(CompactionRequest::Internal { partition: 0 })
        .unwrap();

    // Engine sampling is off, so every trace below came over the wire.
    assert_eq!(db.metrics_snapshot().counter("trace_sampled_total"), 0);
    assert!(db.flight_recorder().is_empty());

    // A traced get of a live key: the client-chosen id must appear in
    // the server-side flight recorder with a stage breakdown.
    let ctx = TraceContext::sampled(LIVE_ID);
    let (value, latency) = client.get_with(&key_for(7), Some(ctx)).unwrap();
    assert_eq!(value, Some(value_for(107, 64)));
    assert!(latency > 0);
    assert_eq!(db.metrics_snapshot().counter("trace_sampled_total"), 1);
    let recorded = db.flight_recorder();
    let ours = recorded
        .iter()
        .find(|t| t.trace_id == LIVE_ID)
        .expect("client-originated trace id reaches the server-side flight recorder");
    assert_eq!(ours.op, TraceOp::Get);
    assert!(!ours.stages.is_empty());
    assert!(ours.stage_nanos() <= ours.total_nanos);
    assert!(ours.stages.iter().all(|s| s.trace_id == LIVE_ID));

    // Absent keys that sit between the sorted run's fences: with 1-bit
    // filters, a false positive (~98% per key) sends the probe through
    // the PM decode before the SSD search. 64 candidates make a miss
    // on all of them vanishingly unlikely.
    for i in 0..64u64 {
        let key = format!("key{:08}x{i:02}", i % 19).into_bytes();
        let (miss, _) = client
            .get_with(&key, Some(TraceContext::sampled(PROBE_BASE + i)))
            .unwrap();
        assert_eq!(miss, None, "probe keys must not exist");
    }
    let traces = db.flight_recorder();
    let deep = traces
        .iter()
        .filter(|t| t.trace_id >= PROBE_BASE)
        .find(|t| {
            t.stages.iter().map(|s| s.kind).collect::<Vec<_>>().len() >= 4
                && t.stages
                    .iter()
                    .map(|s| s.kind.as_str())
                    .collect::<BTreeSet<_>>()
                    .len()
                    >= 4
        })
        .expect("at least one remote get records four distinct engine stages");
    let kinds: BTreeSet<&str> = deep.stages.iter().map(|s| s.kind.as_str()).collect();
    for want in ["memtable_probe", "filter_consult", "ssd_read"] {
        assert!(kinds.contains(want), "missing stage {want}, got {kinds:?}");
    }
    assert!(
        kinds.contains("pm_decode_miss") || kinds.contains("pm_decode_hit"),
        "a false-positive probe decodes from PM or the group cache, got {kinds:?}"
    );

    // The whole ring exports as balanced Chrome trace-event JSON.
    let json = db.chrome_trace();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains(&format!("\"tid\": {LIVE_ID}")));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    server.shutdown();
}

// --- /metrics + /debug HTTP behavior ---------------------------------

#[test]
fn metrics_http_sets_content_type_and_supports_head() {
    let opts = ServerOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..quick_poll()
    };
    let (server, _db) = start_server(opts);
    let metrics_addr = server.metrics_local_addr().expect("metrics listener");

    let get = http_request(metrics_addr, "GET", "/metrics");
    assert!(get.starts_with("HTTP/1.1 200 OK"), "got {get:.80?}");
    assert!(
        get.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "explicit prometheus content type"
    );
    assert!(
        get.contains("pmblade_server_inflight_requests"),
        "inflight gauge exported"
    );

    let head = http_request(metrics_addr, "HEAD", "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "got {head:.80?}");
    assert!(head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("HEAD carries Content-Length")
        .trim()
        .parse()
        .unwrap();
    assert!(content_length > 0, "HEAD advertises the GET body size");
    assert!(
        head.ends_with("\r\n\r\n"),
        "HEAD response must not carry a body"
    );

    let post = http_request(metrics_addr, "POST", "/metrics");
    assert!(post.starts_with("HTTP/1.1 405"), "got {post:.80?}");
    let missing = http_request(metrics_addr, "GET", "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "got {missing:.80?}");

    server.shutdown();
}

#[test]
fn debug_endpoint_serves_flight_recorder_and_queue_state() {
    const WIRE_ID: u64 = 3_735_928_559; // 0xDEADBEEF
    let mut engine = tiny_options(Mode::PmBlade);
    engine.trace_sample_every = 0;
    let opts = ServerOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..quick_poll()
    };
    let (server, db) = start_server_custom(engine, opts);
    let addr = server.local_addr();
    let metrics_addr = server.metrics_local_addr().expect("metrics listener");

    let mut client = Client::connect(addr).unwrap();
    client.put(b"slow", b"query").unwrap();
    client
        .get_with(b"slow", Some(TraceContext::sampled(WIRE_ID)))
        .unwrap();

    let response = http_request(metrics_addr, "GET", "/debug");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "got {response:.80?}"
    );
    assert!(response.contains("Content-Type: application/json"));
    assert!(response.contains("\"flight_recorder\""));
    assert!(
        response.contains(&format!("\"trace_id\": {WIRE_ID}")),
        "the traced request shows up in the debug dump"
    );
    assert!(response.contains("\"maintenance\""));
    assert!(response.contains("\"queue_depth\""));
    assert!(response.contains("\"jobs_inflight\""));
    // The split of the one cache budget, as the tuner left it.
    let (block, group) = db.cache_split();
    let split = format!(
        "\"cache_split\": {{\"block_cache_bytes\": {block}, \"pm_group_cache_bytes\": {group}}}"
    );
    assert!(response.contains(&split), "{response}");
    assert!(response.contains("\"inflight_requests\""));
    assert!(response.contains("\"metrics\""));
    assert!(response.contains("server_flushes_total"));
    assert!(response.contains("server_flush_latency"));
    // Recovery observability rides the registry: the durability
    // counters are pre-registered in every mode, so the live debug
    // dump always lists them (zero without a wal_dir).
    assert!(response.contains("manifest_edits_total"));
    assert!(response.contains("recovery_wal_records_replayed"));
    assert!(response.contains("recovery_tables_reopened"));
    // So does the PM level-0 key sketch: its lookups and DRAM bytes.
    assert!(response.contains("pm_l0_sketch_probes_total"));
    assert!(response.contains("pm_l0_sketch_bytes"));
    // And the scan side's key columns: tables held and opened, bytes.
    assert!(response.contains("pm_scan_tables_total"));
    assert!(response.contains("pm_scan_tables_sought_total"));
    assert!(response.contains("pm_l0_key_column_bytes"));
    // And every level-0 index together: sketch, columns, fences, filters.
    assert!(response.contains("pm_l0_index_bytes"));

    server.shutdown();
}
