//! The timed loops: one closed-loop client thread issuing the
//! generated ops against the embedded engine or over a loopback
//! connection, checking every result against the oracle.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use pm_blade::protocol::{read_frame, write_frame, Request, Response};
use pm_blade::{Db, ScanRequest};

use crate::gen::{write_key, write_value, NoisePool, KEY_LEN, VALUE_LEN};
use crate::oracle::{Oracle, SCAN_LIMIT};
use crate::trace::{SpanName, Tracer};

/// Bit 31 of an op marks a put; the rest is the key id.
pub const PUT_BIT: u32 = 1 << 31;
/// Requests in flight on the loopback connection: write 16, flush,
/// read 16.
pub const WINDOW: usize = 16;

/// What one run accumulates while it issues ops.
pub struct Ledger {
    pub oracle: Oracle,
    pub noise: NoisePool,
    /// Virtual latency of each timed op in nanoseconds, in issue order.
    pub virt_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Ledger {
    pub fn new(oracle: Oracle, noise: NoisePool) -> Ledger {
        Ledger {
            oracle,
            noise,
            virt_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    #[cold]
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// Gets and puts straight into the engine. `record` is false during
/// preload and warm-up, whose latencies are not samples.
pub fn kv_ops<const TRACED: bool>(
    db: &Db,
    ledger: &mut Ledger,
    ops: &[u32],
    record: bool,
    first_request: u32,
    tracer: &mut Tracer,
) {
    let mut key = [0u8; KEY_LEN];
    let mut value = [0u8; VALUE_LEN];
    for (i, &op) in ops.iter().enumerate() {
        let request = first_request.wrapping_add(i as u32);
        let id = op & !PUT_BIT;
        let start = tracer.now_if::<TRACED>();
        write_key(&mut key, id);
        ledger.attempted += 1;
        let (name, call_start, call_end);
        if op & PUT_BIT != 0 {
            let stamp = ledger.oracle.next_stamp();
            write_value(&mut value, id, stamp, ledger.noise.at(stamp));
            call_start = tracer.now_if::<TRACED>();
            let outcome = db.put(&key, &value);
            call_end = tracer.now_if::<TRACED>();
            name = SpanName::DbPut;
            match outcome {
                Ok(latency) => {
                    ledger.oracle.accept(id, stamp);
                    if record {
                        ledger.virt_ns.push(latency.as_nanos());
                    }
                }
                Err(e) => ledger.fail(|| format!("put user{id:010}: {e}")),
            }
        } else {
            call_start = tracer.now_if::<TRACED>();
            let outcome = db.get(&key);
            call_end = tracer.now_if::<TRACED>();
            name = SpanName::DbGet;
            match outcome {
                Ok(read) => {
                    if record {
                        ledger.virt_ns.push(read.latency.as_nanos());
                    }
                    if !ledger.oracle.get_ok(id, read.value.as_deref()) {
                        ledger.fail(|| format!("get user{id:010}: stale, missing or foreign"));
                    }
                }
                Err(e) => ledger.fail(|| format!("get user{id:010}: {e}")),
            }
        }
        if TRACED {
            let end = tracer.now();
            let call_ns = call_end - call_start;
            tracer.record(
                name,
                Some(SpanName::Request),
                request,
                call_start,
                call_end,
                0,
            );
            tracer.record(SpanName::Request, None, request, start, end, call_ns);
        }
    }
}

/// Forward scans of `SCAN_LIMIT` rows from each op's key.
pub fn scan_ops<const TRACED: bool>(
    db: &Db,
    ledger: &mut Ledger,
    ops: &[u32],
    record: bool,
    first_request: u32,
    tracer: &mut Tracer,
) {
    let mut key = [0u8; KEY_LEN];
    for (i, &id) in ops.iter().enumerate() {
        let request = first_request.wrapping_add(i as u32);
        let start = tracer.now_if::<TRACED>();
        write_key(&mut key, id);
        ledger.attempted += 1;
        let scan = ScanRequest::new().start(key.to_vec()).limit(SCAN_LIMIT);
        let call_start = tracer.now_if::<TRACED>();
        let outcome = db.scan(scan);
        let call_end = tracer.now_if::<TRACED>();
        match outcome {
            Ok((rows, latency)) => {
                if record {
                    ledger.virt_ns.push(latency.as_nanos());
                }
                if let Err(fault) = ledger.oracle.scan_ok(id, &rows) {
                    ledger.fail(|| format!("scan from user{id:010}: {fault:?}"));
                }
            }
            Err(e) => ledger.fail(|| format!("scan from user{id:010}: {e}")),
        }
        if TRACED {
            let end = tracer.now();
            let call_ns = call_end - call_start;
            tracer.record(
                SpanName::DbScan,
                Some(SpanName::Request),
                request,
                call_start,
                call_end,
                0,
            );
            tracer.record(SpanName::Request, None, request, start, end, call_ns);
        }
    }
}

/// The client side of one loopback connection.
pub struct Wire {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    /// Frame bytes sent and received (headers included).
    pub bytes: u64,
}

impl Wire {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            bytes: 0,
        })
    }

    /// One request, one response, nothing else in flight.
    pub fn round_trip(&mut self, request: &Request) -> Result<Response, String> {
        let payload = request.encode_payload();
        write_frame(&mut self.writer, &payload).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let reply = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        self.bytes += (payload.len() + reply.len() + 16) as u64;
        Response::decode(&reply).map_err(|e| e.to_string())
    }
}

/// What a window slot remembers between sending and checking.
#[derive(Clone, Copy, Default)]
struct InFlight {
    id: u32,
    /// The stamp a put carries, or the newest stamp when a get was sent.
    stamp: u64,
    put: bool,
    start_ns: u64,
    children_ns: u64,
}

/// The same get/put mix over the wire, `WINDOW` requests at a time.
/// Requests on one connection are served in order, so a get sent after
/// a put of the same key in one window must see that put.
pub fn wire_ops<const TRACED: bool>(
    wire: &mut Wire,
    ledger: &mut Ledger,
    ops: &[u32],
    record: bool,
    first_request: u32,
    tracer: &mut Tracer,
) {
    let mut key = [0u8; KEY_LEN];
    let mut value = [0u8; VALUE_LEN];
    let mut slots = [InFlight::default(); WINDOW];
    for (w, window) in ops.chunks(WINDOW).enumerate() {
        let window_request = first_request.wrapping_add((w * WINDOW) as u32);
        let mut frame_ns = 0u64;
        for (i, &op) in window.iter().enumerate() {
            let id = op & !PUT_BIT;
            let start_ns = tracer.now_if::<TRACED>();
            write_key(&mut key, id);
            ledger.attempted += 1;
            let put = op & PUT_BIT != 0;
            let (request, stamp) = if put {
                let stamp = ledger.oracle.next_stamp();
                write_value(&mut value, id, stamp, ledger.noise.at(stamp));
                // The server applies requests in order, so later gets in
                // this window are checked against this stamp.
                ledger.oracle.accept(id, stamp);
                let request = Request::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                };
                (request, stamp)
            } else {
                (Request::Get { key: key.to_vec() }, ledger.oracle.newest(id))
            };
            let encode_start = tracer.now_if::<TRACED>();
            let payload = request.encode_payload();
            let encode_end = tracer.now_if::<TRACED>();
            if let Err(e) = write_frame(&mut wire.writer, &payload) {
                ledger.fail(|| format!("send user{id:010}: {e}"));
            }
            wire.bytes += payload.len() as u64 + 8;
            slots[i] = InFlight {
                id,
                stamp,
                put,
                start_ns,
                children_ns: encode_end - encode_start,
            };
            if TRACED {
                let framed = tracer.now();
                frame_ns += framed - encode_end;
                tracer.record(
                    SpanName::Encode,
                    Some(SpanName::Request),
                    window_request.wrapping_add(i as u32),
                    encode_start,
                    encode_end,
                    0,
                );
            }
        }
        let flush_start = tracer.now_if::<TRACED>();
        if let Err(e) = wire.writer.flush() {
            ledger.fail(|| format!("flush: {e}"));
        }
        if TRACED {
            // One span per window: the framing copies plus the flush,
            // shown from the flush backwards so it does not overlap the
            // encode spans' own time.
            let flush_end = tracer.now();
            tracer.record(
                SpanName::SocketWrite,
                Some(SpanName::Request),
                window_request,
                flush_start.saturating_sub(frame_ns),
                flush_end,
                0,
            );
        }
        for (i, slot) in slots.iter().take(window.len()).enumerate() {
            let request = window_request.wrapping_add(i as u32);
            let id = slot.id;
            let read_start = tracer.now_if::<TRACED>();
            let reply = read_frame(&mut wire.reader);
            let read_end = tracer.now_if::<TRACED>();
            let payload = match reply {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    ledger.fail(|| "server closed the connection".to_string());
                    return;
                }
                Err(e) => {
                    ledger.fail(|| format!("receive user{id:010}: {e}"));
                    return;
                }
            };
            wire.bytes += payload.len() as u64 + 8;
            let decoded = Response::decode(&payload);
            let decode_end = tracer.now_if::<TRACED>();
            match decoded {
                Ok(Response::Written { latency_nanos }) if slot.put => {
                    if record {
                        ledger.virt_ns.push(latency_nanos);
                    }
                }
                Ok(Response::Value {
                    value,
                    latency_nanos,
                }) if !slot.put => {
                    if record {
                        ledger.virt_ns.push(latency_nanos);
                    }
                    if !ledger.oracle.value_ok(id, slot.stamp, value.as_deref()) {
                        ledger.fail(|| format!("wire get user{id:010}: stale, missing or foreign"));
                    }
                }
                Ok(other) => ledger.fail(|| format!("user{id:010}: unexpected reply {other:?}")),
                Err(e) => ledger.fail(|| format!("decode reply for user{id:010}: {e}")),
            }
            if TRACED {
                let parent = Some(SpanName::Request);
                tracer.record(SpanName::WaitRead, parent, request, read_start, read_end, 0);
                tracer.record(SpanName::Decode, parent, request, read_end, decode_end, 0);
                let children = slot.children_ns + (decode_end - read_start);
                tracer.record(
                    SpanName::Request,
                    None,
                    request,
                    slot.start_ns,
                    decode_end,
                    children,
                );
            }
        }
    }
}
