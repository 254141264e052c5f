//! The wire protocol shared by `pm-blade-server` and `pm-blade-client`.
//!
//! Every message travels in one CRC frame ([`encoding::frame`]), the
//! record format of the WAL and the manifest too. The payload is a tag
//! byte followed by varint/length-prefixed fields
//! ([`encoding::varint`]), the same primitives the table formats use.
//!
//! [`Request`] and [`Response`] are the canonical typed surface of the
//! engine: each request maps onto exactly one `Db` call, and
//! [`Request::Scan`] carries the engine's [`ScanRequest`] verbatim.
//! Errors cross the wire as `(code, message)` pairs using the stable
//! numeric codes of [`DbError::code`] — no stringly matching.

use std::io::{self, Read, Write};

use encoding::frame::{self, frame_into, HEADER};
use encoding::{crc, varint};

use crate::commit::BatchOp;
use crate::engine::{CompactionRequest, DbError, ScanRequest};
use crate::telemetry::TraceContext;

/// Hard cap on one frame's payload. Large enough for a full scan page
/// of sizeable rows, small enough that a corrupt length prefix cannot
/// balloon into a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Anything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (including read timeouts, which
    /// surface as `WouldBlock`/`TimedOut` and are retryable when they
    /// strike *between* frames).
    Io(io::Error),
    /// The peer sent bytes that do not parse: bad CRC, truncated
    /// payload, unknown tag, trailing garbage.
    Corrupt(String),
    /// The peer announced a frame larger than [`MAX_FRAME_BYTES`].
    TooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io: {e}"),
            WireError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            WireError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds cap of {MAX_FRAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// True when this is an idle read timeout: no frame bytes were
    /// consumed, so the caller may simply call `read_frame` again.
    pub fn is_idle_timeout(&self) -> bool {
        matches!(self, WireError::Io(e)
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
    }
}

/// One client request. Each variant maps onto one `Db` entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness / round-trip probe.
    Ping,
    /// `Db::put`.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// `Db::delete`.
    Delete { key: Vec<u8> },
    /// `Db::write_batch` — the batch-puts path.
    WriteBatch { ops: Vec<BatchOp> },
    /// `Db::get`.
    Get { key: Vec<u8> },
    /// `Db::scan`, carrying the engine's builder verbatim.
    Scan(ScanRequest),
    /// `Db::compact`.
    Compact(CompactionRequest),
    /// A request wrapped in a trace context: the server runs `inner`
    /// through the engine's `*_with` entry points so the client's
    /// trace id spans client → server → engine. Nesting is rejected on
    /// decode (one envelope per request).
    Traced {
        ctx: TraceContext,
        inner: Box<Request>,
    },
}

/// One server reply. Virtual latencies ride along so remote callers see
/// the same simulated-cost signal as in-process ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    Pong,
    /// A put/delete/batch was committed.
    Written {
        latency_nanos: u64,
    },
    /// A point read completed (`None` = key absent).
    Value {
        value: Option<Vec<u8>>,
        latency_nanos: u64,
    },
    /// A scan page.
    Rows {
        rows: Vec<(Vec<u8>, Vec<u8>)>,
        latency_nanos: u64,
    },
    /// A compaction request completed.
    Compacted,
    /// The engine refused: [`DbError::code`] plus its Display message.
    Error {
        code: u16,
        message: String,
    },
}

impl Response {
    /// Build the wire form of an engine error.
    pub fn from_db_error(e: &DbError) -> Response {
        Response::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

// --- framing ---------------------------------------------------------

/// Write one frame around an already-encoded `payload`. Two writes
/// (header, payload): hand it a buffered writer, or send the message
/// with [`Request::write`] / [`Response::write`], which frame it first.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&frame::header(payload))?;
    w.write_all(payload)?;
    Ok(())
}

/// True when `buf` starts with one complete frame (header plus all the
/// payload bytes it announces): reading that frame will not block.
pub fn starts_with_frame(buf: &[u8]) -> bool {
    buf.first_chunk()
        .is_some_and(|header| buf.len() - HEADER >= frame::parse_header(header).0)
}

/// Read one frame's payload into `payload` (replacing its contents, so
/// a connection can reuse one buffer). `Ok(false)` means the peer
/// closed the connection cleanly at a frame boundary. An idle read
/// timeout (no bytes consumed yet) surfaces as a retryable
/// [`WireError::Io`] — see [`WireError::is_idle_timeout`]; a peer that
/// stalls *mid-frame* is reported as corrupt after one grace retry.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<bool, WireError> {
    let mut header = [0u8; HEADER];
    if !read_full(r, &mut header, true)? {
        return Ok(false);
    }
    let (len, expect) = frame::parse_header(&header);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    payload.clear();
    payload.resize(len, 0);
    read_full(r, payload, false)?;
    let actual = crc::crc32c(payload);
    if actual != expect {
        return Err(WireError::Corrupt(format!(
            "payload crc {actual:#010x} != header {expect:#010x}"
        )));
    }
    Ok(true)
}

/// [`read_frame_into`] a fresh buffer; `Ok(None)` on clean EOF.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// What a connection's reused scratch buffer keeps between messages.
const SCRATCH_KEEP_BYTES: usize = 64 << 10;

/// Empty a scratch buffer and give back what a large message grew it
/// by, so an idle connection never pins a frame-cap-sized allocation.
fn release_scratch(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(SCRATCH_KEEP_BYTES);
}

/// Frame a message into the scratch buffer `frame` and send it with
/// one `write_all`: header and payload are contiguous, so the frame
/// leaves as one TCP segment on a `TCP_NODELAY` socket. A payload over
/// [`MAX_FRAME_BYTES`] is refused with nothing written: the peer would
/// refuse it without reading it, and the stream would lose frame sync.
fn write_framed<W: Write>(
    w: &mut W,
    frame: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    frame_into(frame, payload);
    let len = frame.len() - HEADER;
    let sent = if len > MAX_FRAME_BYTES {
        Err(WireError::TooLarge(len))
    } else {
        w.write_all(frame).map_err(WireError::from)
    };
    release_scratch(frame);
    sent
}

/// Read one frame through the scratch buffer `payload` and decode it;
/// `Ok(None)` on clean EOF.
fn read_framed<R: Read, T>(
    r: &mut R,
    payload: &mut Vec<u8>,
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    let message =
        read_frame_into(r, payload).and_then(|got| got.then(|| decode(payload)).transpose());
    release_scratch(payload);
    message
}

/// Fill `buf` completely. Returns `Ok(false)` on clean EOF before any
/// byte when `start_of_frame`; EOF or a persistent stall anywhere else
/// is corruption. An idle timeout at a frame boundary propagates as
/// `Io` with nothing consumed, so the caller can retry.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], start_of_frame: bool) -> Result<bool, WireError> {
    let mut filled = 0;
    let mut stalled = false;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if start_of_frame && filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Corrupt(format!(
                    "connection closed mid-frame ({filled}/{} bytes)",
                    buf.len()
                )));
            }
            Ok(n) => {
                filled += n;
                stalled = false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if start_of_frame && filled == 0 {
                    return Err(WireError::Io(e));
                }
                if stalled {
                    return Err(WireError::Corrupt(format!(
                        "peer stalled mid-frame ({filled}/{} bytes)",
                        buf.len()
                    )));
                }
                stalled = true;
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

// --- payload encoding ------------------------------------------------

mod tag {
    // Request tags.
    pub const PING: u8 = 0;
    pub const PUT: u8 = 1;
    pub const DELETE: u8 = 2;
    pub const WRITE_BATCH: u8 = 3;
    pub const GET: u8 = 4;
    pub const SCAN: u8 = 5;
    pub const COMPACT: u8 = 6;
    pub const TRACED: u8 = 7;

    // Response tags.
    pub const PONG: u8 = 0;
    pub const WRITTEN: u8 = 1;
    pub const VALUE: u8 = 2;
    pub const ROWS: u8 = 3;
    pub const COMPACTED: u8 = 4;
    pub const ERROR: u8 = 5;

    // BatchOp tags.
    pub const OP_PUT: u8 = 0;
    pub const OP_DELETE: u8 = 1;

    // CompactionRequest tags.
    pub const C_FLUSH: u8 = 0;
    pub const C_FLUSH_ALL: u8 = 1;
    pub const C_INTERNAL: u8 = 2;
    pub const C_MAJOR: u8 = 3;
    pub const C_RETENTION: u8 = 4;
}

fn put_opt_slice(out: &mut Vec<u8>, s: &Option<Vec<u8>>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            varint::put_slice(out, s);
        }
    }
}

fn corrupt(what: &str) -> WireError {
    WireError::Corrupt(format!("truncated or invalid {what}"))
}

struct Dec<'a> {
    r: varint::Reader<'a>,
    what: &'static str,
}

impl<'a> Dec<'a> {
    fn new(payload: &'a [u8], what: &'static str) -> Self {
        Dec {
            r: varint::Reader::new(payload),
            what,
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.r.read_bytes(1).ok_or_else(|| corrupt(self.what))?[0])
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.r.read_u64().ok_or_else(|| corrupt(self.what))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self
            .r
            .read_slice()
            .ok_or_else(|| corrupt(self.what))?
            .to_vec())
    }

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            _ => Err(corrupt(self.what)),
        }
    }

    /// Consume and return every remaining byte (the traced envelope's
    /// inner payload runs to the end of the frame — no length prefix).
    fn rest(&mut self) -> &'a [u8] {
        let n = self.r.remaining();
        self.r.read_bytes(n).unwrap_or(&[])
    }

    fn finish(self) -> Result<(), WireError> {
        if self.r.is_empty() {
            Ok(())
        } else {
            Err(WireError::Corrupt(format!(
                "{}: {} trailing bytes",
                self.what,
                self.r.remaining()
            )))
        }
    }
}

impl Request {
    /// Encode this request's payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_into(&mut out);
        out
    }

    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(tag::PING),
            Request::Put { key, value } => {
                out.push(tag::PUT);
                varint::put_slice(out, key);
                varint::put_slice(out, value);
            }
            Request::Delete { key } => {
                out.push(tag::DELETE);
                varint::put_slice(out, key);
            }
            Request::WriteBatch { ops } => {
                out.push(tag::WRITE_BATCH);
                varint::put_u64(out, ops.len() as u64);
                for op in ops {
                    match op {
                        BatchOp::Put { key, value } => {
                            out.push(tag::OP_PUT);
                            varint::put_slice(out, key);
                            varint::put_slice(out, value);
                        }
                        BatchOp::Delete { key } => {
                            out.push(tag::OP_DELETE);
                            varint::put_slice(out, key);
                        }
                    }
                }
            }
            Request::Get { key } => {
                out.push(tag::GET);
                varint::put_slice(out, key);
            }
            Request::Scan(req) => {
                out.push(tag::SCAN);
                varint::put_slice(out, &req.start);
                put_opt_slice(out, &req.end);
                varint::put_u64(out, req.limit as u64);
                out.push(req.reverse as u8);
            }
            Request::Compact(req) => {
                out.push(tag::COMPACT);
                match req {
                    CompactionRequest::Flush { partition } => {
                        out.push(tag::C_FLUSH);
                        varint::put_u64(out, *partition as u64);
                    }
                    CompactionRequest::FlushAll => out.push(tag::C_FLUSH_ALL),
                    CompactionRequest::Internal { partition } => {
                        out.push(tag::C_INTERNAL);
                        varint::put_u64(out, *partition as u64);
                    }
                    CompactionRequest::Major { partition } => {
                        out.push(tag::C_MAJOR);
                        varint::put_u64(out, *partition as u64);
                    }
                    CompactionRequest::MajorWithRetention => out.push(tag::C_RETENTION),
                }
            }
            Request::Traced { ctx, inner } => {
                out.push(tag::TRACED);
                varint::put_u64(out, ctx.trace_id);
                inner.encode_payload_into(out);
            }
        }
    }

    /// Decode one request payload. Trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut d = Dec::new(payload, "request");
        let req = match d.u8()? {
            tag::PING => Request::Ping,
            tag::PUT => Request::Put {
                key: d.bytes()?,
                value: d.bytes()?,
            },
            tag::DELETE => Request::Delete { key: d.bytes()? },
            tag::WRITE_BATCH => {
                let n = d.u64()? as usize;
                if n > MAX_FRAME_BYTES {
                    return Err(corrupt("request"));
                }
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(match d.u8()? {
                        tag::OP_PUT => BatchOp::Put {
                            key: d.bytes()?,
                            value: d.bytes()?,
                        },
                        tag::OP_DELETE => BatchOp::Delete { key: d.bytes()? },
                        _ => return Err(corrupt("batch op")),
                    });
                }
                Request::WriteBatch { ops }
            }
            tag::GET => Request::Get { key: d.bytes()? },
            tag::SCAN => {
                let start = d.bytes()?;
                let end = d.opt_bytes()?;
                let limit = d.u64()? as usize;
                let reverse = match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(corrupt("scan reverse flag")),
                };
                Request::Scan(ScanRequest {
                    start,
                    end,
                    limit,
                    reverse,
                })
            }
            tag::COMPACT => Request::Compact(match d.u8()? {
                tag::C_FLUSH => CompactionRequest::Flush {
                    partition: d.u64()? as usize,
                },
                tag::C_FLUSH_ALL => CompactionRequest::FlushAll,
                tag::C_INTERNAL => CompactionRequest::Internal {
                    partition: d.u64()? as usize,
                },
                tag::C_MAJOR => CompactionRequest::Major {
                    partition: d.u64()? as usize,
                },
                tag::C_RETENTION => CompactionRequest::MajorWithRetention,
                _ => return Err(corrupt("compaction request")),
            }),
            tag::TRACED => {
                let ctx = TraceContext::sampled(d.u64()?);
                let inner = Request::decode(d.rest())?;
                if matches!(inner, Request::Traced { .. }) {
                    return Err(WireError::Corrupt("nested traced envelope".into()));
                }
                Request::Traced {
                    ctx,
                    inner: Box::new(inner),
                }
            }
            t => return Err(WireError::Corrupt(format!("unknown request tag {t}"))),
        };
        d.finish()?;
        Ok(req)
    }

    /// Frame + write this request through the scratch buffer `frame`
    /// the connection reuses (one `write_all`; the buffer comes back
    /// empty). A payload over [`MAX_FRAME_BYTES`] is
    /// [`WireError::TooLarge`], and nothing is written.
    pub fn write<W: Write>(&self, w: &mut W, frame: &mut Vec<u8>) -> Result<(), WireError> {
        write_framed(w, frame, |out| self.encode_payload_into(out))
    }

    /// Read one framed request through the scratch buffer `payload`
    /// the connection reuses; `Ok(None)` on clean EOF.
    pub fn read<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<Option<Request>, WireError> {
        read_framed(r, payload, Request::decode)
    }
}

impl Response {
    /// Encode this response's payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_into(&mut out);
        out
    }

    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(tag::PONG),
            Response::Written { latency_nanos } => {
                out.push(tag::WRITTEN);
                varint::put_u64(out, *latency_nanos);
            }
            Response::Value {
                value,
                latency_nanos,
            } => {
                out.push(tag::VALUE);
                put_opt_slice(out, value);
                varint::put_u64(out, *latency_nanos);
            }
            Response::Rows {
                rows,
                latency_nanos,
            } => {
                out.push(tag::ROWS);
                varint::put_u64(out, rows.len() as u64);
                for (k, v) in rows {
                    varint::put_slice(out, k);
                    varint::put_slice(out, v);
                }
                varint::put_u64(out, *latency_nanos);
            }
            Response::Compacted => out.push(tag::COMPACTED),
            Response::Error { code, message } => {
                out.push(tag::ERROR);
                varint::put_u64(out, *code as u64);
                varint::put_slice(out, message.as_bytes());
            }
        }
    }

    /// Decode one response payload. Trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut d = Dec::new(payload, "response");
        let resp = match d.u8()? {
            tag::PONG => Response::Pong,
            tag::WRITTEN => Response::Written {
                latency_nanos: d.u64()?,
            },
            tag::VALUE => Response::Value {
                value: d.opt_bytes()?,
                latency_nanos: d.u64()?,
            },
            tag::ROWS => {
                let n = d.u64()? as usize;
                if n > MAX_FRAME_BYTES {
                    return Err(corrupt("response"));
                }
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let k = d.bytes()?;
                    let v = d.bytes()?;
                    rows.push((k, v));
                }
                Response::Rows {
                    rows,
                    latency_nanos: d.u64()?,
                }
            }
            tag::COMPACTED => Response::Compacted,
            tag::ERROR => {
                let code = d.u64()?;
                if code > u16::MAX as u64 {
                    return Err(corrupt("error code"));
                }
                let message =
                    String::from_utf8(d.bytes()?).map_err(|_| corrupt("error message utf-8"))?;
                Response::Error {
                    code: code as u16,
                    message,
                }
            }
            t => return Err(WireError::Corrupt(format!("unknown response tag {t}"))),
        };
        d.finish()?;
        Ok(resp)
    }

    /// Frame + write this response through the scratch buffer `frame`
    /// the connection reuses (one `write_all`; the buffer comes back
    /// empty). A payload over [`MAX_FRAME_BYTES`] is
    /// [`WireError::TooLarge`], and nothing is written.
    pub fn write<W: Write>(&self, w: &mut W, frame: &mut Vec<u8>) -> Result<(), WireError> {
        write_framed(w, frame, |out| self.encode_payload_into(out))
    }

    /// Read one framed response through the scratch buffer `payload`
    /// the connection reuses; `Ok(None)` on clean EOF.
    pub fn read<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<Option<Response>, WireError> {
        read_framed(r, payload, Response::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode_payload();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = resp.encode_payload();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Put {
            key: b"k".to_vec(),
            value: vec![0u8; 300],
        });
        roundtrip_request(Request::Delete { key: vec![] });
        roundtrip_request(Request::WriteBatch {
            ops: vec![
                BatchOp::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                BatchOp::Delete { key: b"b".to_vec() },
            ],
        });
        roundtrip_request(Request::Get {
            key: b"\x00\xff".to_vec(),
        });
        roundtrip_request(Request::Scan(
            ScanRequest::new()
                .start("a")
                .end("z")
                .limit(7)
                .reverse(true),
        ));
        roundtrip_request(Request::Scan(ScanRequest::new()));
        for c in [
            CompactionRequest::Flush { partition: 3 },
            CompactionRequest::FlushAll,
            CompactionRequest::Internal { partition: 0 },
            CompactionRequest::Major { partition: 9 },
            CompactionRequest::MajorWithRetention,
        ] {
            roundtrip_request(Request::Compact(c));
        }
    }

    #[test]
    fn traced_envelope_roundtrips() {
        roundtrip_request(Request::Traced {
            ctx: TraceContext::sampled(0xDEAD_BEEF),
            inner: Box::new(Request::Get { key: b"k".to_vec() }),
        });
        roundtrip_request(Request::Traced {
            ctx: TraceContext::sampled(u64::MAX),
            inner: Box::new(Request::Put {
                key: b"k".to_vec(),
                value: vec![7u8; 300],
            }),
        });
        roundtrip_request(Request::Traced {
            ctx: TraceContext::sampled(1),
            inner: Box::new(Request::Scan(ScanRequest::new().start("a").limit(3))),
        });
    }

    #[test]
    fn nested_traced_envelope_rejected() {
        let inner = Request::Traced {
            ctx: TraceContext::sampled(2),
            inner: Box::new(Request::Ping),
        };
        let nested = Request::Traced {
            ctx: TraceContext::sampled(1),
            inner: Box::new(inner),
        };
        assert!(matches!(
            Request::decode(&nested.encode_payload()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Written { latency_nanos: 42 });
        roundtrip_response(Response::Value {
            value: None,
            latency_nanos: 1,
        });
        roundtrip_response(Response::Value {
            value: Some(vec![9u8; 1000]),
            latency_nanos: u64::MAX,
        });
        roundtrip_response(Response::Rows {
            rows: vec![(b"k1".to_vec(), b"v1".to_vec()), (vec![], vec![])],
            latency_nanos: 5,
        });
        roundtrip_response(Response::Compacted);
        roundtrip_response(Response::Error {
            code: 8,
            message: "unsupported: nope".into(),
        });
    }

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn write_sends_the_bytes_write_frame_sends() {
        let put = Request::Put {
            key: b"k".to_vec(),
            value: vec![3u8; 300],
        };
        let reply = Response::Written { latency_nanos: 9 };
        let mut expect = Vec::new();
        write_frame(&mut expect, &put.encode_payload()).unwrap();
        write_frame(&mut expect, &reply.encode_payload()).unwrap();
        let (mut frames, mut scratch) = (Vec::new(), Vec::new());
        put.write(&mut frames, &mut scratch).unwrap();
        let first = frames.len();
        reply.write(&mut frames, &mut scratch).unwrap();
        assert_eq!(frames, expect);
        assert!(scratch.is_empty());

        // `starts_with_frame` needs the header and every payload byte.
        for cut in 0..first {
            assert!(!starts_with_frame(&frames[..cut]), "cut at {cut}");
        }
        assert!(starts_with_frame(&frames[..first]));
        assert!(starts_with_frame(&frames));

        // One payload buffer serves a long frame, then a short one.
        let mut cursor = std::io::Cursor::new(frames);
        let mut payload = Vec::new();
        assert!(read_frame_into(&mut cursor, &mut payload).unwrap());
        assert_eq!(Request::decode(&payload).unwrap(), put);
        assert!(read_frame_into(&mut cursor, &mut payload).unwrap());
        assert_eq!(Response::decode(&payload).unwrap(), reply);
        assert!(!read_frame_into(&mut cursor, &mut payload).unwrap());
    }

    #[test]
    fn corrupt_frames_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload-bytes").unwrap();
        // Flip one payload byte: CRC mismatch.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(bad)),
            Err(WireError::Corrupt(_))
        ));
        // Truncate mid-payload: not a clean EOF.
        let bad = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(bad)),
            Err(WireError::Corrupt(_))
        ));
        // Oversized length prefix.
        let mut bad = buf.clone();
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(bad)),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn over_cap_reply_is_refused_before_a_byte_is_written() {
        // 33 MiB of rows: one MiB past the cap.
        let rows = (0..33u8).map(|i| (vec![i], vec![i; 1 << 20])).collect();
        let reply = Response::Rows {
            rows,
            latency_nanos: 1,
        };
        let (mut wire, mut scratch) = (Vec::new(), Vec::new());
        assert!(matches!(
            reply.write(&mut wire, &mut scratch),
            Err(WireError::TooLarge(len)) if len > MAX_FRAME_BYTES
        ));
        assert!(wire.is_empty(), "nothing was sent");
        assert!(scratch.is_empty() && scratch.capacity() <= SCRATCH_KEEP_BYTES);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Ping.encode_payload();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err());
    }
}
