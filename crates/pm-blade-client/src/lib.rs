//! `pm-blade-client`: a thin blocking client for `pm-blade-server`.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time: the frame is built in a reused buffer and sent with one
//! `write`, the response is read through a `BufReader` into a reused
//! payload buffer. Connection establishment
//! retries with exponential backoff; all socket I/O honors a fixed
//! timeout. The calls mirror the engine's: a short name
//! plus, for a read, one `*_with` that states the trace context.
//!
//! - [`Client::write_batch`] — the engine's [`WriteBatch`] in one round
//!   trip via `Request::WriteBatch`;
//! - [`Client::scan_paged`] — a large forward scan split into
//!   server-friendly pages, re-issued from the successor of the last
//!   key until the range or limit is exhausted;
//! - [`Client::get_with`] — a get with the engine's virtual latency;
//!   `Some(ctx)` wraps it in a [`Request::Traced`] envelope so the
//!   client-chosen trace id spans client → server → engine (the server
//!   records the request in its flight recorder under that id).
//!
//! Engine-side failures arrive as [`ClientError::Remote`] carrying the
//! stable numeric code of `DbError::code()` plus its display message.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pm_blade::protocol::{Request, Response, WireError};
use pm_blade::{CompactionRequest, ScanRequest, TraceContext, WriteBatch};

/// Total connection attempts [`Client::connect`] makes.
const CONNECT_ATTEMPTS: u32 = 5;
/// Backoff before the second connection attempt; doubles per retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(20);
/// Read/write timeout on the socket.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Rows per request issued by [`Client::scan_paged`].
const SCAN_PAGE: usize = 1_000;

/// Anything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, send, or receive).
    Io(io::Error),
    /// The peer sent bytes that do not parse as a frame/response.
    Wire(WireError),
    /// The engine rejected the request: `DbError::code()` + message.
    Remote { code: u16, message: String },
    /// The server closed the connection before responding.
    ConnectionClosed,
    /// The server answered with a response of the wrong shape.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io: {e}"),
            ClientError::Wire(e) => write!(f, "client wire: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
            ClientError::ConnectionClosed => write!(f, "connection closed by server"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Wire(other),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Key/value rows as returned by scans.
pub type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// One blocking connection to a `pm-blade-server`.
pub struct Client {
    /// Buffered receive side; requests are written to the stream it
    /// wraps.
    reader: BufReader<TcpStream>,
    /// Scratch for the request frame and the response payload of a call.
    frame: Vec<u8>,
    payload: Vec<u8>,
}

impl Client {
    /// Connect, making up to 5 attempts 20 ms apart, the gap doubling
    /// per retry (covers the races where the server is still binding).
    /// Every socket read and write then times out after 30 s.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 1;
        let stream = loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => break stream,
                Err(e) if attempt == CONNECT_ATTEMPTS => return Err(ClientError::Io(e)),
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream),
            frame: Vec::new(),
            payload: Vec::new(),
        })
    }

    /// Issue one request and wait for its response; a remote engine
    /// error becomes [`ClientError::Remote`].
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        req.write(self.reader.get_mut(), &mut self.frame)?;
        match Response::read(&mut self.reader, &mut self.payload)? {
            None => Err(ClientError::ConnectionClosed),
            Some(Response::Error { code, message }) => Err(ClientError::Remote { code, message }),
            Some(other) => Ok(other),
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?} to Ping"))),
        }
    }

    /// Write one key. Returns the engine's virtual commit latency in
    /// nanoseconds.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<u64, ClientError> {
        let req = Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        };
        self.expect_written(&req)
    }

    /// Delete one key (tombstone write).
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, ClientError> {
        let req = Request::Delete { key: key.to_vec() };
        self.expect_written(&req)
    }

    /// A put/delete batch in one round trip, applied as the engine's
    /// [`pm_blade::DbCore::write_batch`] applies it.
    pub fn write_batch(&mut self, batch: WriteBatch) -> Result<u64, ClientError> {
        self.expect_written(&Request::WriteBatch { ops: batch.into() })
    }

    fn expect_written(&mut self, req: &Request) -> Result<u64, ClientError> {
        match self.call(req)? {
            Response::Written { latency_nanos } => Ok(latency_nanos),
            other => Err(ClientError::Unexpected(format!("{other:?} to a write"))),
        }
    }

    /// Point read; `None` = key absent.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        Ok(self.get_with(key, None)?.0)
    }

    /// Point read plus the engine's virtual read latency in
    /// nanoseconds, with the trace context stated: `Some(ctx)` sends
    /// the get in a [`Request::Traced`] envelope, and the server runs it
    /// through the engine's traced read under `ctx.trace_id`.
    pub fn get_with(
        &mut self,
        key: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<(Option<Vec<u8>>, u64), ClientError> {
        let get = Request::Get { key: key.to_vec() };
        let req = match trace {
            Some(ctx) => Request::Traced {
                ctx,
                inner: Box::new(get),
            },
            None => get,
        };
        match self.call(&req)? {
            Response::Value {
                value,
                latency_nanos,
            } => Ok((value, latency_nanos)),
            other => Err(ClientError::Unexpected(format!("{other:?} to Get"))),
        }
    }

    /// One scan request, one response — at most `request.limit` rows in
    /// a single frame. For large ranges prefer [`Client::scan_paged`].
    pub fn scan(&mut self, request: ScanRequest) -> Result<Rows, ClientError> {
        match self.call(&Request::Scan(request))? {
            Response::Rows { rows, .. } => Ok(rows),
            other => Err(ClientError::Unexpected(format!("{other:?} to Scan"))),
        }
    }

    /// Forward scan split into pages of 1 000 rows: each full page is
    /// followed up from the successor of its last key, until the range,
    /// the overall `request.limit`, or the data runs out. Reverse scans
    /// are issued as a single request (paging from the tail would need
    /// an exclusive-end cursor).
    pub fn scan_paged(&mut self, request: ScanRequest) -> Result<Rows, ClientError> {
        if request.reverse {
            return self.scan(request);
        }
        let mut out: Rows = Vec::new();
        let mut cursor = request.start.clone();
        loop {
            let remaining = request.limit - out.len();
            if remaining == 0 {
                break;
            }
            let page_req = ScanRequest {
                start: cursor.clone(),
                end: request.end.clone(),
                limit: SCAN_PAGE.min(remaining),
                reverse: false,
            };
            let want = page_req.limit;
            let rows = self.scan(page_req)?;
            let full_page = rows.len() == want;
            let last_key = rows.last().map(|(k, _)| k.clone());
            out.extend(rows);
            if !full_page {
                break;
            }
            // Successor of the last key: smallest key strictly greater.
            let mut next = last_key.expect("full page has a last row");
            next.push(0x00);
            cursor = next;
        }
        Ok(out)
    }

    /// Run a compaction on the server.
    pub fn compact(&mut self, request: CompactionRequest) -> Result<(), ClientError> {
        match self.call(&Request::Compact(request))? {
            Response::Compacted => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?} to Compact"))),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.reader.get_ref().peer_addr().ok())
            .finish()
    }
}
